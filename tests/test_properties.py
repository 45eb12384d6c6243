"""Property-based tests (hypothesis) on core invariants:

* fuzzy-logic algebra laws (t-norm axioms, De Morgan, residuation);
* truth-bound propagation soundness (upward ops contain the point
  semantics; downward ops never exclude the true value);
* VSA binding algebra (self-inverse, similarity bounds, FPE modularity);
* cache-simulator invariants (hits+misses conservation, inclusion of
  hit rates in [0,1], determinism);
* trace/profiling invariants under random op sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tensor as T
from repro.hwsim.cache import CacheHierarchy, SetAssociativeCache
from repro.hwsim.device import CacheSpec
from repro.logic import bounds as B
from repro.logic import fuzzy
from repro.logic.bounds import Bounds

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
families = st.sampled_from([fuzzy.LUKASIEWICZ, fuzzy.GOEDEL, fuzzy.PRODUCT])


class TestFuzzyLaws:
    @given(unit, unit, families)
    def test_tnorm_bounded_and_below_min(self, a, b, kind):
        t = fuzzy.t_norm(kind)(np.array(a), np.array(b))
        assert -1e-9 <= t <= min(a, b) + 1e-9

    @given(unit, unit, families)
    def test_tconorm_above_max(self, a, b, kind):
        s = fuzzy.t_conorm(kind)(np.array(a), np.array(b))
        assert max(a, b) - 1e-9 <= s <= 1 + 1e-9

    @given(unit, unit, unit, families)
    def test_tnorm_associative(self, a, b, c, kind):
        t = fuzzy.t_norm(kind)
        left = t(t(np.array(a), np.array(b)), np.array(c))
        right = t(np.array(a), t(np.array(b), np.array(c)))
        assert left == pytest.approx(right, abs=1e-6)

    @given(unit, unit, st.floats(min_value=0.0, max_value=1.0), families)
    def test_tnorm_monotone(self, a, b, b2, kind):
        lo, hi = min(b, b2), max(b, b2)
        t = fuzzy.t_norm(kind)
        assert t(np.array(a), np.array(lo)) <= \
            t(np.array(a), np.array(hi)) + 1e-9

    @given(unit, unit, families)
    def test_de_morgan(self, a, b, kind):
        """NOT(a AND b) == (NOT a) OR (NOT b) for these dual pairs."""
        t = fuzzy.t_norm(kind)
        s = fuzzy.t_conorm(kind)
        left = fuzzy.negation(t(np.array(a), np.array(b)))
        right = s(fuzzy.negation(np.array(a)), fuzzy.negation(np.array(b)))
        assert left == pytest.approx(right, abs=1e-6)

    @given(unit, unit)
    def test_lukasiewicz_residuation(self, a, b):
        """t(a, c) <= b  iff  c <= implies(a, b)."""
        imp = float(fuzzy.implication(fuzzy.LUKASIEWICZ)(
            np.array(a), np.array(b)))
        t = fuzzy.t_norm(fuzzy.LUKASIEWICZ)
        assert t(np.array(a), np.array(imp)) <= b + 1e-6

    @given(st.lists(unit, min_size=1, max_size=20))
    def test_quantifiers_bounded_by_extremes(self, truths):
        arr = np.asarray(truths)
        fa = fuzzy.forall(arr)
        ex = fuzzy.exists(arr)
        assert arr.min() - 1e-6 <= fa <= arr.max() + 1e-6
        assert arr.min() - 1e-6 <= ex <= arr.max() + 1e-6
        assert fa <= ex + 1e-6


class TestBoundsSoundness:
    @given(unit, unit)
    def test_upward_and_contains_point(self, a, b):
        """Lukasiewicz AND of point values lies inside the interval
        computed from any containing bounds."""
        bounds_a = Bounds(np.array([max(0.0, a - 0.1)]),
                          np.array([min(1.0, a + 0.1)]))
        bounds_b = Bounds(np.array([max(0.0, b - 0.1)]),
                          np.array([min(1.0, b + 0.1)]))
        result = B.and_up(bounds_a, bounds_b)
        point = max(0.0, a + b - 1.0)
        assert result.lower[0] - 1e-6 <= point <= result.upper[0] + 1e-6

    @given(unit, unit)
    def test_upward_or_contains_point(self, a, b):
        bounds_a = Bounds.exactly(np.array([a]))
        bounds_b = Bounds.exactly(np.array([b]))
        result = B.or_up(bounds_a, bounds_b)
        point = min(1.0, a + b)
        assert result.lower[0] == pytest.approx(point, abs=1e-6)
        assert result.upper[0] == pytest.approx(point, abs=1e-6)

    @given(unit, unit)
    def test_modus_ponens_sound(self, a, b):
        """If A->B holds exactly and A is known exactly, the inferred
        B interval contains the actual Lukasiewicz-consistent value."""
        implication_truth = min(1.0, 1.0 - a + b)
        rule = Bounds.exactly(np.array([implication_truth]))
        antecedent = Bounds.exactly(np.array([a]))
        inferred = B.implies_down_consequent(rule, antecedent)
        assert inferred.lower[0] - 1e-6 <= b <= inferred.upper[0] + 1e-6

    @given(unit, unit)
    def test_not_round_trip(self, lo, hi):
        lower, upper = min(lo, hi), max(lo, hi)
        bounds = Bounds(np.array([lower]), np.array([upper]))
        double = B.not_up(B.not_up(bounds))
        assert double.lower[0] == pytest.approx(lower, abs=1e-9)
        assert double.upper[0] == pytest.approx(upper, abs=1e-9)

    @given(unit, unit, unit, unit)
    def test_tighten_never_widens(self, a1, a2, b1, b2):
        x = Bounds(np.array([min(a1, a2)]), np.array([max(a1, a2)]))
        y = Bounds(np.array([min(b1, b2)]), np.array([max(b1, b2)]))
        t = x.tighten(y)
        assert t.lower[0] >= x.lower[0] - 1e-12
        assert t.upper[0] <= x.upper[0] + 1e-12


class TestVSAProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bipolar_bind_self_inverse(self, seed):
        from repro.vsa import BipolarSpace
        space = BipolarSpace(256)
        rng = np.random.default_rng(seed)
        a = space.random(rng, 1)
        k = space.random(rng, 1)
        recovered = space.unbind(space.bind(a, k), k)
        np.testing.assert_array_equal(recovered.numpy(), a.numpy())

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_similarity_bounded(self, seed):
        from repro.vsa import BipolarSpace
        space = BipolarSpace(256)
        rng = np.random.default_rng(seed)
        a = space.random(rng, 1)
        b = space.random(rng, 1)
        sim = space.similarity(a, b).item()
        assert -1.0 - 1e-6 <= sim <= 1.0 + 1e-6

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_fpe_modular_addition(self, domain, seed):
        """FPE binding adds exponents mod the domain, for any domain."""
        from repro.vsa import HolographicSpace
        from repro.workloads.nvsa import fpe_codebook
        space = HolographicSpace(512)
        cb = fpe_codebook(space, domain, seed=seed)
        rng = np.random.default_rng(seed)
        x = int(rng.integers(0, domain))
        y = int(rng.integers(0, domain))
        bound = T.circular_conv(cb.vector(f"v{x}"), cb.vector(f"v{y}"))
        best = int(np.argmax(cb.similarities(bound).numpy()))
        assert best == (x + y) % domain


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_stats_conserved(self, accesses):
        spec = CacheSpec(size=1024, line_size=64, associativity=2,
                         bandwidth=1e12)
        cache = SetAssociativeCache(spec)
        for addr, write in accesses:
            cache.access(addr, write)
        stats = cache.stats
        assert stats.accesses == len(accesses)
        assert stats.hits + stats.misses == len(accesses)
        assert 0.0 <= stats.hit_rate <= 1.0

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                              st.booleans()),
                    min_size=1, max_size=150))
    @settings(max_examples=20, deadline=None)
    def test_hierarchy_determinism_and_conservation(self, accesses):
        def run():
            h = CacheHierarchy(
                CacheSpec(size=512, line_size=64, associativity=2,
                          bandwidth=1e12),
                CacheSpec(size=4096, line_size=64, associativity=4,
                          bandwidth=1e12))
            addrs = np.array([a for a, _ in accesses], dtype=np.int64)
            writes = np.array([w for _, w in accesses], dtype=bool)
            h.replay(addrs, writes)
            return h.stats()

        s1, s2 = run(), run()
        assert s1.l1.hits == s2.l1.hits
        assert s1.dram_read_lines == s2.dram_read_lines
        # L2 never sees more read traffic than L1 misses + writes
        assert s1.l2.accesses <= s1.l1.misses + s1.l1.accesses

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_repeat_scan_second_pass_hits(self, n_lines):
        """A working set that fits the cache hits 100% on the 2nd pass."""
        spec = CacheSpec(size=64 * 64, line_size=64, associativity=64,
                         bandwidth=1e12)  # fully associative, 64 lines
        cache = SetAssociativeCache(spec)
        for line in range(n_lines):
            cache.access(line, write=False)
        before = cache.stats.hits
        for line in range(n_lines):
            cache.access(line, write=False)
        assert cache.stats.hits - before == n_lines


class TestTraceProperties:
    @given(st.lists(st.sampled_from(["add", "mul", "relu", "sum"]),
                    min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_random_op_chain_trace_invariants(self, ops):
        from repro.core.validate import validate_trace
        with T.profile("prop") as prof:
            x = T.tensor(np.ones(64, dtype=np.float32))
            for op in ops:
                if op == "add":
                    x = T.add(x, 1.0)
                elif op == "mul":
                    x = T.mul(x, 0.5)
                elif op == "relu":
                    x = T.relu(x)
                elif op == "sum":
                    x = T.broadcast_to(
                        T.reshape(T.sum(x), (1,)), (64,))
        trace = prof.trace
        assert validate_trace(trace).ok
        assert len(trace) >= len(ops)
        # flops are additive over events
        assert sum(trace.columns.flops.tolist()) == pytest.approx(
            sum(e.flops for e in trace))
