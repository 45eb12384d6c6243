"""Tests for the logic-centric workloads: LNN, LTN, NLM."""

import itertools

import numpy as np
import pytest

from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.workloads.lnn import PREDICATE_DOMAINS, LNNWorkload
from repro.workloads.ltn import LTNWorkload
from repro.workloads.nlm import NLMWorkload
from tests.conftest import cached_trace


def _traffic(trace):
    """Bytes read and written by all of ``trace``'s events."""
    return sum(trace.columns.total_bytes.tolist())


class TestLNN:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("lnn", seed=0)

    def test_proves_derived_relations(self, trace):
        result = trace.metadata["result"]
        assert result["proven_taught_by"] > 0
        assert result["proven_academic_contact"] >= \
            result["proven_taught_by"]

    def test_no_contradictions(self, trace):
        assert trace.metadata["result"]["contradictions"] == 0

    def test_converges_before_max_passes(self, trace):
        assert trace.metadata["result"]["passes"] <= 6

    def test_bidirectional_phases(self, trace):
        stages = set(trace.columns.stages)
        assert "upward" in stages
        assert "downward" in stages

    def test_proofs_match_forward_chaining(self):
        """LNN's bound propagation proves exactly the Horn-derivable
        taught_by facts."""
        w = LNNWorkload(seed=0)
        w.build()
        import repro.tensor as T
        with T.profile("t"):
            result = w.run()
        kb = w.kb
        kb.forward_chain()
        assert result["proven_taught_by"] == len(kb.facts("taught_by"))

    def test_scales_with_kb_size(self):
        small = cached_trace("lnn", students_per_dept=6, seed=0)
        large = cached_trace("lnn", students_per_dept=16, seed=0)
        assert _traffic(large) > _traffic(small)

    def test_logic_rule_events_recorded(self, trace):
        names = {event.name for event in trace}
        assert "kb_forward_chain" in names
        assert "scatter_max" in names
        assert "scatter_min" in names


def _key_rows(workload, pred):
    """Reference table layout: a key->row dict over the row-major
    product of the predicate's position domains."""
    keys = itertools.product(*[workload.domains[d]
                               for d in PREDICATE_DOMAINS[pred]])
    return {key: i for i, key in enumerate(keys)}


def _lookup_gathers(workload, body, head, variables):
    """Reference grounding: one key tuple and one key->row lookup per
    grounding, for every body atom and then the head."""
    names = {v: workload.domains[d] for v, d in variables.items()}
    var_names = list(names)
    grids = np.meshgrid(*[np.arange(len(names[v])) for v in var_names],
                        indexing="ij")
    flat = {v: g.reshape(-1) for v, g in zip(var_names, grids)}
    num = flat[var_names[0]].size

    def gather_for(pred, args):
        rows = _key_rows(workload, pred)
        idx = np.empty(num, dtype=np.int64)
        for g in range(num):
            key = tuple(names[v][flat[v][g]] for v in args)
            idx[g] = rows[key]
        return idx

    return [gather_for(p, a) for p, a in body] + [gather_for(*head)]


class TestLNNGrounding:
    """Index-arithmetic grounding equals the per-grounding dict lookup."""

    SIZES = [
        {},                                        # the default KB
        {"professors_per_dept": 1},                # one professor each
        {"num_departments": 3, "professors_per_dept": 3,
         "students_per_dept": 11, "courses_per_dept": 4},  # stud0_10 < stud0_2
    ]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("size", SIZES, ids=["default", "one-prof",
                                                 "three-dept"])
    def test_gathers_equal_dict_lookup(self, size, seed, monkeypatch):
        compiled = []
        ground = LNNWorkload._compile_rule

        def capture(self, name, body, head, variables):
            rule = ground(self, name, body, head, variables)
            compiled.append((rule, body, head, variables))
            return rule

        monkeypatch.setattr(LNNWorkload, "_compile_rule", capture)
        w = LNNWorkload(seed=seed, **size)
        w.build()
        assert [r.name for r, *_ in compiled] == [r.name for r in w.rules]
        atoms = set()
        for rule, body, head, variables in compiled:
            want = _lookup_gathers(w, body, head, variables)
            got = [atom.gather for atom in rule.body + [rule.head]]
            assert len(got) == len(want)
            for g, x in zip(got, want):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, x)
            atoms.update((p, a) for p, a in body + [head])
        # an atom whose argument order is not the grid's variable order
        assert ("advises", ("y", "x")) in atoms

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("size", SIZES, ids=["default", "one-prof",
                                                 "three-dept"])
    def test_asserted_facts_equal_dict_lookup(self, size, seed):
        w = LNNWorkload(seed=seed, **size)
        w.build()
        for pred, table in w.tables.items():
            rows = _key_rows(w, pred)
            assert table.size == len(rows)
            true = np.zeros(table.size, dtype=np.float32)
            for _, args in w.kb.facts(pred):
                true[rows[args]] = 1.0
            np.testing.assert_array_equal(table.lower, true)
            if pred in ("takes", "teaches", "advises"):   # closed world
                assert true.any()
                np.testing.assert_array_equal(table.upper, true)
            else:                                        # nothing derived yet
                assert not true.any()
                np.testing.assert_array_equal(table.upper, 1.0)

    def test_constant_missing_from_table_raises_key_error(self):
        w = LNNWorkload(seed=0)
        w.build()
        # takes/2 holds students first: a professor is not among them
        with pytest.raises(KeyError):
            w._compile_rule("mistyped", body=[("takes", ("x", "z"))],
                            head=("taught_by", ("x", "x")),
                            variables={"x": "prof", "z": "course"})


class TestLTN:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("ltn", seed=0)

    def test_satisfaction_meaningfully_high(self, trace):
        assert trace.metadata["result"]["satisfaction"] > 0.6

    def test_axioms_individually_bounded(self, trace):
        for name, truth in trace.metadata["result"]["axioms"].items():
            assert 0.0 <= truth <= 1.0, name

    def test_query_reflects_world_structure(self, trace):
        result = trace.metadata["result"]
        assert result["query_cancer_given_smokes"] > \
            result["query_cancer_given_not_smokes"]

    def test_self_friendship_axiom_near_true(self, trace):
        axioms = trace.metadata["result"]["axioms"]
        assert axioms["no_self_friendship"] > 0.8

    def test_fuzzy_ops_in_trace(self, trace):
        names = {event.name for event in trace}
        assert any(name.startswith("fuzzy_implies") for name in names)
        assert "fuzzy_not" in names

    def test_grounding_is_neural_axioms_symbolic(self, trace):
        for event in trace:
            if event.stage == "grounding":
                assert event.phase == PHASE_NEURAL
            if event.stage == "axioms":
                assert event.phase == PHASE_SYMBOLIC


class TestNLM:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("nlm", seed=0)

    def test_grandparent_accuracy(self, trace):
        assert trace.metadata["result"]["grandparent_accuracy"] > 0.9

    def test_breadth_validation(self):
        with pytest.raises(ValueError):
            NLMWorkload(breadth=1)

    def test_layer_wiring_stages(self, trace):
        stages = set(trace.columns.stages)
        assert "wiring_layer0" in stages
        assert "mlp_layer0" in stages
        assert "readout" in stages

    def test_depth_scales_events(self):
        shallow = cached_trace("nlm", depth=2, seed=0)
        deep = cached_trace("nlm", depth=6, seed=0)
        assert len(deep) > len(shallow)

    def test_ternary_tensors_exist(self, trace):
        """Breadth 3 produces rank-4 tensors (n, n, n, C)."""
        assert any(len(e.output_shape) == 4 for e in trace)

    def test_wiring_is_symbolic_mlp_is_neural(self, trace):
        for event in trace:
            if event.stage.startswith("wiring"):
                assert event.phase == PHASE_SYMBOLIC
            if event.stage.startswith("mlp"):
                assert event.phase == PHASE_NEURAL

    def test_num_objects_scales_bytes(self):
        small = cached_trace("nlm", num_objects=10, seed=0)
        large = cached_trace("nlm", num_objects=24, seed=0)
        assert _traffic(large) > _traffic(small)
