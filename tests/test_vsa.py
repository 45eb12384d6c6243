"""Tests for the vector-symbolic substrate: spaces, codebooks, cleanup
memory, PMF transforms, LSH encoding."""

import hashlib

import numpy as np
import pytest

from repro import tensor as T
from repro.vsa import (BinarySpace, BipolarSpace, CleanupMemory, Codebook,
                       FHRRSpace, HolographicSpace, LSHEncoder, make_space,
                       pmf_entropy, pmf_to_vsa, product_codebook,
                       sparsify_pmf, vsa_to_pmf)

RNG = np.random.default_rng(42)


class TestBipolarSpace:
    space = BipolarSpace(1024)

    def test_random_is_bipolar(self):
        vec = self.space.random(RNG, 3).numpy()
        assert set(np.unique(vec)) <= {-1.0, 1.0}
        assert vec.shape == (3, 1024)

    def test_bind_self_inverse(self):
        a = self.space.random(RNG, 1)
        k = self.space.random(RNG, 1)
        recovered = self.space.unbind(self.space.bind(a, k), k)
        np.testing.assert_array_equal(recovered.numpy(), a.numpy())

    def test_bound_dissimilar_to_inputs(self):
        a = self.space.random(RNG, 1)
        b = self.space.random(RNG, 1)
        bound = self.space.bind(a, b)
        sim = self.space.similarity(bound, a).item()
        assert abs(sim) < 0.2

    def test_bundle_similar_to_members(self):
        members = self.space.random(RNG, 5)
        bundled = self.space.bundle(members)
        sims = self.space.similarity(
            T.broadcast_to(T.reshape(bundled, (1, 1024)), (5, 1024)),
            members).numpy()
        assert (sims > 0.2).all()

    def test_self_similarity_is_one(self):
        a = self.space.random(RNG, 1)
        assert self.space.similarity(a, a).item() == pytest.approx(1.0)

    def test_permute_preserves_content(self):
        a = self.space.random(RNG, 1)
        shifted = self.space.permute(a, 3)
        back = self.space.permute(shifted, -3)
        np.testing.assert_array_equal(back.numpy(), a.numpy())
        # permutation decorrelates
        sim = self.space.similarity(shifted, a).item()
        assert abs(sim) < 0.2


class TestBinarySpace:
    space = BinarySpace(1024)

    def test_random_is_binary(self):
        vec = self.space.random(RNG, 2).numpy()
        assert set(np.unique(vec)) <= {0.0, 1.0}

    def test_xor_bind_self_inverse(self):
        a = self.space.random(RNG, 1)
        k = self.space.random(RNG, 1)
        recovered = self.space.unbind(self.space.bind(a, k), k)
        np.testing.assert_array_equal(recovered.numpy(), a.numpy())

    def test_similarity_range(self):
        a = self.space.random(RNG, 1)
        b = self.space.random(RNG, 1)
        sim = self.space.similarity(a, b).item()
        assert 0.3 < sim < 0.7  # random vectors agree on ~half the bits
        assert self.space.similarity(a, a).item() == 1.0

    def test_majority_bundle(self):
        members = self.space.random(RNG, 7)
        bundled = self.space.bundle(members)
        assert set(np.unique(bundled.numpy())) <= {0.0, 1.0}


class TestHolographicSpace:
    space = HolographicSpace(2048)

    def test_bind_unbind_recovers(self):
        a = self.space.random(RNG, 1)
        b = self.space.random(RNG, 1)
        bound = self.space.bind(a, b)
        recovered = self.space.unbind(a, bound)
        sim = self.space.similarity(recovered, b).item()
        assert sim > 0.5

    def test_quasi_orthogonality(self):
        vecs = self.space.random(RNG, 2)
        a = T.index(vecs, 0)
        b = T.index(vecs, 1)
        assert abs(self.space.similarity(a, b).item()) < 0.15

    def test_bundle_is_sum(self):
        vecs = self.space.random(RNG, 3)
        bundled = self.space.bundle(vecs)
        np.testing.assert_allclose(bundled.numpy(),
                                   vecs.numpy().sum(axis=0), rtol=1e-5)


class TestSpaceFactory:
    def test_known_kinds(self):
        assert isinstance(make_space("bipolar", 64), BipolarSpace)
        assert isinstance(make_space("binary", 64), BinarySpace)
        assert isinstance(make_space("holographic", 64), HolographicSpace)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_space("quaternion", 64)

    def test_bad_dim_raises(self):
        with pytest.raises(ValueError):
            BipolarSpace(0)


class TestCodebook:
    def test_lookup_and_membership(self):
        cb = Codebook(BipolarSpace(512), ["a", "b", "c"], seed=1)
        assert len(cb) == 3
        assert "b" in cb
        assert "z" not in cb
        assert cb.vector("a").shape == (512,)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Codebook(BipolarSpace(64), ["a", "a"])

    def test_finished_matrix_is_stored_as_float32(self):
        rows = np.random.default_rng(0).normal(size=(3, 64))
        cb = Codebook(BipolarSpace(64), ["a", "b", "c"], matrix=rows)
        assert cb.matrix.dtype == np.float32
        assert cb.matrix.numpy().flags.c_contiguous
        np.testing.assert_array_equal(cb.matrix.numpy(),
                                      rows.astype(np.float32))
        rows[:] = 0.0           # the codebook keeps its own copy
        assert np.count_nonzero(cb.matrix.numpy()) == 3 * 64

    def test_finished_matrix_keeps_the_space_element_type(self):
        space = FHRRSpace(8)
        rows = space.random(np.random.default_rng(0), 2).numpy()
        cb = Codebook(space, ["a", "b"], matrix=rows)
        assert cb.matrix.dtype == np.complex64
        np.testing.assert_array_equal(cb.matrix.numpy(), rows)
        assert Codebook(HolographicSpace(8), ["a", "b"],
                        matrix=rows.real).matrix.dtype == np.float32

    def test_complex_matrix_for_a_real_space_rejected(self):
        rows = FHRRSpace(8).random(np.random.default_rng(0), 2).numpy()
        for space in (HolographicSpace(8), BipolarSpace(8)):
            with pytest.raises(ValueError, match="complex"):
                Codebook(space, ["a", "b"], matrix=rows)

    def test_finished_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            Codebook(BipolarSpace(64), ["a", "b"], matrix=np.zeros((3, 64)))

    def test_vectors_stacking(self):
        cb = Codebook(BipolarSpace(256), ["a", "b", "c"], seed=2)
        stacked = cb.vectors(["c", "a"])
        assert stacked.shape == (2, 256)
        np.testing.assert_array_equal(stacked.numpy()[0],
                                      cb.vector("c").numpy())

    def test_cleanup_recovers_symbol(self):
        cb = Codebook(BipolarSpace(2048), [f"s{i}" for i in range(30)],
                      seed=3)
        memory = CleanupMemory(cb)
        names, sims = memory.cleanup(cb.vector("s17"))
        assert names == ["s17"]

    def test_cleanup_with_noise(self):
        cb = Codebook(BipolarSpace(4096), [f"s{i}" for i in range(20)],
                      seed=4)
        noisy = cb.vector("s5").numpy().copy()
        flip = np.random.default_rng(0).choice(4096, size=800,
                                               replace=False)
        noisy[flip] *= -1
        names, _ = CleanupMemory(cb).cleanup(T.tensor(noisy))
        assert names == ["s5"]

    def test_cross_correlation_diagonal(self):
        cb = Codebook(BipolarSpace(1024), ["a", "b"], seed=5)
        gram = cb.cross_correlation().numpy()
        np.testing.assert_allclose(np.diag(gram), [1.0, 1.0])

    def test_product_codebook_cleanup(self):
        space = BipolarSpace(2048)
        combined, basis = product_codebook(
            space, {"color": ["red", "blue"], "shape": ["sq", "tri", "pent"]},
            seed=6)
        assert len(combined) == 6
        query = space.bind(basis["color"].vector("blue"),
                           basis["shape"].vector("tri"))
        names, _ = CleanupMemory(combined).cleanup(query)
        assert names == ["blue|tri"]

    @pytest.mark.parametrize("kind, digest", [
        ("holographic",
         "c49bb0e87a50e892815262e978f4f5028fc73181736ee5a51a81abf4a673a9a2"),
        ("fhrr",
         "2432d162b68a0928c6403ea5aa2db8d93df8267356e2598e795009d01e69f0fc"),
    ])
    def test_product_codebook_output_is_pinned(self, kind, digest):
        # digests of the rows product_codebook built when it overwrote a
        # random draw in place; the bound rows must be exactly those
        combined, basis = product_codebook(
            make_space(kind, 16),
            {"shape": ["circle", "square", "triangle"],
             "color": ["red", "blue"]}, seed=7)
        assert combined.symbols[:2] == ["circle|red", "circle|blue"]
        h = hashlib.sha256()
        for cb in (combined, *basis.values()):
            h.update(cb.matrix.numpy().dtype.str.encode())
            h.update(cb.matrix.numpy().tobytes())
        assert h.hexdigest() == digest


class TestPMFTransforms:
    def _fpe_setup(self):
        from repro.workloads.nvsa import fpe_codebook
        space = HolographicSpace(1024)
        return space, fpe_codebook(space, 10, seed=7)

    def test_one_hot_round_trip(self):
        _, cb = self._fpe_setup()
        pmf = T.tensor(np.eye(10, dtype=np.float32)[[2, 7]])
        vec = pmf_to_vsa(pmf, cb)
        back = vsa_to_pmf(vec, cb).numpy()
        assert list(np.argmax(back, axis=-1)) == [2, 7]

    def test_mixture_preserves_mass_ordering(self):
        _, cb = self._fpe_setup()
        pmf = np.zeros((1, 10), dtype=np.float32)
        pmf[0, 3] = 0.7
        pmf[0, 6] = 0.3
        back = vsa_to_pmf(pmf_to_vsa(T.tensor(pmf), cb), cb).numpy()[0]
        assert back[3] > back[6]
        assert back[3] > back[1]

    def test_support_mismatch_raises(self):
        _, cb = self._fpe_setup()
        with pytest.raises(ValueError):
            pmf_to_vsa(T.tensor(np.ones((1, 7), dtype=np.float32)), cb)

    def test_sparsify_thresholds_and_renormalizes(self):
        pmf = T.tensor(np.array([[0.94, 0.05, 0.005, 0.005]],
                                dtype=np.float32))
        out = sparsify_pmf(pmf, threshold=0.01).numpy()
        assert out[0, 2] == 0 and out[0, 3] == 0
        assert out.sum() == pytest.approx(1.0, rel=1e-5)

    def test_entropy_of_uniform_exceeds_onehot(self):
        uniform = T.tensor(np.full((1, 8), 0.125, dtype=np.float32))
        onehot = T.tensor(np.eye(8, dtype=np.float32)[[0]])
        assert pmf_entropy(uniform).item() > pmf_entropy(onehot).item()


class TestLSH:
    def test_output_is_bipolar(self):
        enc = LSHEncoder(32, 512, seed=0)
        feats = T.tensor(np.random.default_rng(1).normal(
            size=(10, 32)).astype(np.float32))
        out = enc(feats).numpy()
        assert set(np.unique(out)) <= {-1.0, 0.0, 1.0}

    def test_locality_sensitivity(self):
        enc = LSHEncoder(64, 4096, seed=2)
        rng = np.random.default_rng(3)
        base = rng.normal(size=64).astype(np.float32)
        near = base + rng.normal(0, 0.05, 64).astype(np.float32)
        far = rng.normal(size=64).astype(np.float32)
        h = enc(T.tensor(np.stack([base, near, far]))).numpy()
        sim_near = (h[0] * h[1]).mean()
        sim_far = (h[0] * h[2]).mean()
        assert sim_near > sim_far + 0.3

    def test_width_mismatch_raises(self):
        enc = LSHEncoder(16, 64)
        with pytest.raises(ValueError):
            enc(T.tensor(np.ones((2, 8), dtype=np.float32)))

    def test_bad_init_raises(self):
        with pytest.raises(ValueError):
            LSHEncoder(0, 64)
