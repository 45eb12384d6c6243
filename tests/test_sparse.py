"""Tests for the sparse-tensor substrate (SpMM/SDDMM)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import tensor as T
from repro.core.taxonomy import OpCategory
from repro.tensor.sparse import (CSRMatrix, csr_mask, csr_row_softmax,
                                 sddmm, spmm)

RNG = np.random.default_rng(11)


def random_csr(rows: int, cols: int, density: float = 0.2) -> CSRMatrix:
    dense = RNG.normal(size=(rows, cols)).astype(np.float32)
    mask = RNG.random((rows, cols)) < density
    return CSRMatrix(sp.csr_matrix(np.where(mask, dense, 0.0)))


class TestCSRMatrix:
    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, 0, 2.0], [0, 0, 3.0]], dtype=np.float32)
        csr = CSRMatrix.from_dense(dense)
        assert csr.nnz == 3
        np.testing.assert_allclose(csr.to_dense().numpy(), dense)

    def test_from_edges(self):
        csr = CSRMatrix.from_edges(np.array([0, 1]), np.array([1, 0]),
                                   None, (2, 2))
        assert csr.nnz == 2
        assert csr.density == pytest.approx(0.5)

    def test_with_values_pattern_preserved(self):
        csr = random_csr(4, 4)
        new = csr.with_values(T.tensor(np.ones(csr.nnz,
                                                dtype=np.float32)))
        assert new.nnz == csr.nnz
        np.testing.assert_array_equal(new.matrix.indices,
                                      csr.matrix.indices)

    def test_with_values_validates_count(self):
        csr = random_csr(4, 4)
        with pytest.raises(ValueError):
            csr.with_values(T.tensor(np.ones(csr.nnz + 1,
                                              dtype=np.float32)))

    def test_nbytes_counts_indices(self):
        csr = random_csr(8, 8)
        assert csr.nbytes > csr.matrix.data.nbytes


class TestSpMM:
    def test_matches_scipy(self):
        csr = random_csr(6, 5)
        dense = RNG.normal(size=(5, 3)).astype(np.float32)
        out = spmm(csr, T.tensor(dense))
        np.testing.assert_allclose(out.numpy(), csr.matrix @ dense,
                                   rtol=1e-5)

    def test_shape_validation(self):
        csr = random_csr(4, 5)
        with pytest.raises(ValueError):
            spmm(csr, T.tensor(np.ones((4, 2), dtype=np.float32)))

    def test_flop_accounting(self):
        csr = random_csr(6, 6)
        with T.profile("t") as prof:
            spmm(csr, T.tensor(np.ones((6, 4), dtype=np.float32)))
        event = prof.trace[-1]
        assert event.category is OpCategory.MATMUL
        assert event.flops == pytest.approx(2 * csr.nnz * 4)
        # index-table traffic is charged
        assert event.bytes_read > 6 * 4 * 4


class TestSDDMM:
    def test_matches_dense_at_pattern(self):
        pattern = random_csr(5, 6, density=0.3)
        a = RNG.normal(size=(5, 4)).astype(np.float32)
        b = RNG.normal(size=(6, 4)).astype(np.float32)
        out = sddmm(pattern, T.tensor(a), T.tensor(b))
        full = a @ b.T
        coo = out.matrix.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            assert v == pytest.approx(full[r, c], rel=1e-4)

    def test_pattern_preserved(self):
        pattern = random_csr(5, 5, density=0.4)
        out = sddmm(pattern, T.tensor(RNG.normal(size=(5, 3)).astype(
            np.float32)), T.tensor(RNG.normal(size=(5, 3)).astype(
                np.float32)))
        assert out.nnz == pattern.nnz

    def test_shape_validation(self):
        pattern = random_csr(5, 6)
        with pytest.raises(ValueError):
            sddmm(pattern, T.tensor(np.ones((4, 3), dtype=np.float32)),
                  T.tensor(np.ones((6, 3), dtype=np.float32)))


class TestRowSoftmaxAndMask:
    def test_rows_normalize(self):
        csr = random_csr(6, 6, density=0.5)
        out = csr_row_softmax(csr)
        dense = np.asarray(out.matrix.todense())
        for row in range(6):
            nnz = out.matrix.indptr[row + 1] - out.matrix.indptr[row]
            if nnz:
                assert dense[row].sum() == pytest.approx(1.0, rel=1e-5)

    def test_empty_rows_tolerated(self):
        dense = np.zeros((3, 3), dtype=np.float32)
        dense[0, 1] = 2.0
        csr = CSRMatrix(sp.csr_matrix(dense))
        out = csr_row_softmax(csr)
        assert out.matrix[0, 1] == pytest.approx(1.0)

    def test_mask_pushes_to_fill(self):
        base = CSRMatrix.from_edges(np.array([0, 0]), np.array([0, 1]),
                                    np.array([1.0, 2.0], dtype=np.float32),
                                    (1, 2))
        mask = CSRMatrix.from_edges(np.array([0, 0]), np.array([0, 1]),
                                    np.array([1.0, 0.0], dtype=np.float32),
                                    (1, 2))
        out = csr_mask(base, mask)
        assert out.matrix[0, 0] == pytest.approx(1.0)
        assert out.matrix[0, 1] < -1e8

    def test_masked_softmax_excludes(self):
        base = CSRMatrix.from_edges(np.array([0, 0]), np.array([0, 1]),
                                    np.array([1.0, 1.0], dtype=np.float32),
                                    (1, 2))
        mask = CSRMatrix.from_edges(np.array([0, 0]), np.array([0, 1]),
                                    np.array([1.0, 0.0], dtype=np.float32),
                                    (1, 2))
        att = csr_row_softmax(csr_mask(base, mask))
        assert att.matrix[0, 0] == pytest.approx(1.0, rel=1e-5)
        assert att.matrix[0, 1] == pytest.approx(0.0, abs=1e-6)

    def test_mask_requires_same_pattern(self):
        a = random_csr(4, 4, density=0.5)
        b = random_csr(4, 4, density=0.1)
        if a.nnz != b.nnz:
            with pytest.raises(ValueError):
                csr_mask(a, b)
