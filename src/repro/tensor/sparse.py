"""Sparse-tensor operations: SpMM and SDDMM.

Table I lists "NN, SpMM, SDDMM" as the underlying operations of the
GNN+attention Neuro_Symbolic paradigm; these kernels are the classic
irregular-access workloads the paper's architecture discussion targets
(gather-heavy, low arithmetic intensity, index-table lookups).

A :class:`CSRMatrix` wraps scipy CSR storage; the ops record

* ``spmm``   — sparse @ dense: 2 * nnz * n FLOPs, traffic includes the
  index arrays (the "lookups into the tables of non-zero values" the
  paper's MatMul taxonomy paragraph mentions);
* ``sddmm``  — sampled dense-dense matmul: dense scores computed only
  at the sparsity pattern's coordinates (attention over edges);
* ``csr_row_softmax`` — per-row softmax over sparse values (attention
  normalization).

All are tagged MATMUL (spmm/sddmm) or ELEMENTWISE (row softmax) with
explicit index-traffic accounting.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor.context import Tracked, active_context
from repro.tensor.dispatch import run_op
from repro.tensor.tensor import Tensor, as_tensor


class CSRMatrix(Tracked):
    """A CSR sparse matrix participating in the instrumented runtime.

    Its bytes count as live while it exists, as a tensor's do.
    """

    def __init__(self, matrix: "sp.csr_matrix",
                 producer: Optional[int] = None, _track: bool = True):
        self._live = None
        if not sp.isspmatrix_csr(matrix):
            matrix = sp.csr_matrix(matrix)
        self.matrix = matrix
        self.producer = producer
        ctx = active_context() if _track else None
        if ctx is not None:
            self._live = ctx.track_allocation(self.nbytes)

    def __reduce__(self) -> tuple:
        # copies and unpickled matrices are untracked
        return (CSRMatrix, (self.matrix, self.producer, False))

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dense(cls, dense: object,
                   threshold: float = 0.0) -> "CSRMatrix":
        arr = dense.numpy() if isinstance(dense, Tensor) else np.asarray(dense)
        mask = np.abs(arr) > threshold
        return cls(sp.csr_matrix(np.where(mask, arr, 0.0)))

    @classmethod
    def from_edges(cls, rows: np.ndarray, cols: np.ndarray,
                   values: Optional[np.ndarray],
                   shape: Tuple[int, int]) -> "CSRMatrix":
        if values is None:
            values = np.ones(len(rows), dtype=np.float32)
        coo = sp.coo_matrix((values, (rows, cols)), shape=shape)
        return cls(coo.tocsr())

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def nbytes(self) -> int:
        return int(self.matrix.data.nbytes + self.matrix.indices.nbytes
                   + self.matrix.indptr.nbytes)

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def to_dense(self) -> Tensor:
        """Densify (a data-transformation op)."""
        return run_op("csr_to_dense",
                      lambda: np.asarray(self.matrix.todense(),
                                         dtype=np.float32),
                      [], extra_bytes_read=self.nbytes)

    def with_values(self, values: Tensor) -> "CSRMatrix":
        """Same sparsity pattern, new values."""
        vals = values.numpy().reshape(-1)
        if vals.size != self.nnz:
            raise ValueError(
                f"value count {vals.size} != nnz {self.nnz}")
        out = self.matrix.copy()
        out.data = vals.astype(np.float32)
        return CSRMatrix(out, producer=values.producer)

    def values(self) -> Tensor:
        return Tensor(self.matrix.data, producer=self.producer)


def spmm(sparse: CSRMatrix, dense: object) -> Tensor:
    """Sparse @ dense -> dense: the message-passing kernel."""
    d = as_tensor(dense)
    if sparse.shape[1] != d.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: {sparse.shape} @ {d.shape}")
    n_cols = d.shape[1] if d.ndim > 1 else 1
    flops = 2.0 * sparse.nnz * n_cols
    # index traffic: per non-zero, one column index + one value, plus
    # the gathered dense rows
    extra = sparse.nbytes + sparse.nnz * n_cols * 4
    return run_op("spmm",
                  lambda arr: np.asarray(sparse.matrix @ arr,
                                         dtype=np.float32),
                  [d], flops=flops, extra_bytes_read=extra)


def sddmm(pattern: CSRMatrix, a: object, b: object) -> CSRMatrix:
    """Sampled dense-dense matmul: ``out[i,j] = a[i] . b[j]`` for every
    (i, j) in ``pattern`` — the edge-attention scoring kernel."""
    ta, tb = as_tensor(a), as_tensor(b)
    if ta.shape[0] != pattern.shape[0] or tb.shape[0] != pattern.shape[1]:
        raise ValueError(
            f"sddmm shape mismatch: pattern {pattern.shape}, "
            f"a {ta.shape}, b {tb.shape}")
    k = ta.shape[1]
    coo = pattern.matrix.tocoo()
    flops = 2.0 * pattern.nnz * k
    extra = pattern.nbytes + pattern.nnz * k * 8  # two gathered rows/nz

    def _compute(a_arr: np.ndarray, b_arr: np.ndarray) -> np.ndarray:
        return np.einsum("ek,ek->e", a_arr[coo.row], b_arr[coo.col])

    values = run_op("sddmm", _compute, [ta, tb],
                    flops=flops, extra_bytes_read=extra)
    return pattern.with_values(values)


def csr_row_softmax(sparse: CSRMatrix) -> CSRMatrix:
    """Softmax over each row's non-zeros (attention normalization)."""
    indptr = sparse.matrix.indptr

    def _compute(data: np.ndarray) -> np.ndarray:
        out = np.empty_like(data)
        for row in range(len(indptr) - 1):
            lo, hi = indptr[row], indptr[row + 1]
            if lo == hi:
                continue
            seg = data[lo:hi]
            seg = np.exp(seg - seg.max())
            out[lo:hi] = seg / seg.sum()
        return out

    values = run_op("csr_row_softmax", _compute,
                    [sparse.values()], flop_factor=6.0,
                    extra_bytes_read=indptr.nbytes)
    return sparse.with_values(values)


def csr_mask(sparse: CSRMatrix, mask: CSRMatrix,
             fill: float = -1e9) -> CSRMatrix:
    """Apply a symbolic mask to sparse values: entries whose mask value
    is zero are pushed to ``fill`` (pre-softmax logit masking)."""
    if sparse.shape != mask.shape or sparse.nnz != mask.nnz:
        raise ValueError("mask must share the sparsity pattern")

    def _compute(data: np.ndarray, mask_data: np.ndarray) -> np.ndarray:
        return np.where(mask_data > 0, data, fill).astype(np.float32)

    values = run_op("csr_mask", _compute,
                    [sparse.values(), mask.values()], flop_factor=1.0)
    return sparse.with_values(values)
