"""Codebooks and cleanup (associative) memory.

NVSA's neural frontend transduces perception into *codebook* items —
quasi-orthogonal hypervectors, one per symbol (or per combination of
attribute values).  The paper notes the codebook dominates NVSA's
memory footprint (Takeaway 4): it must be "large enough to contain all
object combinations and ensure quasi-orthogonality".

A :class:`Codebook` maps symbol names to rows of a matrix; a
:class:`CleanupMemory` recovers the nearest symbol for a noisy query
via a similarity sweep (one GEMM + argmax — exactly the memory-bound
access pattern the paper highlights).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import tensor as T
from repro.tensor.errors import TensorOpError
from repro.tensor.tensor import Tensor
from repro.vsa.hypervector import VSASpace


class Codebook:
    """Named hypervectors stored as a (num_symbols, dim) matrix.

    The rows are drawn from ``space.random`` (with ``rng``, else a
    generator seeded with ``seed``), unless ``matrix`` gives the
    finished ``(num_symbols, dim)`` rows; those are stored as the
    space's element type (``space.dtype``: complex64 for FHRR, float32
    otherwise) and nothing is drawn.  A complex matrix for a real space
    raises ``ValueError``: the cast would drop its imaginary parts.
    """

    def __init__(self, space: VSASpace, symbols: Sequence[str],
                 rng: Optional[np.random.Generator] = None, seed: int = 0,
                 *, matrix: Optional[np.ndarray] = None):
        if len(set(symbols)) != len(symbols):
            raise ValueError("codebook symbols must be unique")
        self.space = space
        self.symbols: List[str] = list(symbols)
        self._index: Dict[str, int] = {s: i for i, s in enumerate(self.symbols)}
        if matrix is None:
            rng = rng if rng is not None else np.random.default_rng(seed)
            self.matrix = space.random(rng, len(self.symbols))
        elif np.shape(matrix) != (len(self.symbols), space.dim):
            raise ValueError(
                f"codebook matrix has shape {np.shape(matrix)}, expected "
                f"{(len(self.symbols), space.dim)}")
        elif np.iscomplexobj(matrix) and space.dtype.kind != "c":
            raise ValueError(
                f"codebook matrix is complex, but a {type(space).__name__} "
                f"holds {space.dtype} hypervectors")
        else:
            self.matrix = T.tensor(np.array(matrix, dtype=space.dtype,
                                            order="C"))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def nbytes(self) -> int:
        """Memory footprint of the codebook matrix."""
        return self.matrix.nbytes

    def vector(self, symbol: str) -> Tensor:
        """The hypervector of ``symbol`` (shape (dim,))."""
        row = self._index[symbol]
        return T.index(self.matrix, row)

    def vectors(self, symbols: Sequence[str]) -> Tensor:
        """Stacked hypervectors for ``symbols`` (shape (n, dim))."""
        rows = np.array([self._index[s] for s in symbols], dtype=np.int64)
        return T.take(self.matrix, T.tensor(rows, dtype=np.int64), axis=0)

    def similarities(self, query: Tensor) -> Tensor:
        """Similarity of ``query`` against every codebook entry.

        Shapes: query (dim,) -> (n,); query (b, dim) -> (b, n).
        One dense GEMM over the whole codebook — the characteristic
        cleanup sweep.
        """
        sims = T.matmul(query, T.transpose(self.matrix))
        return T.div(sims, float(self.dim))

    def cross_correlation(self) -> Tensor:
        """Pairwise similarity matrix — quasi-orthogonality diagnostic."""
        gram = T.matmul(self.matrix, T.transpose(self.matrix))
        return T.div(gram, float(self.dim))


class CleanupMemory:
    """Nearest-neighbour recovery of clean symbols from noisy queries."""

    def __init__(self, codebook: Codebook):
        self.codebook = codebook

    def cleanup(self, query: Tensor) -> Tuple[List[str], Tensor]:
        """Return best-matching symbol(s) and the similarity scores.

        Raises a classified :class:`TensorOpError` on an empty
        codebook — there is no nearest symbol to recover, and letting
        the argmax see an empty axis would surface a raw numpy error.
        """
        if len(self.codebook) == 0:
            raise TensorOpError("cleanup over an empty codebook",
                                op_name="cleanup")
        sims = self.codebook.similarities(query)
        best = T.argmax(sims, axis=-1)
        idx = np.atleast_1d(best.numpy())
        names = [self.codebook.symbols[int(i)] for i in idx]
        return names, sims


def product_codebook(space: VSASpace,
                     attribute_values: Dict[str, Sequence[str]],
                     seed: int = 0) -> Tuple[Codebook, Dict[str, Codebook]]:
    """Build NVSA-style combination codebooks.

    Returns a *combination* codebook holding one bound hypervector per
    element of the Cartesian product of attribute values (symbol format
    ``"val1|val2|..."``), plus the per-attribute basis codebooks.  The
    combination vectors are the binding of the per-attribute vectors —
    this is why NVSA's codebook footprint scales with the product of
    attribute cardinalities (Takeaway 4).
    """
    rng = np.random.default_rng(seed)
    basis = {
        attr: Codebook(space, values, rng=rng)
        for attr, values in attribute_values.items()
    }
    attrs = list(attribute_values)
    combos: List[str] = [""]
    for attr in attrs:
        combos = [f"{prefix}|{v}" if prefix else v
                  for prefix in combos for v in attribute_values[attr]]

    # each row is the bound product of its attribute values, so cleanup
    # of a bound query resolves to the right combination symbol
    rows = []
    for combo in combos:
        values = combo.split("|")
        vec = basis[attrs[0]].vector(values[0])
        for attr, value in zip(attrs[1:], values[1:]):
            vec = space.bind(vec, basis[attr].vector(value))
        rows.append(vec.numpy().reshape(-1))
    combined = Codebook(space, combos,
                        matrix=np.reshape(rows, (len(combos), space.dim)))
    return combined, basis
