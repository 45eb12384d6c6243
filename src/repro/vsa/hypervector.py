"""Hypervector spaces for vector-symbolic architectures.

Three classic VSA families (cf. Schlegel et al., "A comparison of
vector symbolic architectures"):

* :class:`BipolarSpace` — MAP-style {+1, -1}^d vectors; binding is the
  Hadamard (element-wise) product, bundling is signed addition.  This
  is the Table II NVSA row: ``X_i in {+1,-1}^d -> (X_i * X_j) / (X_i + X_j)``.
* :class:`BinarySpace` — BSC-style {0, 1}^d vectors; binding is XOR,
  bundling is majority vote, similarity is 1 - normalized Hamming.
* :class:`HolographicSpace` — HRR-style real vectors ~ N(0, 1/d);
  binding is circular convolution (FFT), unbinding is circular
  correlation.

All operations route through :mod:`repro.tensor` so VSA kernels land in
traces as vector/element-wise operations — the paper's central claim
about symbolic workload composition.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import tensor as T
from repro.tensor.tensor import Tensor


class VSASpace:
    """Interface: a d-dimensional hypervector algebra."""

    #: element type of the space's hypervectors
    dtype = np.dtype(np.float32)

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("hypervector dimension must be positive")
        self.dim = dim

    # -- generation ----------------------------------------------------------
    def random(self, rng: np.random.Generator, n: int = 1) -> Tensor:
        """``n`` random hypervectors, shape (n, dim)."""
        raise NotImplementedError

    # -- algebra --------------------------------------------------------------
    def bind(self, a: Tensor, b: Tensor) -> Tensor:
        raise NotImplementedError

    def unbind(self, a: Tensor, b: Tensor) -> Tensor:
        raise NotImplementedError

    def bundle(self, stacked: Tensor) -> Tensor:
        """Superpose hypervectors along axis 0 (or -2 for batches)."""
        raise NotImplementedError

    def similarity(self, a: Tensor, b: Tensor) -> Tensor:
        """Similarity in [-1, 1] (or [0, 1]) along the last axis."""
        raise NotImplementedError

    def permute(self, a: Tensor, shift: int = 1) -> Tensor:
        """Protecting permutation (cyclic shift) — role marking."""
        return T.roll(a, shift, axis=-1)


class BipolarSpace(VSASpace):
    """{+1, -1}^d with Hadamard binding (self-inverse) and sign bundling."""

    def random(self, rng: np.random.Generator, n: int = 1) -> Tensor:
        arr = rng.choice(np.array([-1.0, 1.0], dtype=np.float32),
                         size=(n, self.dim))
        return T.tensor(arr)

    def bind(self, a: Tensor, b: Tensor) -> Tensor:
        return T.mul(a, b)

    def unbind(self, a: Tensor, b: Tensor) -> Tensor:
        # Hadamard binding is self-inverse for bipolar vectors.
        return T.mul(a, b)

    def bundle(self, stacked: Tensor) -> Tensor:
        summed = T.sum(stacked, axis=-2)
        return T.sign(summed)

    def similarity(self, a: Tensor, b: Tensor) -> Tensor:
        dots = T.sum(T.mul(a, b), axis=-1)
        return T.div(dots, float(self.dim))


class BinarySpace(VSASpace):
    """{0, 1}^d with XOR binding and majority-vote bundling."""

    def random(self, rng: np.random.Generator, n: int = 1) -> Tensor:
        arr = rng.integers(0, 2, size=(n, self.dim)).astype(np.float32)
        return T.tensor(arr)

    def bind(self, a: Tensor, b: Tensor) -> Tensor:
        # XOR over {0,1} floats: a + b - 2ab
        prod = T.mul(a, b)
        return T.sub(T.add(a, b), T.mul(2.0, prod))

    def unbind(self, a: Tensor, b: Tensor) -> Tensor:
        return self.bind(a, b)  # XOR is self-inverse

    def bundle(self, stacked: Tensor) -> Tensor:
        mean = T.mean(stacked, axis=-2)
        return T.greater(mean, 0.5).astype(np.float32)

    def similarity(self, a: Tensor, b: Tensor) -> Tensor:
        # 1 - normalized Hamming distance
        diff = T.abs(T.sub(a, b))
        return T.sub(1.0, T.mean(diff, axis=-1))


class HolographicSpace(VSASpace):
    """Real vectors ~ N(0, 1/d) with circular-convolution binding (HRR)."""

    def random(self, rng: np.random.Generator, n: int = 1) -> Tensor:
        arr = rng.normal(0.0, 1.0 / np.sqrt(self.dim),
                         size=(n, self.dim)).astype(np.float32)
        return T.tensor(arr)

    def bind(self, a: Tensor, b: Tensor) -> Tensor:
        return T.circular_conv(a, b)

    def unbind(self, a: Tensor, b: Tensor) -> Tensor:
        """Approximate inverse: correlate the bound vector with the key.

        ``unbind(key, bound)`` recovers the filler bound with ``key``.
        """
        return T.circular_corr(a, b)

    def bundle(self, stacked: Tensor) -> Tensor:
        return T.sum(stacked, axis=-2)

    def similarity(self, a: Tensor, b: Tensor) -> Tensor:
        dots = T.sum(T.mul(a, b), axis=-1)
        na = T.norm(a, axis=-1)
        nb = T.norm(b, axis=-1)
        denom = T.maximum(T.mul(na, nb), 1e-12)
        return T.div(dots, denom)


class FHRRSpace(VSASpace):
    """Fourier Holographic Reduced Representations: unit phasors.

    Vectors are complex with unit-magnitude components; binding is the
    element-wise complex product (exactly invertible via the
    conjugate), bundling is the phasor projection of the sum, and
    similarity is the normalized real part of the Hermitian inner
    product.  FHRR is HRR's frequency-domain twin — circular
    convolution becomes a Hadamard product — and the fourth classic
    family in Schlegel et al.'s comparison.
    """

    dtype = np.dtype(np.complex64)

    def random(self, rng: np.random.Generator, n: int = 1) -> Tensor:
        phases = rng.uniform(-np.pi, np.pi, size=(n, self.dim))
        return T.astype(T.exp(T.mul(1j, phases)), np.complex64)

    def bind(self, a: Tensor, b: Tensor) -> Tensor:
        return T.mul(a, b)

    def unbind(self, a: Tensor, b: Tensor) -> Tensor:
        """Exact inverse: multiply by the key's conjugate.

        ``unbind(key, bound)`` recovers the filler bound with ``key``.
        """
        from repro.tensor.dispatch import run_op
        key_conj = run_op("complex_conj", compute=np.conj, inputs=[a])
        return T.mul(key_conj, b)

    def bundle(self, stacked: Tensor) -> Tensor:
        summed = T.sum(stacked, axis=-2)
        from repro.tensor.dispatch import run_op
        return run_op(
            "phasor_project",
            compute=lambda a: (a / np.maximum(np.abs(a), 1e-12)).astype(
                np.complex64),
            inputs=[summed], flop_factor=6.0)

    def similarity(self, a: Tensor, b: Tensor) -> Tensor:
        from repro.tensor.dispatch import run_op
        d = float(self.dim)
        return run_op(
            "phasor_similarity",
            compute=lambda x, y: (np.real(x * np.conj(y)).sum(axis=-1)
                                  / d).astype(np.float32),
            inputs=[a, b], flop_factor=6.0)


def make_space(kind: str, dim: int) -> VSASpace:
    """Factory: ``bipolar`` | ``binary`` | ``holographic`` | ``fhrr``."""
    spaces = {
        "bipolar": BipolarSpace,
        "binary": BinarySpace,
        "holographic": HolographicSpace,
        "fhrr": FHRRSpace,
    }
    try:
        return spaces[kind](dim)
    except KeyError:
        raise ValueError(f"unknown VSA space kind: {kind!r}") from None
