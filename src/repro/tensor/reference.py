"""Reference kernels for the neural frontend, kept to check the fast ones.

:func:`repro.tensor.ops.conv2d` contracts its im2col columns with one
BLAS GEMM, :class:`repro.nn.MaxPool2d` takes a running maximum over
strided slices, and :class:`repro.nn.BatchNorm2d` scales and shifts in
place.  The functions here are the plain-numpy kernels those replaced:
an ``einsum`` over im2col columns, a maximum over a strided
``sliding_window_view``, and ``a * scale + shift``.  They are used only
by the tests and the differential fuzzer
(:func:`repro.fuzz.oracle.check_program`), never by a workload, and
they share no code with the fast path, so a bug there cannot hide in
both.

The output contract, fixed before the fast kernels were written:

* **conv2d** — elementwise ``|fast - ref| <= 2 * gamma_K * (|W| @ |cols|)``
  plus the bias rounding of both sides, where ``K = c_in * kh * kw``,
  ``gamma_K = K * u / (1 - K * u)`` and ``u`` is the unit roundoff of
  the dtype the convolution computes in.  Both kernels are within
  ``gamma_K * (|W| @ |cols|)`` of the exact sum whatever their order of
  summation, hence the factor 2.  Integer operands must match exactly.
* **maxpool2d and batchnorm2d** — bit-identical, NaN positions and the
  sign of zero included.

:func:`mismatch` applies the contract and describes the first
violation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["conv2d", "conv2d_bound", "maxpool2d", "batchnorm2d",
           "mismatch"]


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int,
            padding: int) -> np.ndarray:
    """(n, c*kh*kw, ho*wo) columns of the (padded) NCHW input."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = x.shape[:2]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]   # (n, c, ho, wo, kh, kw)
    ho, wo = windows.shape[2], windows.shape[3]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)


def _out_shape(x: np.ndarray, w: np.ndarray, stride: int,
               padding: int) -> tuple:
    c_out, _, kh, kw = w.shape
    return (x.shape[0], c_out, (x.shape[2] + 2 * padding - kh) // stride + 1,
            (x.shape[3] + 2 * padding - kw) // stride + 1)


def conv2d(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None,
           stride: int = 1, padding: int = 0) -> np.ndarray:
    """NCHW x OIHW convolution: im2col columns contracted by ``einsum``."""
    c_out, _, kh, kw = w.shape
    cols = _im2col(x, kh, kw, stride, padding)
    out = np.einsum("ok,nkl->nol", w.reshape(c_out, -1), cols)
    out = out.reshape(_out_shape(x, w, stride, padding))
    if b is not None:
        out = out + b.reshape(1, c_out, 1, 1)
    return out.astype(x.dtype, copy=False)


def conv2d_bound(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None,
                 stride: int = 1, padding: int = 0) -> np.ndarray:
    """Elementwise bound on ``|fast - ref|`` for one convolution.

    Zero everywhere when the operands are integers: both kernels must
    then agree exactly.
    """
    shape = _out_shape(x, w, stride, padding)
    compute = np.result_type(*([x, w] if b is None else [x, w, b]))
    if not np.issubdtype(compute, np.inexact):
        return np.zeros(shape)
    u = float(np.finfo(compute).eps) / 2.0
    if np.issubdtype(x.dtype, np.inexact):   # the result is cast to x's dtype
        u = max(u, float(np.finfo(x.dtype).eps) / 2.0)
    c_out, c_in, kh, kw = w.shape
    k = c_in * kh * kw
    gamma = k * u / (1.0 - k * u)
    cols = _im2col(np.abs(x).astype(np.float64), kh, kw, stride, padding)
    magnitude = np.einsum("ok,nkl->nol",
                          np.abs(w).astype(np.float64).reshape(c_out, -1),
                          cols).reshape(shape)
    bound = 2.0 * gamma * magnitude
    if b is not None:
        # each side rounds once more when it adds the bias
        bias = np.abs(b).astype(np.float64).reshape(1, c_out, 1, 1)
        bound = bound + 2.0 * u * (magnitude + bias)
    if not np.issubdtype(x.dtype, np.inexact):
        bound = bound + 1.0      # the cast back truncates either way
    return bound


def maxpool2d(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Max over each strided k x k window of a sliding-window view."""
    k, s = kernel_size, stride
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    return windows.max(axis=(-2, -1))


def batchnorm2d(x: np.ndarray, scale: np.ndarray,
                shift: np.ndarray) -> np.ndarray:
    """Inference batch norm as one expression."""
    return x * scale + shift


def mismatch(fast: np.ndarray, ref: np.ndarray,
             bound: Optional[np.ndarray] = None) -> Optional[str]:
    """Why ``fast`` breaks the contract with ``ref``, or ``None``.

    Without ``bound`` the two must be bit-identical.  With one, they
    must agree in shape, dtype and non-finite positions, and differ by
    at most ``bound`` elementwise where finite.
    """
    fast, ref = np.asarray(fast), np.asarray(ref)
    if fast.shape != ref.shape or fast.dtype != ref.dtype:
        return (f"fast {fast.dtype}{fast.shape} vs reference "
                f"{ref.dtype}{ref.shape}")
    if bound is None:
        if fast.tobytes() == ref.tobytes():
            return None
        rows = [np.ascontiguousarray(a).view(np.uint8).reshape(a.size, -1)
                for a in (fast, ref)]
        index = int(np.flatnonzero((rows[0] != rows[1]).any(axis=1))[0])
        return (f"not bit-identical at flat index {index}: fast "
                f"{fast.flat[index]!r} vs reference {ref.flat[index]!r}")
    finite = np.isfinite(ref)
    if not np.array_equal(finite, np.isfinite(fast)) or not np.array_equal(
            fast[~finite], ref[~finite], equal_nan=True):
        return "non-finite values differ from the reference"
    error = np.abs(fast[finite].astype(np.float64)
                   - ref[finite].astype(np.float64))
    excess = error - np.broadcast_to(bound, ref.shape)[finite]
    if excess.size and excess.max() > 0.0:
        worst = int(np.argmax(excess))
        return (f"error {error[worst]:.3g} exceeds the bound "
                f"{error[worst] - excess[worst]:.3g} "
                f"({int((excess > 0).sum())} of {ref.size} elements)")
    return None
