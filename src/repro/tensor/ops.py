"""Instrumented functional tensor API.

Every function here computes with numpy and records exactly one trace
event, tagged with the paper's six-way operator taxonomy:

* convolution        — :func:`conv2d`
* matmul             — :func:`matmul`, :func:`outer`, :func:`einsum`
* vector/element-wise — arithmetic, activations, reductions, circular
  convolution (the vector-symbolic binding primitive)
* data transformation — reshape/transpose/concat/pad/gather/sort ...
* data movement       — copy/astype/to_device/assign
* others              — fuzzy-logic connectives (see
  :mod:`repro.logic.fuzzy` for semantics)

FLOP conventions: 1 per element for arithmetic/comparison; explicit
counts for matmul/conv/FFT; ``size`` for reductions; transcendentals
are weighted (exp/log/tanh count several hardware ops each).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.dispatch import record_region, run_op
from repro.tensor.errors import TensorOpError
from repro.tensor.tensor import Tensor, as_tensor

__all__ = [
    "tensor", "zeros", "ones", "full", "arange", "eye",
    "matmul", "outer", "einsum", "conv2d",
    "add", "sub", "mul", "div", "pow", "maximum", "minimum", "neg",
    "exp", "log", "sqrt", "tanh", "abs", "sign", "clip", "reciprocal",
    "relu", "sigmoid", "softmax", "log_softmax",
    "greater", "less", "equal", "logical_and", "logical_or", "logical_not",
    "where",
    "sum", "mean", "max", "min", "prod", "norm", "argmax", "cumsum",
    "rfft", "irfft", "circular_conv", "circular_corr",
    "reshape", "transpose", "concat", "stack", "split", "pad", "take",
    "index", "masked_select", "broadcast_to", "roll", "flip", "sort",
    "argsort", "coalesce", "one_hot",
    "copy", "astype", "to_device", "to_host", "assign",
    "fuzzy_and", "fuzzy_or", "fuzzy_not", "fuzzy_implies",
    "record_region",
]

#: FLOP weight of transcendental functions relative to an add/mul.
_TRANSCENDENTAL_COST = 4.0


def _norm_axis(op: str, axis: int, ndim: int) -> int:
    """Normalize ``axis`` to [0, ndim); classified error when invalid."""
    if ndim == 0 or not -ndim <= axis < ndim:
        raise TensorOpError(
            f"{op}: axis {axis} out of range for a rank-{ndim} input",
            op_name=op)
    return axis % ndim


def _require_nonempty_reduction(op: str, shape: Tuple[int, ...],
                                size: int, axis: Optional[int]) -> None:
    """An identity-free reduction (max/min/argmax) needs elements."""
    if axis is None:
        if size == 0:
            raise TensorOpError(
                f"{op}: reduction over an empty tensor has no defined "
                f"value", op_name=op)
        return
    norm = _norm_axis(op, axis, len(shape))
    if shape[norm] == 0:
        raise TensorOpError(
            f"{op}: reduction axis {axis} has extent 0", op_name=op)


# ---------------------------------------------------------------------------
# creation (no events: allocation is not an operator in the taxonomy)
# ---------------------------------------------------------------------------

def tensor(data: object, dtype: Optional[object] = None) -> Tensor:
    """Wrap ``data`` as a Tensor (records nothing)."""
    return as_tensor(data, dtype=dtype)


def zeros(shape: Union[int, Tuple[int, ...]], dtype: object = np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def ones(shape: Union[int, Tuple[int, ...]], dtype: object = np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


def full(shape: Union[int, Tuple[int, ...]], value: float,
         dtype: object = np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


def arange(*args: object, dtype: object = np.float32) -> Tensor:
    return Tensor(np.arange(*args, dtype=dtype))


def eye(n: int, dtype: object = np.float32) -> Tensor:
    return Tensor(np.eye(n, dtype=dtype))


# ---------------------------------------------------------------------------
# matmul family
# ---------------------------------------------------------------------------

def matmul(a: object, b: object) -> Tensor:
    """General (batched) matrix multiplication; 2*m*k*n FLOPs."""
    ta, tb = as_tensor(a), as_tensor(b)
    a_arr, b_arr = ta.data, tb.data
    if a_arr.ndim == 0 or b_arr.ndim == 0:
        raise TensorOpError("matmul: inputs must be at least 1-d",
                            op_name="matmul")
    k_b = b_arr.shape[-2] if b_arr.ndim >= 2 else b_arr.shape[-1]
    if a_arr.shape[-1] != k_b:
        raise TensorOpError(
            f"matmul: contraction dims disagree "
            f"({a_arr.shape} @ {b_arr.shape})", op_name="matmul")
    if a_arr.ndim == 1 and b_arr.ndim == 1:
        flops = 2.0 * a_arr.size
    else:
        k = a_arr.shape[-1]
        out_elems = _matmul_out_elems(a_arr.shape, b_arr.shape)
        flops = 2.0 * k * out_elems
    return run_op("matmul", np.matmul, [ta, tb], flops=flops)


def _matmul_out_elems(sa: Tuple[int, ...], sb: Tuple[int, ...]) -> int:
    a_rows = sa[-2] if len(sa) >= 2 else 1
    b_cols = sb[-1] if len(sb) >= 2 else 1
    batch = 1
    for dim in np.broadcast_shapes(sa[:-2], sb[:-2]):
        batch *= dim
    return batch * a_rows * b_cols


def outer(a: object, b: object) -> Tensor:
    ta, tb = as_tensor(a), as_tensor(b)
    flops = 1.0 * ta.size * tb.size
    return run_op("outer", np.outer, [ta, tb], flops=flops)


def einsum(spec: str, *operands: object) -> Tensor:
    """Einstein summation, recorded as a matmul-category op.

    FLOPs are estimated as 2 * (product of all distinct index extents),
    the cost of the naive contraction.
    """
    tensors = [as_tensor(op) for op in operands]
    extents = {}
    in_specs = spec.split("->")[0].split(",")
    for sub, t in zip(in_specs, tensors):
        for ch, dim in zip(sub.replace("...", ""), t.shape):
            extents[ch] = dim
    loop = 1
    for dim in extents.values():
        loop *= dim
    flops = 2.0 * loop
    return run_op(f"einsum[{spec}]",
                  lambda *arrs: np.einsum(spec, *arrs), tensors, flops=flops)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x: object, weight: object, bias: Optional[object] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (NCHW), implemented via im2col + GEMM internally
    but recorded as a single convolution event (matching how profilers
    attribute cuDNN kernels)."""
    tx, tw = as_tensor(x), as_tensor(weight)
    x_arr, w_arr = tx.data, tw.data
    if x_arr.ndim != 4 or w_arr.ndim != 4:
        raise TensorOpError(
            f"conv2d: expected NCHW input and OIHW weight, got ranks "
            f"{x_arr.ndim} and {w_arr.ndim}", op_name="conv2d")
    if stride < 1:
        raise TensorOpError(f"conv2d: stride must be >= 1, got {stride}",
                            op_name="conv2d")
    n, c_in, h, w = x_arr.shape
    c_out, c_in_w, kh, kw = w_arr.shape
    if c_in != c_in_w:
        raise TensorOpError(
            f"conv2d channel mismatch: input has {c_in}, weight expects "
            f"{c_in_w}", op_name="conv2d")
    if kh < 1 or kw < 1:
        raise TensorOpError(
            f"conv2d: kernel must be non-empty, got {kh}x{kw}",
            op_name="conv2d")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise TensorOpError(
            "conv2d output would be empty; check kernel/stride/padding",
            op_name="conv2d")
    flops = 2.0 * n * c_out * h_out * w_out * c_in * kh * kw
    inputs = [tx, tw]
    b_arr: Optional[np.ndarray] = None
    if bias is not None:
        tb = as_tensor(bias)
        inputs.append(tb)
        b_arr = tb.data
        flops += n * c_out * h_out * w_out

    def _compute(xa: np.ndarray, wa: np.ndarray,
                 ba: Optional[np.ndarray] = None) -> np.ndarray:
        out = _conv2d_gemm(xa, wa, ba, stride, padding)
        return out.reshape(n, c_out, h_out, w_out).astype(xa.dtype, copy=False)

    return run_op("conv2d", _compute, inputs, flops=flops)


def _conv2d_gemm(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                 stride: int, padding: int) -> np.ndarray:
    """(n, c_out, L) convolution: im2col columns contracted by one BLAS
    GEMM, bias added in place.

    Agrees with :func:`repro.tensor.reference.conv2d` within the
    summation-order bound documented there.
    """
    c_out, _, kh, kw = w.shape
    out = np.matmul(w.reshape(c_out, -1), _im2col(x, kh, kw, stride, padding))
    if b is not None:
        bias = b.reshape(1, c_out, 1)
        if np.result_type(out, bias) == out.dtype:
            out += bias
        else:                    # a wider bias widens the sum, as before
            out = out + bias
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int,
            padding: int) -> np.ndarray:
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]   # (n, c, ho, wo, kh, kw)
    ho, wo = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    return np.ascontiguousarray(cols)


# ---------------------------------------------------------------------------
# element-wise arithmetic
# ---------------------------------------------------------------------------

def _binary(name: str, fn: object, a: object, b: object,
            flop_factor: float = 1.0) -> Tensor:
    return run_op(name, fn, [as_tensor(a) if isinstance(a, (Tensor, np.ndarray, list)) else a,
                                  as_tensor(b) if isinstance(b, (Tensor, np.ndarray, list)) else b],
                  flop_factor=flop_factor)


def add(a: object, b: object) -> Tensor:
    return _binary("add", np.add, a, b)


def sub(a: object, b: object) -> Tensor:
    return _binary("sub", np.subtract, a, b)


def mul(a: object, b: object) -> Tensor:
    return _binary("mul", np.multiply, a, b)


def div(a: object, b: object) -> Tensor:
    return _binary("div", np.divide, a, b, flop_factor=_TRANSCENDENTAL_COST)


def pow(a: object, b: object) -> Tensor:  # noqa: A001 - mirrors numpy name
    return _binary("pow", np.power, a, b, flop_factor=_TRANSCENDENTAL_COST)


def maximum(a: object, b: object) -> Tensor:
    return _binary("maximum", np.maximum, a, b)


def minimum(a: object, b: object) -> Tensor:
    return _binary("minimum", np.minimum, a, b)


def _unary(name: str, fn: object, x: object, flop_factor: float = 1.0) -> Tensor:
    return run_op(name, fn, [as_tensor(x)], flop_factor=flop_factor)


def neg(x: object) -> Tensor:
    return _unary("neg", np.negative, x)


def exp(x: object) -> Tensor:
    return _unary("exp", np.exp, x, flop_factor=_TRANSCENDENTAL_COST)


def log(x: object) -> Tensor:
    return _unary("log", lambda a: np.log(np.maximum(a, 1e-30)),
                  x, flop_factor=_TRANSCENDENTAL_COST)


def sqrt(x: object) -> Tensor:
    return _unary("sqrt", np.sqrt, x, flop_factor=_TRANSCENDENTAL_COST)


def tanh(x: object) -> Tensor:
    return _unary("tanh", np.tanh, x, flop_factor=_TRANSCENDENTAL_COST)


def abs(x: object) -> Tensor:  # noqa: A001 - mirrors numpy name
    return _unary("abs", np.abs, x)


def sign(x: object) -> Tensor:
    return _unary("sign", np.sign, x)


def clip(x: object, lo: float, hi: float) -> Tensor:
    return _unary("clip", lambda a: np.clip(a, lo, hi), x, flop_factor=2.0)


def reciprocal(x: object) -> Tensor:
    return _unary("reciprocal", lambda a: 1.0 / a, x,
                  flop_factor=_TRANSCENDENTAL_COST)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x: object) -> Tensor:
    return _unary("relu", lambda a: np.maximum(a, 0), x)


def sigmoid(x: object) -> Tensor:
    return _unary("sigmoid", lambda a: 1.0 / (1.0 + np.exp(-a)), x,
                  flop_factor=_TRANSCENDENTAL_COST + 2)


def softmax(x: object, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    norm = _norm_axis("softmax", axis, t.ndim)

    def _softmax(a: np.ndarray) -> np.ndarray:
        if a.shape[norm] == 0:   # softmax over the empty set: empty out
            return a.copy()
        shifted = a - a.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)
    return _unary("softmax", _softmax, t, flop_factor=_TRANSCENDENTAL_COST + 3)


def log_softmax(x: object, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    norm = _norm_axis("log_softmax", axis, t.ndim)

    def _log_softmax(a: np.ndarray) -> np.ndarray:
        if a.shape[norm] == 0:
            return a.copy()
        shifted = a - a.max(axis=axis, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _unary("log_softmax", _log_softmax, t,
                  flop_factor=2 * _TRANSCENDENTAL_COST)


# ---------------------------------------------------------------------------
# comparisons and boolean logic (relational ops: element-wise category)
# ---------------------------------------------------------------------------

def greater(a: object, b: object) -> Tensor:
    return _binary("greater", np.greater, a, b)


def less(a: object, b: object) -> Tensor:
    return _binary("less", np.less, a, b)


def equal(a: object, b: object) -> Tensor:
    return _binary("equal", np.equal, a, b)


def logical_and(a: object, b: object) -> Tensor:
    return _binary("logical_and", np.logical_and, a, b)


def logical_or(a: object, b: object) -> Tensor:
    return _binary("logical_or", np.logical_or, a, b)


def logical_not(x: object) -> Tensor:
    return _unary("logical_not", np.logical_not, x)


def where(cond: object, a: object, b: object) -> Tensor:
    return run_op("where", np.where,
                  [as_tensor(cond), as_tensor(a), as_tensor(b)])


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduction(name: str, fn: object, x: object, axis: Optional[int],
               keepdims: bool, flop_per_elem: float = 1.0) -> Tensor:
    t = as_tensor(x)
    if axis is not None:
        _norm_axis(name, axis, t.ndim)
    flops = flop_per_elem * t.size
    return run_op(name,
                  lambda a: fn(a, axis=axis, keepdims=keepdims),
                  [t], flops=flops)


def sum(x: object, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _reduction("sum", np.sum, x, axis, keepdims)


def mean(x: object, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return _reduction("mean", np.mean, x, axis, keepdims)


def max(x: object, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    t = as_tensor(x)
    _require_nonempty_reduction("max", t.shape, t.size, axis)
    return _reduction("max", np.max, t, axis, keepdims)


def min(x: object, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    t = as_tensor(x)
    _require_nonempty_reduction("min", t.shape, t.size, axis)
    return _reduction("min", np.min, t, axis, keepdims)


def prod(x: object, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return _reduction("prod", np.prod, x, axis, keepdims)


def norm(x: object, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return _reduction("norm", lambda a, axis, keepdims: np.linalg.norm(
        a, axis=axis, keepdims=keepdims), x, axis, keepdims, flop_per_elem=2.0)


def cumsum(x: object, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    if t.ndim:
        _norm_axis("cumsum", axis, t.ndim)
    return run_op("cumsum", lambda a: np.cumsum(a, axis=axis), [t],
                  flops=float(t.size))


def argmax(x: object, axis: Optional[int] = None) -> Tensor:
    t = as_tensor(x)
    _require_nonempty_reduction("argmax", t.shape, t.size, axis)
    return run_op("argmax", lambda a: np.argmax(a, axis=axis), [t],
                  flops=float(t.size))


# ---------------------------------------------------------------------------
# spectral transforms, circular convolution / correlation (HRR binding)
# ---------------------------------------------------------------------------

def _single_fft_flops(d: int, batch: float) -> float:
    # 5 * d * log2(d) per real transform (standard estimate)
    return batch * 5.0 * d * np.log2(float(d) if d > 1 else 2.0)


def _fft_flops(d: int, batch: float, n_transforms: int = 3) -> float:
    # three transforms (two forward, one inverse) plus the pointwise
    # complex product (6d)
    return n_transforms * _single_fft_flops(d, batch) + batch * 6.0 * d


def _binding_dim(op: str, ta: Tensor, tb: Tensor) -> int:
    """Validated common last-axis extent of a VSA binding pair."""
    if ta.ndim == 0 or tb.ndim == 0:
        raise TensorOpError(f"{op}: operands must be at least 1-d",
                            op_name=op)
    d = ta.shape[-1]
    if d == 0:
        raise TensorOpError(f"{op}: binding dimension is 0", op_name=op)
    if tb.shape[-1] != d:
        raise TensorOpError(
            f"{op}: last-axis extents disagree ({d} vs {tb.shape[-1]})",
            op_name=op)
    return d


def rfft(x: object, axis: int = -1) -> Tensor:
    """Real-to-complex FFT along ``axis`` (5*n*log2(n) FLOPs/transform).

    Category comes from the taxonomy registry (element-wise, matching
    how the paper files the FFT-backed VSA binding algebra).
    """
    t = as_tensor(x)
    norm = _norm_axis("rfft", axis, t.ndim)
    n = t.shape[norm]
    if n == 0:
        raise TensorOpError("rfft: FFT axis has length 0", op_name="rfft")
    batch = t.size / n
    return run_op("rfft", compute=lambda a: np.fft.rfft(a, axis=axis),
                  inputs=[t], flops=_single_fft_flops(n, batch))


def irfft(x: object, n: Optional[int] = None, axis: int = -1) -> Tensor:
    """Complex-to-real inverse FFT along ``axis`` producing ``n`` samples."""
    t = as_tensor(x)
    norm = _norm_axis("irfft", axis, t.ndim)
    half = t.shape[norm]
    length = n if n is not None else 2 * (half - 1)
    if length <= 0:
        raise TensorOpError(
            f"irfft: output length {length} (half-spectrum extent {half}); "
            f"need a positive number of output samples", op_name="irfft")
    batch = t.size / half if half else 0.0
    return run_op("irfft", compute=lambda a: np.fft.irfft(a, n=n, axis=axis),
                  inputs=[t], flops=_single_fft_flops(length, batch))


def circular_conv(a: object, b: object) -> Tensor:
    """Circular convolution (HRR binding) along the last axis, via FFT.

    This is the vector-symbolic binding operator used by NVSA/PrAE; the
    paper classifies it under vector/element-wise tensor operations.
    """
    ta, tb = as_tensor(a), as_tensor(b)
    d = _binding_dim("circular_conv", ta, tb)
    batch = np.prod(np.broadcast_shapes(ta.shape[:-1], tb.shape[:-1]), dtype=float) if (
        ta.ndim > 1 or tb.ndim > 1) else 1.0

    def _compute(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        fx = np.fft.rfft(x, axis=-1)
        fy = np.fft.rfft(y, axis=-1)
        return np.fft.irfft(fx * fy, n=d, axis=-1).astype(x.dtype, copy=False)

    return run_op("circular_conv", _compute, [ta, tb],
                  flops=_fft_flops(d, batch))


def circular_corr(a: object, b: object) -> Tensor:
    """Circular correlation (approximate HRR unbinding) along last axis."""
    ta, tb = as_tensor(a), as_tensor(b)
    d = _binding_dim("circular_corr", ta, tb)
    batch = np.prod(np.broadcast_shapes(ta.shape[:-1], tb.shape[:-1]), dtype=float) if (
        ta.ndim > 1 or tb.ndim > 1) else 1.0

    def _compute(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        fx = np.fft.rfft(x, axis=-1)
        fy = np.fft.rfft(y, axis=-1)
        return np.fft.irfft(np.conj(fx) * fy, n=d, axis=-1).astype(x.dtype, copy=False)

    return run_op("circular_corr", _compute, [ta, tb],
                  flops=_fft_flops(d, batch))


# ---------------------------------------------------------------------------
# data transformation
# ---------------------------------------------------------------------------

def reshape(x: object, shape: Tuple[int, ...]) -> Tensor:
    t = as_tensor(x)
    # reshape of a contiguous array is free: no bytes move
    return run_op("reshape", lambda a: a.reshape(shape), [t],
                  flops=0.0, bytes_written=0, measure_sparsity=False)


def transpose(x: object, axes: Optional[Sequence[int]] = None) -> Tensor:
    t = as_tensor(x)
    return run_op("transpose",
                  lambda a: np.ascontiguousarray(np.transpose(a, axes)),
                  [t], flops=0.0)


def concat(parts: Sequence[object], axis: int = 0) -> Tensor:
    tensors = [as_tensor(p) for p in parts]
    return run_op("concat",
                  lambda *arrs: np.concatenate(arrs, axis=axis),
                  tensors, flops=0.0)


def stack(parts: Sequence[object], axis: int = 0) -> Tensor:
    tensors = [as_tensor(p) for p in parts]
    return run_op("stack", lambda *arrs: np.stack(arrs, axis=axis),
                  tensors, flops=0.0)


def split(x: object, sections: int, axis: int = 0) -> Tuple[Tensor, ...]:
    t = as_tensor(x)
    norm = _norm_axis("split", axis, t.ndim)
    if sections < 1 or t.shape[norm] % sections:
        raise TensorOpError(
            f"split: cannot cut axis {axis} (extent {t.shape[norm]}) "
            f"into {sections} equal sections", op_name="split")
    parts = np.split(t.data, sections, axis=axis)
    out = []
    for part in parts:
        out.append(run_op("split", lambda a, p=part: p.copy(), [t],
                          flops=0.0))
    return tuple(out)


def pad(x: object, pad_width: object, value: float = 0.0) -> Tensor:
    t = as_tensor(x)
    return run_op("pad",
                  lambda a: np.pad(a, pad_width, constant_values=value),
                  [t], flops=0.0)


def take(x: object, indices: object, axis: int = 0) -> Tensor:
    t = as_tensor(x)
    idx = as_tensor(indices)
    norm = _norm_axis("take", axis, t.ndim)
    extent = t.shape[norm]
    if idx.size:
        lo, hi = int(idx.data.min()), int(idx.data.max())
        if lo < -extent or hi >= extent:
            raise TensorOpError(
                f"take: index out of range for axis {axis} of extent "
                f"{extent} (saw [{lo}, {hi}])", op_name="take")
    return run_op("take",
                  lambda a, i: np.take(a, i.astype(np.int64), axis=axis),
                  [t, idx], flops=0.0)


def index(x: object, key: object) -> Tensor:
    t = as_tensor(x)
    return run_op("index", lambda a: np.asarray(a[key]).copy(), [t],
                  flops=0.0)


def masked_select(x: object, mask: object) -> Tensor:
    t, m = as_tensor(x), as_tensor(mask)
    return run_op("masked_select",
                  lambda a, mk: a[mk.astype(bool)], [t, m], flops=0.0)


def broadcast_to(x: object, shape: Tuple[int, ...]) -> Tensor:
    t = as_tensor(x)
    return run_op("broadcast_to",
                  lambda a: np.ascontiguousarray(np.broadcast_to(a, shape)),
                  [t], flops=0.0)


def roll(x: object, shift: int, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    return run_op("roll", lambda a: np.roll(a, shift, axis=axis), [t],
                  flops=0.0)


def flip(x: object, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    return run_op("flip", lambda a: np.ascontiguousarray(np.flip(a, axis=axis)),
                  [t], flops=0.0)


def sort(x: object, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    n = t.shape[axis] if t.ndim else 1
    flops = float(t.size) * np.log2(n if n > 1 else 2)
    return run_op("sort", lambda a: np.sort(a, axis=axis), [t],
                  flops=flops)


def argsort(x: object, axis: int = -1) -> Tensor:
    t = as_tensor(x)
    n = t.shape[axis] if t.ndim else 1
    flops = float(t.size) * np.log2(n if n > 1 else 2)
    return run_op("argsort", lambda a: np.argsort(a, axis=axis), [t],
                  flops=flops)


def coalesce(indices: object, values: object, size: int) -> Tensor:
    """Sum duplicate sparse coordinates into a dense vector of ``size``.

    Mirrors sparse-tensor coalescing (a data-transformation op in the
    paper's taxonomy): duplicate entries for the same coordinate are
    eliminated by summing their values.
    """
    ti, tv = as_tensor(indices), as_tensor(values)
    if size < 0:
        raise TensorOpError(f"coalesce: negative size {size}",
                            op_name="coalesce")
    if ti.size != tv.size:
        raise TensorOpError(
            f"coalesce: {ti.size} indices for {tv.size} values",
            op_name="coalesce")
    if ti.size:
        lo, hi = int(ti.data.min()), int(ti.data.max())
        if lo < 0 or hi >= size:
            raise TensorOpError(
                f"coalesce: coordinate out of range for size {size} "
                f"(saw [{lo}, {hi}])", op_name="coalesce")

    def _compute(idx: np.ndarray, val: np.ndarray) -> np.ndarray:
        out = np.zeros(size, dtype=val.dtype)
        np.add.at(out, idx.astype(np.int64), val)
        return out

    return run_op("coalesce", _compute, [ti, tv], flops=float(tv.size))


def one_hot(indices: object, depth: int, dtype: object = np.float32) -> Tensor:
    t = as_tensor(indices)
    if depth < 1:
        raise TensorOpError(f"one_hot: depth must be >= 1, got {depth}",
                            op_name="one_hot")
    if t.size:
        lo, hi = int(t.data.min()), int(t.data.max())
        if lo < 0 or hi >= depth:
            raise TensorOpError(
                f"one_hot: index out of range for depth {depth} "
                f"(saw [{lo}, {hi}])", op_name="one_hot")

    def _compute(idx: np.ndarray) -> np.ndarray:
        flat = idx.astype(np.int64).reshape(-1)
        out = np.zeros((flat.size, depth), dtype=dtype)
        out[np.arange(flat.size), flat] = 1
        return out.reshape(idx.shape + (depth,))

    return run_op("one_hot", _compute, [t], flops=0.0)


# ---------------------------------------------------------------------------
# data movement
# ---------------------------------------------------------------------------

def copy(x: object) -> Tensor:
    t = as_tensor(x)
    return run_op("copy", lambda a: a.copy(), [t], flops=0.0)


def astype(x: object, dtype: object) -> Tensor:
    t = as_tensor(x)
    return run_op("astype", lambda a: a.astype(dtype), [t], flops=0.0)


def to_device(x: object, device: str = "gpu") -> Tensor:
    """Model a host-to-device transfer (data crosses PCIe/NVLink)."""
    t = as_tensor(x)
    return run_op(f"to_{device}", lambda a: a.copy(), [t], flops=0.0)


def to_host(x: object) -> Tensor:
    """Model a device-to-host transfer."""
    t = as_tensor(x)
    return run_op("to_host", lambda a: a.copy(), [t], flops=0.0)


def assign(x: object) -> Tensor:
    """Tensor duplication/assignment (taxonomy: data movement)."""
    t = as_tensor(x)
    return run_op("assign", lambda a: a.copy(), [t], flops=0.0)


# ---------------------------------------------------------------------------
# fuzzy logic connectives ("Others" category)
# ---------------------------------------------------------------------------

def fuzzy_and(a: object, b: object, kind: str = "lukasiewicz") -> Tensor:
    """T-norm conjunction over truth degrees in [0, 1]."""
    from repro.logic import fuzzy
    fn = fuzzy.t_norm(kind)
    return run_op(f"fuzzy_and[{kind}]", fn,
                  [as_tensor(a), as_tensor(b)], flop_factor=3.0)


def fuzzy_or(a: object, b: object, kind: str = "lukasiewicz") -> Tensor:
    """T-conorm disjunction over truth degrees in [0, 1]."""
    from repro.logic import fuzzy
    fn = fuzzy.t_conorm(kind)
    return run_op(f"fuzzy_or[{kind}]", fn,
                  [as_tensor(a), as_tensor(b)], flop_factor=3.0)


def fuzzy_not(a: object) -> Tensor:
    """Standard fuzzy negation 1 - x."""
    return run_op("fuzzy_not", lambda x: 1.0 - x, [as_tensor(a)],
                  flop_factor=1.0)


def fuzzy_implies(a: object, b: object, kind: str = "lukasiewicz") -> Tensor:
    """Fuzzy residual implication."""
    from repro.logic import fuzzy
    fn = fuzzy.implication(kind)
    return run_op(f"fuzzy_implies[{kind}]", fn,
                  [as_tensor(a), as_tensor(b)], flop_factor=3.0)
