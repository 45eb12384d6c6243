"""Neural-network layers on the instrumented tensor runtime.

Inference-focused (the paper profiles inference): each layer is a
callable ``Module`` whose forward pass routes through
:mod:`repro.tensor.ops`, so every kernel lands in the trace with the
correct operator category — convolutions as *convolution*, linear
layers as *matmul*, activations/normalization/pooling as
*vector/element-wise*, flatten/reshape as *data transformation*.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import tensor as T
from repro.nn.init import kaiming, rng_for, xavier
from repro.tensor.dispatch import run_op
from repro.tensor.errors import TensorOpError
from repro.tensor.tensor import Tensor


class Module:
    """Base class: a parametric callable with parameter enumeration."""

    def parameters(self) -> List[np.ndarray]:
        """All parameter arrays owned by this module (recursively)."""
        out: List[np.ndarray] = []
        for value in self.__dict__.values():
            if isinstance(value, np.ndarray):
                out.append(value)
            elif isinstance(value, Module):
                out.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        out.extend(item.parameters())
        return out

    @property
    def num_parameters(self) -> int:
        return sum(int(p.size) for p in self.parameters())

    @property
    def parameter_bytes(self) -> int:
        return sum(int(p.nbytes) for p in self.parameters())

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError


class Linear(Module):
    """Fully-connected layer: ``y = x @ W^T + b``.

    Recorded as a single GEMM event with the bias fused in — matching
    how BLAS libraries execute fully-connected layers (sgemm with a
    bias epilogue), which is what a kernel-level profiler attributes.
    """

    def __init__(self, in_features: int, out_features: int, seed: int = 0,
                 bias: bool = True):
        self.in_features = in_features
        self.out_features = out_features
        rng = rng_for(seed)
        self.weight = kaiming(rng, (out_features, in_features), in_features)
        self.bias: Optional[np.ndarray] = (
            np.zeros(out_features, dtype=np.float32) if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        weight_t = self.weight.T
        rows = int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1
        flops = 2.0 * rows * self.in_features * self.out_features
        inputs = [x, T.tensor(weight_t)]
        bias = self.bias
        if bias is not None:
            flops += rows * self.out_features
            inputs.append(T.tensor(bias))

        def _compute(a: np.ndarray, w: np.ndarray,
                     b: Optional[np.ndarray] = None) -> np.ndarray:
            out = a @ w
            if b is not None:
                if np.result_type(out, b) == out.dtype:
                    out += b
                else:            # a wider bias widens the sum
                    out = out + b
            return out

        return run_op("linear", _compute, inputs, flops=flops)


class Conv2d(Module):
    """2-D convolution over NCHW inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, seed: int = 0,
                 bias: bool = True):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng_for(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = kaiming(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        self.bias: Optional[np.ndarray] = (
            np.zeros(out_channels, dtype=np.float32) if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, T.tensor(self.weight),
                        T.tensor(self.bias) if self.bias is not None else None,
                        stride=self.stride, padding=self.padding)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return T.relu(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return T.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return T.tanh(x)


class Softmax(Module):
    def __init__(self, axis: int = -1):
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return T.softmax(x, axis=self.axis)


class BatchNorm2d(Module):
    """Inference batch norm: per-channel affine scale and shift."""

    def __init__(self, channels: int, seed: int = 0):
        rng = rng_for(seed)
        self.gamma = rng.uniform(0.8, 1.2, channels).astype(np.float32)
        self.beta = rng.normal(0.0, 0.05, channels).astype(np.float32)
        self.running_mean = rng.normal(0.0, 0.1, channels).astype(np.float32)
        self.running_var = rng.uniform(0.5, 1.5, channels).astype(np.float32)

    def forward(self, x: Tensor) -> Tensor:
        c = self.gamma.size
        scale = (self.gamma / np.sqrt(self.running_var + 1e-5)).reshape(1, c, 1, 1)
        shift = (self.beta - self.running_mean * scale.reshape(c)).reshape(1, c, 1, 1)

        def _compute(a: np.ndarray) -> np.ndarray:
            out = a * scale
            out += shift
            return out

        return run_op("batchnorm2d", _compute, [x],
                      flop_factor=2.0, extra_bytes_read=scale.nbytes + shift.nbytes)


def _pool_output_hw(op: str, x: Tensor, k: int, s: int) -> Tuple[int, int]:
    """Validated output height and width of a k x k, stride-s pooling."""
    if k < 1 or s < 1:
        raise TensorOpError(
            f"{op}: kernel size and stride must be >= 1, got {k} and {s}",
            op_name=op)
    if x.ndim != 4:
        raise TensorOpError(
            f"{op}: expected an NCHW input, got rank {x.ndim}", op_name=op)
    h, w = x.shape[2], x.shape[3]
    if k > h or k > w:
        raise TensorOpError(
            f"{op}: {k}x{k} window is larger than the {h}x{w} input",
            op_name=op)
    return (h - k) // s + 1, (w - k) // s + 1


class MaxPool2d(Module):
    """Max pooling over NCHW inputs (a strided window reduction).

    A running maximum over the k*k strided slices of the input,
    bit-identical to :func:`repro.tensor.reference.maxpool2d`.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        k, s = self.kernel_size, self.stride
        ho, wo = _pool_output_hw("maxpool2d", x, k, s)
        span_h, span_w = s * (ho - 1) + 1, s * (wo - 1) + 1

        def _compute(a: np.ndarray) -> np.ndarray:
            out = a[:, :, :span_h:s, :span_w:s].copy()
            for i in range(k):
                for j in range(k):
                    if i or j:
                        np.maximum(out, a[:, :, i:i + span_h:s, j:j + span_w:s],
                                   out=out)
            return out

        out_elems = x.shape[0] * x.shape[1] * ho * wo
        return run_op("maxpool2d", _compute, [x],
                      flops=float(out_elems * k * k))


class AvgPool2d(Module):
    """Average pooling over NCHW inputs."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        k, s = self.kernel_size, self.stride
        ho, wo = _pool_output_hw("avgpool2d", x, k, s)

        def _compute(a: np.ndarray) -> np.ndarray:
            windows = np.lib.stride_tricks.sliding_window_view(
                a, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            return windows.mean(axis=(-2, -1))

        out_elems = x.shape[0] * x.shape[1] * ho * wo
        return run_op("avgpool2d", _compute, [x],
                      flops=float(out_elems * k * k))


class GlobalAvgPool(Module):
    """Mean over spatial dims, producing (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return run_op("global_avgpool", lambda a: a.mean(axis=(2, 3)), [x],
                      flops=float(x.size))


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        return T.reshape(x, (n, -1))


class Sequential(Module):
    """Ordered composition of modules."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


class Residual(Module):
    """Residual wrapper: ``y = x + inner(x)``."""

    def __init__(self, inner: Module):
        self.inner = inner

    def forward(self, x: Tensor) -> Tensor:
        return T.add(x, self.inner(x))


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations."""

    def __init__(self, sizes: Sequence[int], seed: int = 0,
                 final_activation: Optional[str] = None):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [
            Linear(sizes[i], sizes[i + 1], seed=seed + i)
            for i in range(len(sizes) - 1)
        ]
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = T.relu(x)
        if self.final_activation == "sigmoid":
            x = T.sigmoid(x)
        elif self.final_activation == "softmax":
            x = T.softmax(x)
        elif self.final_activation == "tanh":
            x = T.tanh(x)
        return x


def conv_block(in_ch: int, out_ch: int, seed: int = 0, stride: int = 1,
               kernel_size: int = 3) -> Sequential:
    """Conv -> BatchNorm -> ReLU, the standard perception building block."""
    padding = kernel_size // 2
    return Sequential(
        Conv2d(in_ch, out_ch, kernel_size, stride=stride, padding=padding,
               seed=seed),
        BatchNorm2d(out_ch, seed=seed + 1),
        ReLU(),
    )


def small_convnet(in_channels: int, num_classes: int, seed: int = 0,
                  widths: Tuple[int, ...] = (32, 64, 128)) -> Sequential:
    """A compact perception ConvNet (NVSA/PrAE-frontend-like)."""
    blocks: List[Module] = []
    ch = in_channels
    for i, width in enumerate(widths):
        blocks.append(conv_block(ch, width, seed=seed + 10 * i))
        blocks.append(MaxPool2d(2))
        ch = width
    blocks.append(GlobalAvgPool())
    blocks.append(Linear(ch, num_classes, seed=seed + 1000))
    return Sequential(*blocks)
