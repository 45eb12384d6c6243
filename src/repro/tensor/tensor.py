"""The :class:`Tensor` wrapper used by the instrumented runtime.

A ``Tensor`` is a thin, immutable-by-convention wrapper around a numpy
array that remembers which trace event produced it (``producer``).
Producer links let the dispatcher reconstruct the operation-dependency
DAG (Fig. 4) without any workload cooperation.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.tensor.context import Tracked, active_context

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]


class Tensor(Tracked):
    """Numpy array + provenance (the trace event id that produced it).

    Made under a profiling context, its bytes count as live until it
    is freed (:class:`~repro.tensor.context.Tracked`); ``_track=False``
    leaves that to the caller.
    """

    __slots__ = ("data", "producer", "_live")

    def __init__(self, data: np.ndarray, producer: Optional[int] = None,
                 _track: bool = True):
        self._live = None
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        self.data = data
        self.producer = producer
        if _track:
            ctx = active_context()
            if ctx is not None:
                self._live = ctx.track_allocation(data.nbytes)

    def __reduce__(self) -> tuple:
        # copies and unpickled tensors are untracked
        return (Tensor, (self.data, self.producer, False))

    # -- basic introspection ---------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return self.data.item()

    def tolist(self) -> list:
        return self.data.tolist()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    # -- operator sugar (delegates to the instrumented ops module) -------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops
        return ops.neg(self)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops
        return ops.matmul(self, other)

    def __getitem__(self, key: object) -> "Tensor":
        from repro.tensor import ops
        return ops.index(self, key)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.tensor import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        from repro.tensor import ops
        return ops.transpose(self, axes if axes else None)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops
        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops
        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops
        return ops.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops
        return ops.min(self, axis=axis, keepdims=keepdims)

    def copy(self) -> "Tensor":
        from repro.tensor import ops
        return ops.copy(self)

    def astype(self, dtype: object) -> "Tensor":
        from repro.tensor import ops
        return ops.astype(self, dtype)


def as_tensor(value: ArrayLike, dtype: Optional[object] = None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no event is recorded)."""
    if isinstance(value, Tensor):
        if dtype is not None and value.dtype != np.dtype(dtype):
            return Tensor(value.data.astype(dtype), producer=value.producer)
        return value
    arr = np.asarray(value, dtype=dtype)
    return Tensor(arr)
