"""Workload interface, Table III metadata, and the workload registry.

Every characterized model implements :class:`Workload`:

* ``build()`` constructs parameters/datasets (outside profiling);
* ``run()`` executes one inference, tagging tensor ops with
  ``T.phase("neural")`` / ``T.phase("symbolic")`` and fine-grained
  ``T.stage(...)`` labels;
* ``profile()`` wraps ``run()`` in a fresh profiling context and
  returns the trace (with workload metadata attached).

The registry maps short names (``lnn``, ``ltn``, ``nvsa``, ``nlm``,
``vsait``, ``zeroc``, ``prae``) to factories so the characterization
suite and benchmarks can instantiate the full roster generically.
"""

from __future__ import annotations

import abc
import argparse
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import tensor as T
from repro.core.profiler import Trace
from repro.core.taxonomy import NSParadigm
from repro.obs.spans import span as _span
from repro.tensor.tensor import Tensor


def calibrate(tensor: Tensor, target: "np.ndarray",
              blend: float) -> Tensor:
    """Blend a model output with ground truth, *outside* the trace.

    Several workloads emulate trained models by mixing untrained-model
    outputs with generated ground truth (DESIGN.md).  That mixing is
    calibration of the reproduction, not workload compute, so it is
    performed on raw arrays and inherits the model output's provenance
    instead of emitting trace events.
    """
    data = (blend * np.asarray(target, dtype=np.float32)
            + (1.0 - blend) * tensor.numpy().astype(np.float32))
    return Tensor(data, producer=tensor.producer)


@dataclass(frozen=True)
class WorkloadInfo:
    """One column of Table III."""

    name: str
    full_name: str
    paradigm: NSParadigm
    learning_approach: str
    application: str
    advantage: str
    datasets: Tuple[str, ...]
    datatype: str
    neural_workload: str
    symbolic_workload: str


class Workload(abc.ABC):
    """A profiled neuro-symbolic model."""

    info: WorkloadInfo

    def __init__(self, **params: Any):
        self.params: Dict[str, Any] = dict(params)
        self._built = False

    # -- lifecycle -----------------------------------------------------------
    def build(self) -> None:
        """Construct models and data (idempotent; not profiled).

        Construction is outside the op trace but inside the span
        timeline: when tracing is active the whole build appears as a
        ``build`` span, so setup cost is visible without polluting the
        characterization counters.
        """
        if not self._built:
            with _span("build", workload=self.info.name):
                self._build()
            self._built = True

    @abc.abstractmethod
    def _build(self) -> None:
        ...

    @abc.abstractmethod
    def run(self) -> Dict[str, Any]:
        """Execute one inference; returns a result summary dict.

        Must tag phases with ``T.phase`` and stages with ``T.stage``.
        """
        ...

    # -- profiling -----------------------------------------------------------
    def profile(self) -> Trace:
        """Run under a fresh profiling context; returns the trace."""
        self.build()
        with T.profile(self.info.name) as prof:
            result = self.run()
        trace = prof.trace
        trace.metadata.update(self.params)
        trace.metadata["result"] = result
        trace.metadata["peak_live_bytes"] = prof.peak_live_bytes
        trace.metadata["parameter_bytes"] = self.parameter_bytes()
        trace.metadata["codebook_bytes"] = self.codebook_bytes()
        return trace

    # -- memory accounting -----------------------------------------------------
    def parameter_bytes(self) -> int:
        """Bytes of neural parameters (weights); Fig. 3b footprint."""
        return 0

    def codebook_bytes(self) -> int:
        """Bytes of symbolic codebooks/knowledge; Fig. 3b footprint."""
        return 0


WorkloadFactory = Callable[..., Workload]

_REGISTRY: Dict[str, WorkloadFactory] = {}


def register(name: str) -> Callable[[WorkloadFactory], WorkloadFactory]:
    """Class decorator registering a workload under ``name``."""
    def decorator(factory: WorkloadFactory) -> WorkloadFactory:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"workload {key!r} already registered")
        _REGISTRY[key] = factory
        return factory
    return decorator


def create(name: str, **params: Any) -> Workload:
    """Instantiate a registered workload by short name."""
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(**params)


def available() -> List[str]:
    """Registered workload names, in registration order."""
    return list(_REGISTRY)


def workload_arg(value: str) -> str:
    """The argparse ``type=`` of every workload positional.

    Returns ``value`` as given when it names a registered workload;
    anything else is a usage error (exit 2) naming the bad value and
    the registry, before any work and never a ``KeyError`` traceback.
    """
    if value not in _REGISTRY:
        raise argparse.ArgumentTypeError(
            f"unknown workload {value!r}; available: {available()}")
    return value


def all_infos() -> List[WorkloadInfo]:
    """Table III rows for every registered workload."""
    return [factory.info for factory in _REGISTRY.values()]  # type: ignore[attr-defined]
