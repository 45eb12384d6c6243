"""Function-level profiling views (paper Sec. IV-A).

The paper's methodology starts with "function-level profiling to
capture statistics such as runtime, memory, invocation counts, tensor
sizes, and sparsity of each model".  This module renders exactly that:
a per-op-name aggregation table (the PyTorch-Profiler ``key_averages``
equivalent) over the trace's device projection; its times are
modeled.  The measured timeline is ``repro trace export W --format
chrome`` (:mod:`repro.obs.chrome`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.profiler import Trace
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace


@dataclass
class FunctionStats:
    """Aggregated statistics of one op name (one 'function')."""

    name: str
    category: OpCategory
    calls: int
    total_time: float
    total_flops: float
    total_bytes: int
    max_output_elements: int
    mean_sparsity: float

    @property
    def mean_time(self) -> float:
        return self.total_time / self.calls if self.calls else 0.0


def function_table(trace: Trace, device: DeviceSpec,
                   phase: Optional[str] = None) -> List[FunctionStats]:
    """Aggregate the trace per op name, by descending total time."""
    totals = project_trace(trace, device).total.tolist()
    buckets: Dict[str, FunctionStats] = {}
    for event, total in zip(trace, totals):
        if phase is not None and event.phase != phase:
            continue
        stats = buckets.get(event.name)
        elements = int(np.prod(event.output_shape)) \
            if event.output_shape else 0
        if stats is None:
            buckets[event.name] = FunctionStats(
                name=event.name, category=event.category, calls=1,
                total_time=total, total_flops=event.flops,
                total_bytes=event.total_bytes,
                max_output_elements=elements,
                mean_sparsity=event.output_sparsity)
        else:
            n = stats.calls
            stats.calls += 1
            stats.total_time += total
            stats.total_flops += event.flops
            stats.total_bytes += event.total_bytes
            stats.max_output_elements = max(stats.max_output_elements,
                                            elements)
            stats.mean_sparsity = (stats.mean_sparsity * n
                                   + event.output_sparsity) / (n + 1)
    return sorted(buckets.values(), key=lambda s: s.total_time,
                  reverse=True)


def render_function_table(stats: List[FunctionStats],
                          top: int = 15) -> str:
    """Text rendering (the profiler's key-averages table)."""
    from repro.core.report import format_bytes, format_time, render_table
    rows = []
    for s in stats[:top]:
        rows.append([s.name, s.category.value, s.calls,
                     format_time(s.total_time), format_time(s.mean_time),
                     f"{s.total_flops:.3g}", format_bytes(s.total_bytes),
                     f"{s.mean_sparsity * 100:.0f}%"])
    return render_table(
        ["op", "category", "calls", "total time", "mean time", "FLOPs",
         "bytes", "sparsity"],
        rows, title="function-level statistics")
