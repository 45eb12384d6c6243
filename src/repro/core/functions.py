"""Function-level profiling views (paper Sec. IV-A).

The paper's methodology starts with "function-level profiling to
capture statistics such as runtime, memory, invocation counts, tensor
sizes, and sparsity of each model".  This module renders exactly that:
a per-op-name aggregation table (the PyTorch-Profiler ``key_averages``
equivalent) plus a ``chrome://tracing`` exporter for timeline
inspection.
"""

from __future__ import annotations

import json
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
    projected = project_trace(trace, device)
    buckets: Dict[str, FunctionStats] = {}
    for cost in projected.costs:
        event = cost.event
        if phase is not None and event.phase != phase:
            continue
        stats = buckets.get(event.name)
        elements = int(np.prod(event.output_shape)) \
            if event.output_shape else 0
        if stats is None:
            buckets[event.name] = FunctionStats(
                name=event.name, category=event.category, calls=1,
                total_time=cost.total, total_flops=event.flops,
                total_bytes=event.total_bytes,
                max_output_elements=elements,
                mean_sparsity=event.output_sparsity)
        else:
            n = stats.calls
            stats.calls += 1
            stats.total_time += cost.total
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


def to_chrome_trace(trace: Trace, device: DeviceSpec) -> str:
    """Serialize to the chrome://tracing JSON format.

    Events are laid out serially on a per-phase track using projected
    durations; load the output in chrome://tracing or Perfetto.
    """
    projected = project_trace(trace, device)
    tracks: Dict[str, int] = {}
    cursors: Dict[str, float] = {}
    events: List[dict] = []
    for cost in projected.costs:
        event = cost.event
        phase = event.phase or "untagged"
        tid = tracks.setdefault(phase, len(tracks) + 1)
        start = cursors.get(phase, 0.0)
        duration_us = cost.total * 1e6
        events.append({
            "name": event.name,
            "cat": event.category.value,
            "ph": "X",
            "ts": start,
            "dur": duration_us,
            "pid": 1,
            "tid": tid,
            "args": {
                "stage": event.stage,
                "flops": event.flops,
                "bytes": event.total_bytes,
                "shape": list(event.output_shape),
                "sparsity": round(event.output_sparsity, 4),
            },
        })
        cursors[phase] = start + duration_us
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": phase}}
        for phase, tid in tracks.items()
    ]
    return json.dumps({"traceEvents": metadata + events,
                       "displayTimeUnit": "ms"})
