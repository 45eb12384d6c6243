"""What-if models for the paper's cross-layer recommendations.

The paper closes each characterization section with an optimization
recommendation (Sec. V).  This module makes them quantitative: each
what-if transforms either the *device model* or the *trace* and the
standard latency projection measures the effect.

* Rec. 2/6 (architecture) — :func:`symbolic_accelerator`: a custom
  vector-symbolic/logic processing unit raises the sustained
  efficiency of element-wise, transform and "Others" categories and
  cuts per-kernel launch overhead (fused dispatch).
* Rec. 3 (algorithm) — :func:`quantize_trace` (model compression:
  bytes scale with precision) and :func:`prune_trace` (sparsity-aware
  execution: FLOPs and bytes of highly-sparse outputs shrink with
  their measured sparsity).
* Rec. 4 (technology) — :func:`compute_in_memory`: CIM executes
  low-intensity symbolic categories inside the memory arrays,
  multiplying the bandwidth those categories can draw.
* Rec. 5 (system) — :func:`parallel_schedule_bound`: adaptive
  neural/symbolic co-scheduling is bounded by the operation graph's
  latency-weighted critical path; the function returns the achievable
  speedup bound.
* Rec. 6 (NoC) — :func:`scale_bandwidth`: a higher-bandwidth
  NoC/memory system scales the DRAM roof.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional

from repro.core.profiler import Trace
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace

#: categories a symbolic processing unit accelerates
SYMBOLIC_CATEGORIES = (OpCategory.ELEMENTWISE, OpCategory.TRANSFORM,
                       OpCategory.OTHER)


def _replace_efficiencies(device: DeviceSpec, name: str,
                          compute: Dict[OpCategory, float],
                          memory: Dict[OpCategory, float],
                          launch_overhead: Optional[float] = None,
                          dram_bandwidth: Optional[float] = None
                          ) -> DeviceSpec:
    return dataclasses.replace(
        device,
        name=name,
        category_efficiency=compute,
        memory_efficiency=memory,
        kernel_launch_overhead=(device.kernel_launch_overhead
                                if launch_overhead is None
                                else launch_overhead),
        dram_bandwidth=(device.dram_bandwidth if dram_bandwidth is None
                        else dram_bandwidth),
    )


def symbolic_accelerator(device: DeviceSpec,
                         compute_boost: float = 8.0,
                         launch_reduction: float = 10.0) -> DeviceSpec:
    """Rec. 2/6: custom processing units for symbolic operations.

    Raises the sustained compute efficiency of the symbolic categories
    (capped at the GEMM efficiency — a dedicated unit can at best be as
    well-utilized as a systolic GEMM array) and divides the kernel
    launch overhead (fused/streamed dispatch of the many small symbolic
    kernels).
    """
    if compute_boost < 1.0 or launch_reduction < 1.0:
        raise ValueError("boosts must be >= 1")
    cap = max(device.category_efficiency.values())
    compute = dict(device.category_efficiency)
    memory = dict(device.memory_efficiency)
    for category in SYMBOLIC_CATEGORIES:
        compute[category] = min(cap, compute[category] * compute_boost)
        memory[category] = min(0.9, memory[category] * 1.5)
    return _replace_efficiencies(
        device, f"{device.name} + symbolic unit", compute, memory,
        launch_overhead=device.kernel_launch_overhead / launch_reduction)


def compute_in_memory(device: DeviceSpec,
                      bandwidth_multiplier: float = 8.0) -> DeviceSpec:
    """Rec. 4: CIM arrays execute low-intensity symbolic ops in place,
    multiplying the bandwidth available to those categories (modeled
    as memory-efficiency values above 1: the op draws more than the
    DRAM pin bandwidth because the movement never leaves the array)."""
    if bandwidth_multiplier < 1.0:
        raise ValueError("bandwidth multiplier must be >= 1")
    memory = dict(device.memory_efficiency)
    for category in SYMBOLIC_CATEGORIES:
        memory[category] = memory[category] * bandwidth_multiplier
    return _replace_efficiencies(
        device, f"{device.name} + CIM", dict(device.category_efficiency),
        memory)


def scale_bandwidth(device: DeviceSpec, factor: float) -> DeviceSpec:
    """Rec. 6: a higher-bandwidth NoC/memory system."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    return _replace_efficiencies(
        device, f"{device.name} x{factor:g} BW",
        dict(device.category_efficiency), dict(device.memory_efficiency),
        dram_bandwidth=device.dram_bandwidth * factor)


def quantize_trace(trace: Trace, bits: int = 8) -> Trace:
    """Rec. 3 (compression): re-express the trace at reduced precision.

    Bytes scale by ``bits/32`` (FP32 baseline); FLOP counts are
    unchanged (the same arithmetic occurs at lower precision).
    """
    if bits <= 0 or bits > 32:
        raise ValueError("bits must be in (0, 32]")
    scale = bits / 32.0
    out = Trace(f"{trace.workload}@int{bits}")
    out.metadata = dict(trace.metadata)
    for event in trace:
        out.append(event._replace(
            bytes_read=int(event.bytes_read * scale),
            bytes_written=int(event.bytes_written * scale),
        ))
    return out


def prune_trace(trace: Trace, min_sparsity: float = 0.5) -> Trace:
    """Rec. 3/7 (sparsity-aware execution): events whose outputs are
    measured to be at least ``min_sparsity`` sparse execute only their
    dense fraction of FLOPs and write traffic."""
    if not 0.0 <= min_sparsity <= 1.0:
        raise ValueError("min_sparsity must be in [0, 1]")
    out = Trace(f"{trace.workload}+pruned")
    out.metadata = dict(trace.metadata)
    for event in trace:
        if event.output_sparsity >= min_sparsity:
            dense = 1.0 - event.output_sparsity
            event = event._replace(
                flops=event.flops * dense,
                bytes_written=int(event.bytes_written * dense),
            )
        out.append(event)
    return out


def parallel_schedule_bound(trace: Trace, device: DeviceSpec) -> float:
    """Rec. 5: the speedup bound of adaptive neural/symbolic
    co-scheduling — serial time over the operation graph's
    latency-weighted critical path."""
    from repro.core.opgraph import analyze_graph
    report = analyze_graph(project_trace(trace, device))
    if report.critical_path_time <= 0:
        return 1.0
    return report.total_time / report.critical_path_time
