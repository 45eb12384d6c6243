"""Analytic latency projection of traces onto devices.

Replaces the paper's wall-clock measurement: each trace event is
projected onto a :class:`~repro.hwsim.device.DeviceSpec` with a
roofline-style model,

    t = max(flops / (peak * eff_c), bytes / (bw * eff_m)) + launch,

where ``eff_c`` is the category- and size-dependent sustained compute
efficiency (GEMM/conv near peak; vector-symbolic, transform and logic
ops far below it) and ``eff_m`` the sustained bandwidth fraction of the
category's access pattern.  Host<->device transfer ops (``to_gpu`` /
``to_host``) are charged to the PCIe link instead of DRAM.

The projection makes the paper's core asymmetry emerge from first
principles: symbolic events have low arithmetic intensity, so their
projected time is bandwidth-dominated, while neural GEMM/conv events
are compute-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec


@dataclass
class EventCost:
    """Projected execution cost of one event on one device.

    ``total`` is computed once, when the cost is built: every view of
    a :class:`ProjectedTrace` reads it, several times per event.
    """

    event: TraceEvent
    compute_time: float
    memory_time: float
    overhead: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        self.total = max(self.compute_time, self.memory_time) + self.overhead

    @property
    def bound(self) -> str:
        """``"compute"`` or ``"memory"`` — which roof limits the event."""
        return "compute" if self.compute_time >= self.memory_time else "memory"

    @property
    def achieved_flops_rate(self) -> float:
        """FLOP/s actually sustained under the projection."""
        total = self.total
        if total <= 0:
            return 0.0
        return self.event.flops / total


class ProjectedTrace:
    """A trace with per-event latency projections for one device."""

    def __init__(self, trace: Trace, device: DeviceSpec,
                 costs: Sequence[EventCost]):
        self.trace = trace
        self.device = device
        self.costs = list(costs)

    @property
    def total_time(self) -> float:
        return sum(c.total for c in self.costs)

    def time_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for cost in self.costs:
            phase = cost.event.phase
            out[phase] = out.get(phase, 0.0) + cost.total
        return out

    def time_by_stage(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for cost in self.costs:
            stage = cost.event.stage or "<untagged>"
            out[stage] = out.get(stage, 0.0) + cost.total
        return out

    def time_by_category(self, phase: Optional[str] = None) -> Dict[OpCategory, float]:
        out: Dict[OpCategory, float] = {}
        for cost in self.costs:
            if phase is not None and cost.event.phase != phase:
                continue
            cat = cost.event.category
            out[cat] = out.get(cat, 0.0) + cost.total
        return out

    def memory_bound_fraction(self, phase: Optional[str] = None) -> float:
        """Fraction of projected time spent in memory-bound events."""
        total = 0.0
        bound = 0.0
        for cost in self.costs:
            if phase is not None and cost.event.phase != phase:
                continue
            total += cost.total
            if cost.bound == "memory":
                bound += cost.total
        return bound / total if total > 0 else 0.0


def project_event(event: TraceEvent, device: DeviceSpec) -> EventCost:
    """Project one event's latency onto ``device``."""
    eff_c = device.compute_efficiency(event.category, event.flops)
    compute_time = (event.flops / (device.peak_flops * eff_c)
                    if event.flops > 0 and eff_c > 0 else 0.0)

    is_host_transfer = (event.category is OpCategory.MOVEMENT
                        and event.name.startswith(("to_gpu", "to_host",
                                                   "to_device")))
    if is_host_transfer and device.host_transfer_bandwidth > 0:
        memory_time = event.total_bytes / device.host_transfer_bandwidth
    else:
        eff_m = device.bandwidth_efficiency(event.category)
        memory_time = (event.total_bytes / (device.dram_bandwidth * eff_m)
                       if event.total_bytes > 0 and eff_m > 0 else 0.0)

    return EventCost(event, compute_time, memory_time,
                     device.kernel_launch_overhead)


def project_trace(trace: Trace, device: DeviceSpec) -> ProjectedTrace:
    """Project a whole trace onto ``device``."""
    costs = [project_event(e, device) for e in trace]
    return ProjectedTrace(trace, device, costs)
