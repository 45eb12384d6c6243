"""Roofline placement of workload components (Fig. 3c).

Wraps :mod:`repro.hwsim.roofline` with the Fig. 3c presentation: one
point per (workload, phase) on the chosen device's roofline, plus the
paper's headline check — neural components compute-bound, symbolic
components memory-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import ProjectedTrace
from repro.hwsim.roofline import RooflinePoint, roofline_points


@dataclass
class RooflineFigure:
    """All points of a Fig. 3c-style plot."""

    device: str
    ridge_point: float
    points: List[RooflinePoint]

    def by_label(self) -> Dict[str, RooflinePoint]:
        return {p.label: p for p in self.points}


def roofline_figure(traces: Sequence[Trace],
                    device: DeviceSpec) -> RooflineFigure:
    """One roofline point per (workload, phase)."""
    points: List[RooflinePoint] = []
    for trace in traces:
        for point in roofline_points(trace, device, group_by="phase"):
            point.label = f"{trace.workload}:{point.label}"
            points.append(point)
    return RooflineFigure(device=device.name,
                          ridge_point=device.ridge_point,
                          points=points)


def phase_boundedness(projected: ProjectedTrace) -> Dict[str, str]:
    """{phase: 'compute'|'memory'} for one workload (Takeaway 4).

    Time-weighted: a phase is memory-bound when more than half of its
    projected runtime is spent in events whose memory roof exceeds the
    compute roof.  (A single aggregate OI point can misclassify a phase
    whose time is dominated by a few high-intensity kernels.)
    """
    out: Dict[str, str] = {}
    for phase in projected.columns.phases:
        if not phase:
            continue
        fraction = projected.memory_bound_fraction(phase)
        out[phase] = "memory" if fraction > 0.5 else "compute"
    return out
