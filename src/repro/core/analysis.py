"""Latency and operator-category breakdowns (Figs. 2a and 3a).

These functions take one :class:`~repro.hwsim.latency.ProjectedTrace`
(a trace projected onto a device, computed once by the caller) and
produce the paper's two headline decompositions:

* :func:`latency_breakdown` — projected end-to-end latency split into
  neural vs. symbolic phases (Fig. 2a) and into fine-grained stages;
* :func:`operator_breakdown` — per-phase runtime share across the six
  operator categories of the Sec. IV-B taxonomy (Fig. 3a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columns import seq_sum, sums_by
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace
from repro.core.taxonomy import CATEGORY_ORDER, OpCategory
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import ProjectedTrace, project_trace


@dataclass
class LatencyBreakdown:
    """Fig. 2a row: one workload's projected latency decomposition."""

    workload: str
    device: str
    total_time: float
    phase_times: Dict[str, float]
    stage_times: Dict[str, float]
    event_counts: Dict[str, int]

    @property
    def neural_fraction(self) -> float:
        return self.phase_times.get(PHASE_NEURAL, 0.0) / self.total_time \
            if self.total_time else 0.0

    @property
    def symbolic_fraction(self) -> float:
        return self.phase_times.get(PHASE_SYMBOLIC, 0.0) / self.total_time \
            if self.total_time else 0.0


def latency_breakdown(projected: ProjectedTrace) -> LatencyBreakdown:
    """Decompose a projected trace's latency by phase and stage."""
    cols = projected.columns
    counts = np.bincount(cols.phase, minlength=len(cols.phases)).tolist()
    return LatencyBreakdown(
        workload=projected.trace.workload,
        device=projected.device.name,
        total_time=projected.total_time,
        phase_times=projected.time_by_phase(),
        stage_times=projected.time_by_stage(),
        event_counts=dict(zip(cols.phases, counts)),
    )


@dataclass
class OperatorBreakdown:
    """Fig. 3a row: category shares of one workload phase."""

    workload: str
    phase: str
    total_time: float
    category_times: Dict[OpCategory, float]

    def share(self, category: OpCategory) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.category_times.get(category, 0.0) / self.total_time

    def shares(self) -> Dict[OpCategory, float]:
        return {cat: self.share(cat) for cat in CATEGORY_ORDER}

    @property
    def dominant_category(self) -> OpCategory:
        return max(CATEGORY_ORDER, key=self.share)


def operator_breakdown(projected: ProjectedTrace,
                       phases: Optional[Sequence[str]] = None
                       ) -> List[OperatorBreakdown]:
    """Category runtime shares per phase (Fig. 3a)."""
    trace = projected.trace
    if phases is None:
        phases = [p for p in projected.columns.phases if p]
    out: List[OperatorBreakdown] = []
    for phase in phases:
        cat_times = projected.time_by_category(phase)
        total = seq_sum(np.fromiter(cat_times.values(), np.float64))
        out.append(OperatorBreakdown(
            workload=trace.workload, phase=phase,
            total_time=total, category_times=cat_times))
    return out


def phase_compute_utilization(trace: Trace,
                              device: DeviceSpec) -> Dict[str, float]:
    """Achieved FLOP rate over device peak, per phase (Fig. 4's
    utilization contrast: neural windows keep the ALUs busy, symbolic
    windows leave them nearly idle)."""
    projected = project_trace(trace, device)
    cols = projected.columns
    k = len(cols.phases)
    flops = sums_by(cols.phase, cols.flops, k)
    time = sums_by(cols.phase, projected.total, k)
    return {
        phase: (flops[i] / (time[i] * device.peak_flops)
                if time[i] > 0 else 0.0)
        for i, phase in enumerate(cols.phases)
    }


def flops_breakdown(trace: Trace) -> Dict[str, float]:
    """FLOP share per phase — the paper's observation that NVSA's
    symbolic phase takes 92% of time but only ~19% of FLOPs."""
    cols = trace.columns
    per_phase = dict(zip(cols.phases, sums_by(cols.phase, cols.flops,
                                              len(cols.phases))))
    total = seq_sum(np.fromiter(per_phase.values(), np.float64))
    if total <= 0:
        return {phase: 0.0 for phase in per_phase}
    return {phase: flops / total for phase, flops in per_phase.items()}
