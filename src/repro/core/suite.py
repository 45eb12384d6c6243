"""One-call characterization: the suite's public entry point.

``characterize(workload)`` runs the model under the profiler, validates
the trace, and produces every per-workload view the paper reports:
latency split, operator-category split, memory profile, roofline
boundedness, operation-graph structure, sparsity, and hardware
inefficiency context.  For the whole Table III roster, use
:func:`repro.resilience.run_roster`, which degrades instead of
aborting when one workload breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.analysis import (LatencyBreakdown, OperatorBreakdown,
                                 flops_breakdown, latency_breakdown,
                                 operator_breakdown)
from repro.core.memory import MemoryProfile, memory_profile
from repro.core.opgraph import OpGraphReport, analyze_graph
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace
from repro.core.report import format_bytes, format_time, render_shares, render_table
from repro.core.rooflineplot import phase_boundedness
from repro.core.sparsity import StageSparsity, stage_sparsity
from repro.core.taxonomy import CATEGORY_ORDER
from repro.core.validate import validate_trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.hwsim.latency import project_trace

if False:  # typing-only import; runtime import is deferred (cycle)
    from repro.workloads.base import Workload  # pragma: no cover


@dataclass
class WorkloadReport:
    """Everything the suite knows about one workload run."""

    workload: str
    device: str
    trace: Trace
    latency: LatencyBreakdown
    operators: List[OperatorBreakdown]
    memory: MemoryProfile
    boundedness: Dict[str, str]
    opgraph: OpGraphReport
    sparsity: List[StageSparsity]
    flops_shares: Dict[str, float]
    result: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable multi-section report."""
        total = self.latency.total_time
        if total > 0:
            phase_block = render_shares(
                {p: t / total for p, t in self.latency.phase_times.items()},
                title="latency by phase")
        else:
            # empty or all-zero-cost trace: shares are undefined
            phase_block = "\n".join(
                ["latency by phase"]
                + [f"{p}  n/a" for p in self.latency.phase_times])
        parts: List[str] = [
            f"=== {self.workload} on {self.device} ===",
            f"total projected latency: {format_time(total)}",
            "",
            phase_block,
            "",
        ]
        rows = []
        for ob in self.operators:
            shares = ob.shares()
            rows.append([ob.phase] + [f"{shares[c]*100:.1f}%"
                                      for c in CATEGORY_ORDER])
        parts.append(render_table(
            ["phase"] + [c.display_name for c in CATEGORY_ORDER], rows,
            title="operator-category runtime shares"))
        parts.append("")
        parts.append(
            f"memory: peak live {format_bytes(self.memory.peak_live_bytes)}, "
            f"params {format_bytes(self.memory.parameter_bytes)}, "
            f"codebooks {format_bytes(self.memory.codebook_bytes)}")
        parts.append(f"boundedness: {self.boundedness}")
        parts.append(
            f"op graph: {self.opgraph.num_nodes} nodes, "
            f"{self.opgraph.num_edges} edges, serialization "
            f"{self.opgraph.serialization:.2f}, symbolic share of "
            f"critical path {self.opgraph.symbolic_on_critical_path*100:.1f}%")
        if self.sparsity:
            rows = [[s.stage, f"{s.weighted_mean*100:.1f}%",
                     f"{s.mean*100:.1f}%", s.num_events]
                    for s in self.sparsity]
            parts.append(render_table(
                ["stage", "weighted sparsity", "mean sparsity", "events"],
                rows, title="per-stage output sparsity"))
        return "\n".join(parts)


def characterize_trace(trace: Trace,
                       device: DeviceSpec = RTX_2080TI,
                       validate: bool = True) -> WorkloadReport:
    """Derive every analysis view from an already-collected trace.

    The trace is projected onto ``device`` once; validation and every
    view read its :attr:`~repro.core.profiler.Trace.columns`.
    """
    if validate:
        validate_trace(
            trace,
            expected_phases=(PHASE_NEURAL, PHASE_SYMBOLIC),
        ).raise_if_invalid()
    projected = project_trace(trace, device)
    return WorkloadReport(
        workload=trace.workload,
        device=device.name,
        trace=trace,
        latency=latency_breakdown(projected),
        operators=operator_breakdown(projected),
        memory=memory_profile(trace),
        boundedness=phase_boundedness(projected),
        opgraph=analyze_graph(projected),
        sparsity=stage_sparsity(trace),
        flops_shares=flops_breakdown(trace),
        result=dict(trace.metadata.get("result", {})),  # type: ignore[arg-type]
    )


def characterize(workload: "Workload",
                 device: DeviceSpec = RTX_2080TI,
                 validate: bool = True) -> WorkloadReport:
    """Profile one workload and derive every analysis view."""
    return characterize_trace(workload.profile(), device, validate=validate)
