"""Per-event reference for the columnar analyses.

The characterization views, the structural validation, the health
checks and the counters digest used to walk
:class:`~repro.core.profiler.TraceEvent` objects one at a time,
projecting each with ``project_event``.  The library now computes them
over :class:`~repro.core.columns.TraceColumns`; this module keeps the
per-event formulation as the oracle the differential tests compare
against, with exact floats and the same dict orders.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.analysis import LatencyBreakdown, OperatorBreakdown
from repro.core.columns import COUNTER_FIELDS
from repro.core.memory import MemoryProfile
from repro.core.opgraph import OpGraphReport
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace, TraceEvent
from repro.core.sparsity import StageSparsity
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec
from repro.resilience.health import HealthCheck, HealthReport, _clip


def running_total(values) -> float:
    """``values`` added one at a time from 0.0, as a loop adds them
    (the builtin ``sum`` compensates float rounding from Python 3.12)."""
    return functools.reduce(operator.add, values, 0.0)


def phase_labels(trace: Trace) -> List[str]:
    """Distinct phase labels in first-appearance order."""
    return list(dict.fromkeys(event.phase for event in trace))


def stage_labels(trace: Trace) -> List[str]:
    """Distinct non-empty stage labels in first-appearance order."""
    return [stage for stage in dict.fromkeys(event.stage for event in trace)
            if stage]


def flops_by_phase(trace: Trace) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for event in trace:
        out[event.phase] = out.get(event.phase, 0.0) + event.flops
    return out


def counters_digest(trace: Trace) -> str:
    """``repro.obs.runrec.counters_digest``, one event at a time."""
    buckets: Dict[str, List[float]] = {}
    for event in trace:
        key = f"{event.phase}/{event.category.value}"
        bucket = buckets.setdefault(key, [0.0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += event.flops
        bucket[2] += event.total_bytes
    canonical = json.dumps(
        {key: buckets[key] for key in sorted(buckets)},
        separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class EventCost:
    """Projected execution cost of one event on one device."""

    event: TraceEvent
    compute_time: float
    memory_time: float
    overhead: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        self.total = max(self.compute_time, self.memory_time) + self.overhead

    @property
    def bound(self) -> str:
        return "compute" if self.compute_time >= self.memory_time else "memory"


def compute_efficiency(device: DeviceSpec, category: OpCategory,
                       flops: float) -> float:
    """``device``'s sustained fraction of peak for one kernel."""
    base = device.category_efficiency.get(category, 0.3)
    if flops <= 0:
        return base
    ramp = min(1.0, flops / device.saturation_flops)
    return base * max(ramp, 0.02)


def project_event(event: TraceEvent, device: DeviceSpec) -> EventCost:
    """Project one event's latency onto ``device``."""
    eff_c = compute_efficiency(device, event.category, event.flops)
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


class ProjectedTrace:
    """A trace with per-event latency projections for one device."""

    def __init__(self, trace: Trace, device: DeviceSpec):
        self.trace = trace
        self.device = device
        self.costs = [project_event(e, device) for e in trace]

    @property
    def total_time(self) -> float:
        return running_total(c.total for c in self.costs)

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

    def time_by_category(self, phase: Optional[str] = None
                         ) -> Dict[OpCategory, float]:
        out: Dict[OpCategory, float] = {}
        for cost in self.costs:
            if phase is not None and cost.event.phase != phase:
                continue
            cat = cost.event.category
            out[cat] = out.get(cat, 0.0) + cost.total
        return out

    def memory_bound_fraction(self, phase: Optional[str] = None) -> float:
        total = 0.0
        bound = 0.0
        for cost in self.costs:
            if phase is not None and cost.event.phase != phase:
                continue
            total += cost.total
            if cost.bound == "memory":
                bound += cost.total
        return bound / total if total > 0 else 0.0


def latency_breakdown(projected: ProjectedTrace) -> LatencyBreakdown:
    counts: Dict[str, int] = {}
    for event in projected.trace:
        counts[event.phase] = counts.get(event.phase, 0) + 1
    return LatencyBreakdown(
        workload=projected.trace.workload,
        device=projected.device.name,
        total_time=projected.total_time,
        phase_times=projected.time_by_phase(),
        stage_times=projected.time_by_stage(),
        event_counts=counts,
    )


def operator_breakdown(projected: ProjectedTrace) -> List[OperatorBreakdown]:
    trace = projected.trace
    out: List[OperatorBreakdown] = []
    for phase in [p for p in phase_labels(trace) if p]:
        cat_times = projected.time_by_category(phase)
        out.append(OperatorBreakdown(
            workload=trace.workload, phase=phase,
            total_time=running_total(cat_times.values()),
            category_times=cat_times))
    return out


def phase_boundedness(projected: ProjectedTrace) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for phase in phase_labels(projected.trace):
        if not phase:
            continue
        fraction = projected.memory_bound_fraction(phase)
        out[phase] = "memory" if fraction > 0.5 else "compute"
    return out


def memory_profile(trace: Trace) -> MemoryProfile:
    peak_by_phase: Dict[str, int] = {}
    traffic: Dict[str, int] = {}
    for event in trace:
        if event.live_bytes > peak_by_phase.get(event.phase, 0):
            peak_by_phase[event.phase] = event.live_bytes
        traffic[event.phase] = traffic.get(event.phase, 0) + event.total_bytes
    return MemoryProfile(
        workload=trace.workload,
        peak_live_bytes=max(peak_by_phase.values(), default=0),
        peak_live_by_phase=peak_by_phase,
        traffic_by_phase=traffic,
        parameter_bytes=int(trace.metadata.get("parameter_bytes", 0)),
        codebook_bytes=int(trace.metadata.get("codebook_bytes", 0)),
    )


def analyze_graph(projected: ProjectedTrace) -> OpGraphReport:
    costs = projected.costs
    position = {cost.event.eid: i for i, cost in enumerate(costs)}
    best_time: List[float] = []
    best_pred: List[Optional[int]] = []
    generation: List[int] = []
    crossings: Set[Tuple[str, str]] = set()
    edges = cross = 0
    for i, cost in enumerate(costs):
        event = cost.event
        incoming: List[Tuple[float, int, int]] = []
        gen = 0
        for parent in dict.fromkeys(event.parents):
            j = position.get(parent)
            if j is None:
                continue
            if j >= i:
                raise ValueError(
                    f"event {event.eid} ({event.name}) has parent {parent} "
                    f"at or after it in the trace")
            edges += 1
            pair = (costs[j].event.phase, event.phase)
            if pair[0] != pair[1]:
                cross += 1
                crossings.add(pair)
            incoming.append((best_time[j], parent, j))
            gen = max(gen, generation[j] + 1)
        base, _, pred = max(incoming, default=(0.0, None, None))
        best_time.append(base + cost.total)
        best_pred.append(pred)
        generation.append(gen)

    path: List[int] = []
    cp_time = 0.0
    if costs:
        cursor: Optional[int] = max(range(len(costs)),
                                    key=best_time.__getitem__)
        cp_time = best_time[cursor]
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()

    cp_phase_times: Dict[str, float] = {}
    for k in path:
        phase = costs[k].event.phase
        cp_phase_times[phase] = cp_phase_times.get(phase, 0.0) \
            + costs[k].total

    return OpGraphReport(
        workload=projected.trace.workload,
        num_nodes=len(costs),
        num_edges=edges,
        cross_phase_edges=cross,
        symbolic_depends_on_neural=(PHASE_NEURAL,
                                    PHASE_SYMBOLIC) in crossings,
        neural_depends_on_symbolic=(PHASE_SYMBOLIC,
                                    PHASE_NEURAL) in crossings,
        critical_path_time=cp_time,
        critical_path_length=len(path),
        critical_path_phase_times=cp_phase_times,
        total_time=projected.total_time,
        max_width=max(Counter(generation).values(), default=0),
    )


def stage_sparsity(trace: Trace, stages: Optional[Sequence[str]] = None,
                   min_elements: int = 2) -> List[StageSparsity]:
    if stages is None:
        stages = stage_labels(trace)
    grouped: Dict[str, Tuple[List[float], List[float]]] = {
        stage: ([], []) for stage in stages}
    for event in trace:
        group = grouped.get(event.stage)
        if group is None:
            continue
        elements = math.prod(event.output_shape)
        if elements < min_elements:
            continue
        group[0].append(event.output_sparsity)
        group[1].append(float(elements))
    out: List[StageSparsity] = []
    for stage in stages:
        values, weights = grouped[stage]
        if not values:
            continue
        arr = np.asarray(values)
        w = np.asarray(weights)
        out.append(StageSparsity(
            stage=stage, mean=float(arr.mean()), maximum=float(arr.max()),
            minimum=float(arr.min()),
            weighted_mean=float((arr * w).sum() / w.sum()),
            num_events=len(values)))
    return out


def flops_breakdown(trace: Trace) -> Dict[str, float]:
    per_phase = flops_by_phase(trace)
    total = running_total(per_phase.values())
    if total <= 0:
        return {phase: 0.0 for phase in per_phase}
    return {phase: flops / total for phase, flops in per_phase.items()}


def validate_errors(trace: Trace,
                    expected_phases: Optional[Sequence[str]] = None,
                    require_flops: bool = True) -> List[str]:
    """``validate_trace(...).errors``, one event at a time."""
    errors: List[str] = []
    err = errors.append
    if not trace:
        err("trace is empty")
        return errors

    seen_ids = set()
    previous = -1
    for event in trace:
        if event.eid in seen_ids:
            err(f"duplicate event id {event.eid}")
        seen_ids.add(event.eid)
        if event.eid <= previous:
            err(f"event ids not strictly increasing at {event.eid}")
        previous = event.eid

        for parent in event.parents:
            if parent >= event.eid:
                err(f"event {event.eid} has non-causal parent {parent}")
            if parent not in seen_ids:
                err(f"event {event.eid} has unknown parent {parent}")

        for counter in ("flops", "bytes_read", "bytes_written",
                        "wall_time", "live_bytes", "output_sparsity"):
            if not math.isfinite(float(getattr(event, counter))):
                err(f"event {event.eid} ({event.name}) has non-finite "
                    f"{counter}: {getattr(event, counter)}")

        if event.flops < 0:
            err(f"event {event.eid} ({event.name}) has negative flops")
        if event.bytes_read < 0 or event.bytes_written < 0:
            err(f"event {event.eid} ({event.name}) has negative bytes")
        if math.isfinite(event.output_sparsity) \
                and not (0.0 <= event.output_sparsity <= 1.0):
            err(f"event {event.eid} sparsity out of range: "
                f"{event.output_sparsity}")
        if event.wall_time < 0:
            err(f"event {event.eid} has negative wall time")
        if event.live_bytes < 0:
            err(f"event {event.eid} has negative live bytes")

    if expected_phases is not None:
        actual = set(p for p in phase_labels(trace) if p)
        missing = set(expected_phases) - actual
        if missing:
            err(f"missing expected phases: {sorted(missing)}")

    if require_flops and running_total(e.flops for e in trace) <= 0:
        err("trace performed no floating-point work")
    return errors


def check_trace_health(trace: Trace,
                       expected_phases: Optional[Sequence[str]] = None
                       ) -> HealthReport:
    report = HealthReport(workload=trace.workload)
    add = report.checks.append

    errors = validate_errors(trace, expected_phases=expected_phases)
    add(HealthCheck("structure", not errors, _clip(errors)))

    bad: List[str] = []
    for event in trace:
        for fname in COUNTER_FIELDS:
            value = float(getattr(event, fname))
            if not math.isfinite(value):
                bad.append(f"event {event.eid} ({event.name}) "
                           f"{fname}={value}")
    add(HealthCheck("finite_counters", not bad, _clip(bad)))

    problems: List[str] = []
    if expected_phases:
        for phase in expected_phases:
            events = [e for e in trace if e.phase == phase]
            if not events:
                problems.append(f"phase {phase!r} has no events")
            elif all(e.wall_time == 0.0 and e.flops == 0.0
                     for e in events):
                problems.append(f"phase {phase!r} recorded no work")
    add(HealthCheck("nonempty_phases", not problems, _clip(problems)))

    total = running_total(e.wall_time for e in trace)
    ok = math.isfinite(total) and total > 0.0
    add(HealthCheck("nonzero_latency", ok,
                    "" if ok else f"total wall time is {total}"))

    problems = []
    for event in trace:
        if event.live_bytes < 0:
            problems.append(f"event {event.eid} live_bytes "
                            f"{event.live_bytes} < 0")
    runtime_peak = trace.metadata.get("peak_live_bytes")
    if isinstance(runtime_peak, (int, float)) and trace:
        observed = max(e.live_bytes for e in trace)
        if observed > runtime_peak:
            problems.append(f"event live-bytes peak {observed} exceeds "
                            f"runtime-tracked peak {runtime_peak}")
    add(HealthCheck("live_bytes_balance", not problems, _clip(problems)))
    return report
