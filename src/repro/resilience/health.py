"""Trace health checks: is this profile trustworthy enough to report?

Layered on top of the structural validation in
:mod:`repro.core.validate`: where ``validate_trace`` asks "is this a
well-formed trace?", the health checks ask "did the workload actually
run sanely?" — catching the quietly-wrong cases (NaN counters, phases
that recorded nothing, zero total latency, impossible live-memory
snapshots) that produce plausible-looking but meaningless figures.

Every check is named so reports can say *which* invariant a degraded
workload broke::

    report = check_trace_health(trace,
                                expected_phases=("neural", "symbolic"))
    if not report.ok:
        print(report.render())          # lists failing checks + details
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.columns import COUNTER_FIELDS, seq_sum
from repro.core.profiler import Trace
from repro.core.validate import validate_trace

#: Cap on per-check detail lines so a fully-poisoned trace stays readable.
_MAX_DETAILS = 5


@dataclass
class HealthCheck:
    """Outcome of one named check."""

    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"[{status:>4s}] {self.name}"
        return f"{line}: {self.detail}" if self.detail else line


@dataclass
class HealthReport:
    """All checks for one trace, plus convenience accessors."""

    workload: str
    checks: List[HealthCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failing(self) -> List[str]:
        """Names of the checks that failed."""
        return [c.name for c in self.checks if not c.ok]

    def render(self) -> str:
        header = (f"health of {self.workload!r}: "
                  f"{'healthy' if self.ok else 'UNHEALTHY'} "
                  f"({len(self.failing())} of {len(self.checks)} "
                  f"checks failing)")
        return "\n".join([header] + ["  " + c.render() for c in self.checks])


def _clip(problems: Sequence[str]) -> str:
    shown = list(problems[:_MAX_DETAILS])
    if len(problems) > _MAX_DETAILS:
        shown.append(f"... and {len(problems) - _MAX_DETAILS} more")
    return "; ".join(shown)


def _max_index(values: np.ndarray) -> int:
    """The index of the value the builtin ``max`` returns: the first
    one when it is NaN, else the first occurrence of the largest."""
    if values[0] != values[0]:
        return 0
    if values.dtype.kind == "f":
        return int(np.nanargmax(values))
    return int(values.argmax())


def check_trace_health(trace: Trace,
                       expected_phases: Optional[Sequence[str]] = None,
                       ) -> HealthReport:
    """Run every named health check on ``trace``.

    The checks run over the trace's columns; only the events that
    fail one are visited to word its details.
    """
    cols = trace.columns
    report = HealthReport(workload=trace.workload)
    add = report.checks.append

    # structure: the core validator's verdict, as one named check.
    validation = validate_trace(trace, expected_phases=expected_phases)
    add(HealthCheck("structure", validation.ok, _clip(validation.errors)))

    # finite_counters: NaN/Inf anywhere makes every aggregate a lie.
    finite = np.ones(cols.n, dtype=bool)
    for fname in COUNTER_FIELDS:
        finite &= np.isfinite(getattr(cols, fname))
    bad: List[str] = []
    for i in (~finite).nonzero()[0].tolist():
        event = trace[i]
        for fname in COUNTER_FIELDS:
            value = float(getattr(event, fname))
            if not math.isfinite(value):
                bad.append(f"event {event.eid} ({event.name}) "
                           f"{fname}={value}")
    add(HealthCheck("finite_counters", not bad, _clip(bad)))

    # nonempty_phases: every expected phase must have recorded real work.
    problems: List[str] = []
    if expected_phases:
        for phase in expected_phases:
            selected = cols.in_phase(phase)
            if not selected.any():
                problems.append(f"phase {phase!r} has no events")
            elif np.all((cols.wall_time[selected] == 0.0)
                        & (cols.flops[selected] == 0.0)):
                problems.append(f"phase {phase!r} recorded no work")
    add(HealthCheck("nonempty_phases", not problems, _clip(problems)))

    # nonzero_latency: an all-zero-cost trace renders meaningless shares.
    total = seq_sum(cols.wall_time)
    ok = math.isfinite(total) and total > 0.0
    add(HealthCheck("nonzero_latency", ok,
                    "" if ok else f"total wall time is {total}"))

    # live_bytes_balance: snapshots must be non-negative and must not
    # exceed the runtime-tracked peak (an event above it means the
    # snapshot was corrupted or the allocator blew up mid-op).
    problems = []
    for i in (cols.live_bytes < 0).nonzero()[0].tolist():
        event = trace[i]
        problems.append(f"event {event.eid} live_bytes "
                        f"{event.live_bytes} < 0")
    runtime_peak = trace.metadata.get("peak_live_bytes")
    if isinstance(runtime_peak, (int, float)) and cols.n:
        observed = trace[_max_index(cols.live_bytes)].live_bytes
        if observed > runtime_peak:
            problems.append(f"event live-bytes peak {observed} exceeds "
                            f"runtime-tracked peak {runtime_peak}")
    add(HealthCheck("live_bytes_balance", not problems, _clip(problems)))

    return report
