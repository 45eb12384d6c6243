"""Structural trace validation.

Sanity checks that every analysis relies on: monotone event ids,
parent links pointing backwards, non-negative resource counters,
phase/stage labels drawn from the expected vocabulary.  Benchmarks run
these on freshly-collected traces so a broken workload fails loudly
rather than producing quietly-wrong figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columns import COUNTER_FIELDS, TraceColumns, seq_sum
from repro.core.profiler import Trace


@dataclass
class ValidationResult:
    """Outcome of validating one trace."""

    workload: str
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise ValueError(
                f"trace for {self.workload!r} failed validation:\n  "
                + "\n  ".join(self.errors))


def _suspects(cols: TraceColumns) -> np.ndarray:
    """Indices of the events :func:`_event_errors` may report, in order.

    Computed over the columns; a superset is harmless, since the
    per-event check decides what each suspect's errors are.
    """
    eid = cols.eid
    suspect = np.empty(cols.n, dtype=bool)
    suspect[0] = eid[0] <= -1
    np.less_equal(eid[1:], eid[:-1], out=suspect[1:])
    if not cols.increasing:
        # repeats of an earlier eid
        suspect |= cols.positions(eid, last=False) != np.arange(cols.n)
    # a parent must be below its child's eid and be an earlier event's
    owner = cols.parent_owner
    seen = cols.positions(cols.parents, last=False)
    bad = (cols.parents >= eid[owner]) | (seen < 0) | (seen > owner)
    suspect[owner[bad]] = True
    with np.errstate(invalid="ignore"):
        for name in COUNTER_FIELDS:
            column = getattr(cols, name)
            suspect |= ~np.isfinite(column) | (column < 0)
        # a sparsity is a fraction: at most 1 as well
        suspect |= cols.output_sparsity > 1.0
    return suspect.nonzero()[0]


def _event_errors(trace: Trace, i: int,
                  first: Dict[int, int]) -> List[str]:
    """Every error of event ``i``, as a check of each event in turn
    states them; ``first`` maps each eid to its first event index."""
    event = trace[i]
    errors: List[str] = []
    err = errors.append
    if first[event.eid] < i:
        err(f"duplicate event id {event.eid}")
    previous = trace[i - 1].eid if i else -1
    if event.eid <= previous:
        err(f"event ids not strictly increasing at {event.eid}")

    for parent in event.parents:
        if parent >= event.eid:
            err(f"event {event.eid} has non-causal parent {parent}")
        if first.get(parent, i + 1) > i:
            err(f"event {event.eid} has unknown parent {parent}")

    # non-finite counters must be rejected explicitly: NaN slips
    # through every `< 0` / range comparison below.
    for counter in COUNTER_FIELDS:
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
    return errors


def validate_trace(trace: Trace,
                   expected_phases: Optional[Sequence[str]] = None,
                   require_flops: bool = True) -> ValidationResult:
    """Run all structural checks on ``trace``.

    The checks run over the trace's columns; only events that fail
    one are visited, and their errors come out in trace order.
    """
    cols = trace.columns
    result = ValidationResult(workload=trace.workload)
    err = result.errors.append

    if not cols.n:
        err("trace is empty")
        return result

    suspects = _suspects(cols).tolist()
    if suspects:
        eids = cols.eid.tolist()
        first = dict(zip(reversed(eids), range(cols.n - 1, -1, -1)))
        for i in suspects:
            result.errors.extend(_event_errors(trace, i, first))

    if expected_phases is not None:
        actual = set(p for p in cols.phases if p)
        missing = set(expected_phases) - actual
        if missing:
            err(f"missing expected phases: {sorted(missing)}")

    if require_flops and seq_sum(cols.flops) <= 0:
        err("trace performed no floating-point work")

    return result
