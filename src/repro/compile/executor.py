"""Replay a workload against its own earlier eager trace, bit-exactly.

A *plan* is a :class:`~repro.core.profiler.Trace` that an eager
``profile()`` of the same workload recorded.  Every workload here is
seeded and deterministic, so a re-run dispatches its ``i``-th event
exactly where the plan recorded event ``i``.  The workload's own
``run()`` executes unchanged (Python control flow is reproduced by
construction, so classified errors surface at exactly the same point
as eager).  While a :func:`plan_session` is open on a thread,
:func:`repro.tensor.dispatch.run_op` asks the session for the plan's
event at each op's eid:

1. the op name must be the event's name, the op must not overrun the
   plan, and the kernel's output shape must be the event's; otherwise
   :class:`~repro.compile.plan.PlanDivergenceError` (deterministic —
   runners fall back to eager, never retry).  The name check also
   tells ops from regions: no region name (``kb_forward_chain``,
   ``abductive_search``, ...) resolves through
   :func:`~repro.core.taxonomy.category_for`, and every dispatched op
   name does, so an op can never match a region's event;
2. the kernel runs as in eager, and the event's counters stand in for
   taxonomy lookup, byte counting, FLOP math, the sparsity scan and
   allocation tracking;
3. eid, phase/stage, span id and timing are taken fresh, and the op
   goes through the same record, observer and ledger code as an
   eager op (its event reaches the runtime metrics when the replay's
   profile closes, as an eager one does).

Events recorded through ``record_event`` / ``record_region`` re-record
eagerly at their own position; only their live bytes come from the
plan, since replayed ops are not allocation-tracked.

The bit-exactness contract (asserted across the full workload roster
in ``tests/test_compile.py``): identical outputs, identical counter
digests (:func:`repro.obs.runrec.counters_digest`), identical
classified errors.  Wall-clock fields and latency-histogram bucket
placement are measured context, not contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.compile.plan import PlanDivergenceError, PlanError
from repro.core.profiler import Trace, TraceEvent
from repro.tensor.context import thread_local as _thread_local

__all__ = ["PlanSession", "plan_session", "active_session", "replay",
           "diff_against_eager"]


def active_session() -> Optional["PlanSession"]:
    """This thread's innermost open plan session, if any."""
    return _thread_local.dispatch.session


class PlanSession:
    """One thread's replay of one plan (sessions never cross threads)."""

    def __init__(self, plan: Trace):
        self.events = plan.events

    def expect(self, eid: int, name: str) -> TraceEvent:
        """The plan's event op ``name`` must reproduce as event ``eid``."""
        events = self.events
        if eid >= len(events):
            raise PlanDivergenceError(
                f"replay overran the plan: op {name!r} would be event "
                f"{eid} but the plan has {len(events)} events")
        event = events[eid]
        if event.name != name:
            raise PlanDivergenceError(
                f"replay diverged at eid {eid}: plan recorded "
                f"{event.name!r}, workload dispatched op {name!r}")
        return event

    def live_bytes(self, eid: int) -> int:
        """Live bytes the plan recorded after event ``eid``.

        An overrun reads 0; the event-count check at the end of
        :func:`replay` reports it.
        """
        events = self.events
        return events[eid].live_bytes if eid < len(events) else 0

    def diverged(self, recorded: TraceEvent,
                 shape: Tuple[int, ...]) -> None:
        """Raise for a kernel output whose shape differs from the plan's."""
        raise PlanDivergenceError(
            f"replay diverged at eid {recorded.eid} ({recorded.name!r}): "
            f"plan recorded output shape {recorded.output_shape}, "
            f"kernel produced {shape}")


@contextmanager
def plan_session(plan: Trace) -> Iterator[PlanSession]:
    """Install a replay session for this thread.

    Refuses to open under an active fault hook: fault plans count op
    indices by consulting every dispatch, and a plan replays the
    counters of a fault-free run, so the semantics would silently
    diverge.  Callers that need fault injection run eager (the
    resilient runner does exactly that).
    """
    state = _thread_local.dispatch
    if state.fault_hook is not None:
        raise PlanError(
            "replay cannot run under a fault hook; fault-injection "
            "runs are eager")
    session = PlanSession(plan)
    state.push("session", session)
    try:
        yield session
    finally:
        state.pop("session", session)


def replay(workload, plan: Trace) -> Trace:
    """``workload.profile()`` replayed against ``plan``, its eager trace.

    ``plan`` must come from the same workload (name, seed, params).
    The replayed trace's ``peak_live_bytes`` is the plan's (allocation
    tracking is replaced by the recorded live bytes).  Raises
    :class:`~repro.compile.plan.PlanDivergenceError` when the run
    records a different number of events than the plan holds.
    """
    name = workload.info.name
    if plan.workload != name:
        raise PlanError(
            f"plan was recorded from workload {plan.workload!r}; "
            f"refusing to replay {name!r}")
    with plan_session(plan):
        trace = workload.profile()
    if len(trace.events) != len(plan.events):
        raise PlanDivergenceError(
            f"replay recorded {len(trace.events)} events but the plan "
            f"has {len(plan.events)} — the op graph changed since the "
            "plan was recorded")
    trace.metadata["peak_live_bytes"] = plan.metadata["peak_live_bytes"]
    return trace


def diff_against_eager(eager: Trace, replayed: Trace) -> Dict[str, object]:
    """Bit-exactness comparison between an eager and a replayed trace.

    The contract surface: counter digests, event counts, per-event
    deterministic fields, and result metadata.  Wall-clock fields are
    deliberately not compared.
    """
    from repro.obs.runrec import counters_digest  # deferred (cycle)
    eager_digest = counters_digest(eager)
    replayed_digest = counters_digest(replayed)
    mismatches: List[str] = []
    if len(eager.events) != len(replayed.events):
        mismatches.append(
            f"event count: eager {len(eager.events)} vs replayed "
            f"{len(replayed.events)}")
    for a, b in zip(eager.events, replayed.events):
        if (a.name, a.category, a.phase, a.stage, a.flops,
                a.bytes_read, a.bytes_written, tuple(a.output_shape),
                a.parents) != (b.name, b.category, b.phase, b.stage,
                               b.flops, b.bytes_read, b.bytes_written,
                               tuple(b.output_shape), b.parents):
            mismatches.append(f"event {a.eid}: {a.name!r} fields differ")
            if len(mismatches) >= 8:
                break
    eager_result = eager.metadata.get("result")
    replayed_result = replayed.metadata.get("result")
    if repr(eager_result) != repr(replayed_result):
        mismatches.append("result metadata differs")
    return {
        "bit_exact": (eager_digest == replayed_digest
                      and not mismatches),
        "eager_counters_digest": eager_digest,
        "replayed_counters_digest": replayed_digest,
        "events": len(eager.events),
        "mismatches": mismatches,
    }
