"""Plan executor: replay a :class:`CompiledPlan` bit-exactly.

The workload's own ``run()`` executes unchanged (Python control flow
is reproduced by construction, so classified errors surface at
exactly the same point as eager).  While a :func:`plan_session` is
open on a thread, :func:`repro.tensor.dispatch.run_op` asks the
session for the step at each op's eid:

1. the next eid indexes straight into ``plan.steps``; a name/kind
   mismatch, shape mismatch, or step over/underrun raises
   :class:`~repro.compile.plan.PlanDivergenceError` (deterministic —
   runners fall back to eager, never retry);
2. the kernel runs as in eager, and the captured event's counters
   stand in for taxonomy lookup, byte counting, FLOP math, the
   sparsity scan and allocation tracking;
3. eid, phase/stage, span id and timing are taken fresh, and the op
   goes through the same record, observer and ledger code as an
   eager op (its event reaches the runtime metrics when the replay's
   profile closes, as an eager one does).

The bit-exactness contract (asserted across the full workload roster
in ``tests/test_compile.py``): identical outputs, identical counter
digests (:func:`repro.obs.runrec.counters_digest`), identical
classified errors.  Wall-clock fields and latency-histogram bucket
placement are measured context, not contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.compile.plan import CompiledPlan, PlanDivergenceError, PlanError
from repro.core.profiler import Trace, TraceEvent
from repro.tensor.context import profile as _profile
from repro.tensor.context import thread_local as _thread_local

__all__ = ["PlanSession", "ExecutionStats", "plan_session",
           "active_session", "execute", "run_compiled",
           "diff_against_eager"]


def active_session() -> Optional["PlanSession"]:
    """This thread's innermost open plan session, if any."""
    return _thread_local.dispatch.session


@dataclass
class ExecutionStats:
    """What one compiled replay did."""

    steps_replayed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"steps_replayed": self.steps_replayed}


class PlanSession:
    """One thread's replay of one plan (sessions never cross threads)."""

    def __init__(self, plan: CompiledPlan):
        self.plan = plan
        self.stats = ExecutionStats()

    def expect(self, eid: int, name: str) -> TraceEvent:
        """The captured event op ``name`` must reproduce as event ``eid``."""
        steps = self.plan.steps
        if eid >= len(steps):
            raise PlanDivergenceError(
                f"replay overran the plan: op {name!r} would be event "
                f"{eid} but the plan has {len(steps)} steps")
        step = steps[eid]
        if step.kind != "op" or step.name != name:
            raise PlanDivergenceError(
                f"replay diverged at eid {eid}: plan expects "
                f"{step.kind} {step.name!r}, workload dispatched "
                f"op {name!r}")
        self.stats.steps_replayed += 1
        return step.event

    def diverged(self, captured: TraceEvent,
                 shape: Tuple[int, ...]) -> None:
        """Raise for a kernel output whose shape differs from the plan's."""
        raise PlanDivergenceError(
            f"replay diverged at eid {captured.eid} ({captured.name!r}): "
            f"plan recorded output shape {captured.output_shape}, "
            f"kernel produced {shape}")


@contextmanager
def plan_session(plan: CompiledPlan) -> Iterator[PlanSession]:
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
            "compiled execution cannot run under a fault hook; "
            "use the eager tier for fault-injection runs")
    session = PlanSession(plan)
    state.push("session", session)
    try:
        yield session
    finally:
        state.pop("session", session)


def execute(workload, plan: CompiledPlan) -> Tuple[Trace, ExecutionStats]:
    """Run ``workload`` through ``plan``; returns (trace, stats).

    Mirrors ``Workload.profile()`` — same metadata keys, same trace
    shape — with ``peak_live_bytes`` taken from the plan (allocation
    tracking is replaced by the captured live bytes).  Raises
    :class:`~repro.compile.plan.PlanDivergenceError` when the run
    records a different number of events than the plan captured.
    """
    name = getattr(getattr(workload, "info", None), "name", "")
    if plan.workload and name and plan.workload != name:
        raise PlanError(
            f"plan was captured from workload {plan.workload!r}; "
            f"refusing to replay {name!r}")
    workload.build()
    with _profile(name or plan.workload) as prof:
        with plan_session(plan) as session:
            result = workload.run()
    trace = prof.trace
    if len(trace.events) != len(plan.steps):
        raise PlanDivergenceError(
            f"replay recorded {len(trace.events)} events but the plan "
            f"has {len(plan.steps)} steps — the op graph changed since "
            "capture")
    trace.metadata.update(workload.params)
    trace.metadata["result"] = result
    trace.metadata["peak_live_bytes"] = plan.peak_live_bytes
    trace.metadata["parameter_bytes"] = workload.parameter_bytes()
    trace.metadata["codebook_bytes"] = workload.codebook_bytes()
    return trace, session.stats


def run_compiled(workload, plan: CompiledPlan) -> Trace:
    """:func:`execute` returning only the trace (profile-compatible)."""
    trace, _ = execute(workload, plan)
    return trace


def diff_against_eager(eager: Trace, compiled: Trace) -> Dict[str, object]:
    """Bit-exactness comparison between an eager and a compiled trace.

    The contract surface: counter digests, event counts, per-event
    deterministic fields, and result metadata.  Wall-clock fields are
    deliberately not compared.
    """
    from repro.obs.runrec import counters_digest  # deferred (cycle)
    eager_digest = counters_digest(eager)
    compiled_digest = counters_digest(compiled)
    mismatches: List[str] = []
    if len(eager.events) != len(compiled.events):
        mismatches.append(
            f"event count: eager {len(eager.events)} vs compiled "
            f"{len(compiled.events)}")
    for a, b in zip(eager.events, compiled.events):
        if (a.name, a.category, a.phase, a.stage, a.flops,
                a.bytes_read, a.bytes_written, tuple(a.output_shape),
                a.parents) != (b.name, b.category, b.phase, b.stage,
                               b.flops, b.bytes_read, b.bytes_written,
                               tuple(b.output_shape), b.parents):
            mismatches.append(f"event {a.eid}: {a.name!r} fields differ")
            if len(mismatches) >= 8:
                break
    eager_result = eager.metadata.get("result")
    compiled_result = compiled.metadata.get("result")
    if repr(eager_result) != repr(compiled_result):
        mismatches.append("result metadata differs")
    return {
        "bit_exact": (eager_digest == compiled_digest
                      and not mismatches),
        "eager_counters_digest": eager_digest,
        "compiled_counters_digest": compiled_digest,
        "events": len(eager.events),
        "mismatches": mismatches,
    }
