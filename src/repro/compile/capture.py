"""Plan capture: one instrumented eager run -> a :class:`CompiledPlan`.

The capturer is an ``op_observer`` (the PR 6 dispatcher hook): it sees
every dispatched tensor op *with* its raw output array and records the
output **dtype**, which the trace event omits.  Observers are notified
only for dispatcher-routed ops, so the capturer's records also tell op
steps from ``region`` steps.

Capture is a plain profiled run: ``build()`` stays outside the trace
(and therefore outside the observer), faults must be absent, and the
resulting trace is the same object ``Workload.profile()`` returns, so
the captured counters digest is directly comparable with any eager
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compile.plan import CompiledPlan, PlanCaptureError, PlanStep
from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import category_for
from repro.tensor.context import active_fault_hook, op_observer

__all__ = ["CapturedOp", "PlanCapturer", "capture_plan",
           "capture_plan_with_trace", "capture_program_plan"]


@dataclass(frozen=True)
class CapturedOp:
    """Observer-side facts about one dispatched op."""

    eid: int
    name: str
    output_dtype: str


class PlanCapturer:
    """``op_observer`` recording each dispatched op's output dtype.

    Only dispatcher-routed ops notify observers, so events recorded
    via ``record_event`` / ``record_region`` (host-side symbolic
    regions) are *absent* from :attr:`records` — that absence is what
    marks them as ``region`` steps in the plan.
    """

    def __init__(self) -> None:
        self.records: Dict[int, CapturedOp] = {}

    def observe_op(self, event: TraceEvent, inputs, output) -> None:
        try:
            category_for(event.name)
        except KeyError:
            raise PlanCaptureError(
                f"op {event.name!r} (eid {event.eid}) is not in the "
                "OP_CATEGORIES registry; refusing to compile an "
                "unclassified template")
        self.records[event.eid] = CapturedOp(
            eid=event.eid, name=event.name,
            output_dtype=str(output.dtype))


def capture_plan_with_trace(workload) -> Tuple[CompiledPlan, Trace]:
    """Profile ``workload`` once under capture; plan + capture trace.

    ``workload`` is any object with the :class:`repro.workloads.base.
    Workload` surface (``info``, ``params``, ``build``, ``run``,
    ``profile``).  The capture refuses to run under an active fault
    hook: injected faults would bake poisoned counters into the plan.
    """
    if active_fault_hook() is not None:
        raise PlanCaptureError(
            "cannot capture a plan with a fault hook installed — "
            "the plan would replay injected behavior as ground truth")
    capturer = PlanCapturer()
    with op_observer(capturer):
        trace = workload.profile()
    plan = capture_program_plan(
        trace, capturer,
        workload=getattr(getattr(workload, "info", None), "name", "")
        or (trace.workload or ""),
        params=dict(getattr(workload, "params", {}) or {}))
    return plan, trace


def capture_plan(workload) -> CompiledPlan:
    """:func:`capture_plan_with_trace` returning only the plan."""
    plan, _ = capture_plan_with_trace(workload)
    return plan


def capture_program_plan(trace: Trace, capturer: PlanCapturer,
                         workload: str = "",
                         params: Optional[Dict[str, object]] = None
                         ) -> CompiledPlan:
    """Build a plan from a captured trace + its capturer.

    One positional step per trace event: events the capturer observed
    are ``op`` steps, the rest are ``region`` steps.  Callers that
    drive their own profiled run (``repro.fuzz.oracle`` captures
    generated programs) use this directly.
    """
    from repro.obs.runrec import counters_digest  # deferred (cycle)
    steps: List[PlanStep] = []
    for index, event in enumerate(trace.events):
        if event.eid != index:
            raise PlanCaptureError(
                f"capture trace is not positional: event {index} "
                f"carries eid {event.eid}")
        record = capturer.records.get(event.eid)
        if record is None:
            steps.append(PlanStep(eid=event.eid, kind="region",
                                  name=event.name, event=event))
            continue
        if record.name != event.name:  # pragma: no cover - defensive
            raise PlanCaptureError(
                f"capture desync at eid {event.eid}: observer saw "
                f"{record.name!r}, trace has {event.name!r}")
        steps.append(PlanStep(eid=event.eid, kind="op", name=event.name,
                              event=event,
                              output_dtype=record.output_dtype))
    plan = CompiledPlan(
        workload=workload or (trace.workload or ""),
        params=dict(params or {}),
        steps=steps,
        peak_live_bytes=int(trace.metadata.get("peak_live_bytes", 0)),
        counters_digest=counters_digest(trace))
    plan.validate()
    return plan
