"""``repro.compile``: capture one eager run, replay it bit-exactly.

Capture -> plan -> replay:

* :mod:`repro.compile.capture` records one instrumented eager run
  (via the ``op_observer`` dispatcher hook) into a deterministic,
  serializable, positional :class:`~repro.compile.plan.CompiledPlan`;
* :mod:`repro.compile.executor` opens a plan session in which the
  dispatcher replays each op against its captured step — divergence
  checks at every op, the captured counters in place of eager
  counting — so a replay is bit-exact with eager and measurably
  cheaper per op.

Import discipline: this package sits *below* ``repro.workloads`` and
``repro.serve``, and the tensor runtime does not import it, so nothing
imported at module scope here may import those layers.  The CLI
(:mod:`repro.compile.cli`) is the only module that touches the
workload registry and is imported lazily by ``repro.cli``.
"""

from repro.compile.capture import (CapturedOp, PlanCapturer,
                                   capture_plan, capture_plan_with_trace,
                                   capture_program_plan)
from repro.compile.executor import (ExecutionStats, PlanSession,
                                    active_session, diff_against_eager,
                                    execute, plan_session, run_compiled)
from repro.compile.plan import (CompiledPlan, PlanCaptureError,
                                PlanDivergenceError, PlanError, PlanStep)

__all__ = [
    "CapturedOp", "CompiledPlan", "ExecutionStats",
    "PlanCaptureError", "PlanCapturer", "PlanDivergenceError",
    "PlanError", "PlanSession", "PlanStep",
    "active_session", "capture_plan", "capture_plan_with_trace",
    "capture_program_plan", "diff_against_eager", "execute",
    "plan_session", "run_compiled",
]
