"""``repro.compile``: replay a workload against its own eager trace.

A workload's earlier eager :class:`~repro.core.profiler.Trace` is its
plan: :mod:`repro.compile.executor` opens a plan session in which the
dispatcher replays each op against the plan's event at the same eid —
divergence checks at every op, the recorded counters in place of eager
counting — so a replay is bit-exact with eager and measurably cheaper
per op.  The serving workers replay a batch key once it has kept a
plan (:class:`~repro.serve.cache.ArtifactCache`).

Import discipline: this package sits *below* ``repro.workloads`` and
``repro.serve``, and the tensor runtime does not import it, so nothing
imported at module scope here may import those layers.  The CLI
(:mod:`repro.compile.cli`) is the only module that touches the
workload registry and is imported lazily by ``repro.cli``.
"""

from repro.compile.executor import (PlanSession, active_session,
                                    diff_against_eager, plan_session,
                                    replay)
from repro.compile.plan import PlanDivergenceError, PlanError

__all__ = [
    "PlanDivergenceError", "PlanError", "PlanSession",
    "active_session", "diff_against_eager", "plan_session", "replay",
]
