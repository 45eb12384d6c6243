"""Replay errors.

A plan is an earlier eager trace of the same workload
(:mod:`repro.compile.executor`); replay raises :class:`PlanError`
when it cannot use one and :class:`PlanDivergenceError` the moment it
leaves it.
"""

from __future__ import annotations

__all__ = ["PlanError", "PlanDivergenceError"]


class PlanError(RuntimeError):
    """Base class for replay failures."""


class PlanDivergenceError(PlanError):
    """Replay left the plan's op graph (wrong op, shape, or count).

    Deliberately a deterministic error: replaying a stale plan against
    changed code or params is not transient, so
    :meth:`repro.resilience.runner.ResilientRunner.classify_error`
    fails fast instead of retrying, and the runner falls back to
    eager execution.
    """
