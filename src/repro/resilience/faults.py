"""Deterministic fault injection for workload runs.

A :class:`FaultPlan` is a context manager that installs itself on the
tensor runtime's fault-hook stack (:mod:`repro.tensor.context`).  While
installed, the dispatcher asks it about every recorded operation; the
plan matches each op against its :class:`FaultSpec` rules and answers
with an :class:`Injection` when a fault should fire.

Determinism is the whole point: injection decisions depend only on the
plan seed, the spec index, and the running op index — never on wall
time or global RNG state — so the same plan over the same workload
produces byte-identical fault schedules.  That makes resilience paths
(retry, quarantine, circuit breaking) testable::

    plan = FaultPlan([FaultSpec(kind=FAULT_NAN, phase="symbolic",
                                rate=0.05)], seed=7)
    with plan:
        trace = create("nvsa", seed=0).profile()
    print(plan.describe())

Fault taxonomy (``FAULT_KINDS``):

``nan`` / ``inf``
    Poison the op's output array (first element, float dtypes only) and
    its recorded ``flops``/``output_sparsity`` counters — the silent
    data-corruption class that naive ``< 0`` validation misses.
``raise``
    Raise :class:`~repro.tensor.context.InjectedFaultError` from the
    dispatcher — the crashing-kernel class.  ``transient=True`` marks
    it retryable for the resilient runner.
``latency``
    Inflate the recorded wall time by ``latency`` seconds; with
    ``blocking=True`` the dispatcher really sleeps, so wall-clock
    timeouts can be exercised end to end.
``alloc``
    Add ``alloc_bytes`` to the event's live-bytes snapshot — an
    allocation blowup that breaks the live-bytes-balance health check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.tensor.context import pop_fault_hook, push_fault_hook

FAULT_NAN = "nan"
FAULT_INF = "inf"
FAULT_RAISE = "raise"
FAULT_LATENCY = "latency"
FAULT_ALLOC = "alloc"

#: All supported fault kinds, in documentation order.
FAULT_KINDS = (FAULT_NAN, FAULT_INF, FAULT_RAISE, FAULT_LATENCY,
               FAULT_ALLOC)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: what to inject and which ops it targets.

    Targeting fields (``op_name``, ``phase``, ``op_index``) are ANDed;
    a field left ``None`` matches everything.  ``rate`` thins matches
    probabilistically but deterministically: the draw for op *i* under
    spec *j* depends only on ``(plan seed, j, i)``.
    """

    kind: str
    rate: float = 1.0
    op_name: Optional[str] = None
    phase: Optional[str] = None
    op_index: Optional[int] = None
    latency: float = 0.05
    blocking: bool = False
    alloc_bytes: int = 1 << 30
    transient: bool = False
    max_injections: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if not (math.isfinite(self.latency) and self.latency >= 0.0):
            raise ValueError(f"latency must be a finite number >= 0, "
                             f"got {self.latency}")
        if self.alloc_bytes < 0:
            raise ValueError(
                f"alloc_bytes must be >= 0, got {self.alloc_bytes}")
        if self.op_index is not None and self.op_index < 0:
            raise ValueError(f"op_index must be >= 0, got {self.op_index}")

    def matches(self, op_index: int, name: str, phase: str) -> bool:
        if self.op_name is not None and self.op_name != name:
            return False
        if self.phase is not None and self.phase != phase:
            return False
        if self.op_index is not None and self.op_index != op_index:
            return False
        return True


@dataclass(frozen=True)
class Injection:
    """A fault that fired on one op; consumed by the dispatcher."""

    kind: str
    op_index: int
    op_name: str
    phase: str
    spec: FaultSpec

    @property
    def raises(self) -> bool:
        return self.kind == FAULT_RAISE

    @property
    def transient(self) -> bool:
        return self.spec.transient

    @property
    def poison(self) -> Optional[float]:
        if self.kind == FAULT_NAN:
            return math.nan
        if self.kind == FAULT_INF:
            return math.inf
        return None

    @property
    def extra_latency(self) -> float:
        return self.spec.latency if self.kind == FAULT_LATENCY else 0.0

    @property
    def blocking(self) -> bool:
        return self.kind == FAULT_LATENCY and self.spec.blocking

    @property
    def extra_live_bytes(self) -> int:
        return self.spec.alloc_bytes if self.kind == FAULT_ALLOC else 0


class FaultPlan:
    """A seeded set of fault rules, installable as a fault hook.

    The plan keeps its own op counter (every considered op increments
    it, fault or not), so injection sites are addressable by dispatch
    index.  :meth:`reset` rewinds the counter and the injection log;
    the resilient runner calls it before every attempt so each retry
    sees the identical schedule.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self.injections: List[Injection] = []
        self._op_index = 0
        self._fired = [0] * len(self.specs)

    @classmethod
    def single(cls, kind: str, seed: int = 0, **spec_kwargs: object) -> "FaultPlan":
        """Convenience constructor for a one-rule plan."""
        return cls([FaultSpec(kind=kind, **spec_kwargs)], seed=seed)  # type: ignore[arg-type]

    # -- hook protocol -------------------------------------------------------
    def consider(self, name: str, phase: str, stage: str) -> Optional[Injection]:
        """Decide whether a fault fires on this op (dispatcher callback)."""
        op_index = self._op_index
        self._op_index += 1
        for spec_index, spec in enumerate(self.specs):
            if not spec.matches(op_index, name, phase):
                continue
            limit = spec.max_injections
            if limit is not None and self._fired[spec_index] >= limit:
                continue
            if spec.rate < 1.0:
                draw = random.Random(
                    f"{self.seed}:{spec_index}:{op_index}").random()
                if draw >= spec.rate:
                    continue
            injection = Injection(kind=spec.kind, op_index=op_index,
                                  op_name=name, phase=phase, spec=spec)
            self._fired[spec_index] += 1
            self.injections.append(injection)
            return injection
        return None

    # -- bookkeeping ---------------------------------------------------------
    def reset(self) -> None:
        """Rewind to a fresh run: op counter, fire counts, injection log."""
        self._op_index = 0
        self._fired = [0] * len(self.specs)
        self.injections = []

    @property
    def ops_considered(self) -> int:
        return self._op_index

    def schedule(self) -> List[tuple]:
        """Compact, comparable record of what fired: (index, name, kind)."""
        return [(i.op_index, i.op_name, i.kind) for i in self.injections]

    def describe(self) -> str:
        """Human-readable injection log (the CLI's experiment report)."""
        lines = [f"fault plan: seed={self.seed}, "
                 f"{len(self.specs)} spec(s), "
                 f"{self.ops_considered} ops considered, "
                 f"{len(self.injections)} injection(s)"]
        for inj in self.injections[:20]:
            lines.append(f"  op {inj.op_index:>5d}  {inj.op_name:<24s} "
                         f"phase={inj.phase or '-':<10s} -> {inj.kind}")
        if len(self.injections) > 20:
            lines.append(f"  ... and {len(self.injections) - 20} more")
        return "\n".join(lines)

    # -- context-manager protocol --------------------------------------------
    def __enter__(self) -> "FaultPlan":
        push_fault_hook(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        pop_fault_hook(self)
