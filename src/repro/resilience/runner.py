"""Resilient workload execution: timeouts, retries, circuit breakers.

:class:`ResilientRunner` wraps ``Workload.profile()`` +
``characterize`` with the protections a long-lived characterization
service needs:

* **wall-clock timeouts** — each attempt runs on a worker thread; a
  hung workload is abandoned (the thread cannot be killed, but the
  roster moves on) and reported as :class:`WorkloadTimeout`;
* **classified retries** — transient errors (timeouts, memory/OS
  pressure, faults marked transient) are retried, up to
  ``max_retries`` times, with exponential backoff, deterministic
  jitter, and seed rotation (:func:`backoff_delay`); deterministic
  errors fail fast because re-running reproducible bugs wastes time;
* **per-workload circuit breakers** — :data:`BREAKER_THRESHOLD`
  consecutive failures open the breaker so a service does not keep
  burning cycles on a broken workload; after
  :data:`BREAKER_COOLDOWN` seconds one half-open trial run decides
  whether to close it again;
* **health-gated reporting** — a profile that completes but fails
  health checks (:mod:`repro.resilience.health`) is *quarantined*: its
  report is kept and flagged ``degraded`` instead of poisoning the
  roster's aggregate figures.

:func:`run_roster` applies the runner across the Table III roster and
returns a :class:`RosterReport` in which every workload is ``ok``,
``degraded``, or ``failed`` — one crash no longer aborts the run.

The runner is also an observability source: each ``run_workload`` call
collects a span timeline (``run:<name>`` / ``attempt#N`` /
``health_check`` / ``backoff``) onto the outcome's ``spans``.  The
outcome itself records how the run went: ``status``, ``attempts``,
and the health report that quarantined it, if any.

A caller holding a *plan*, an earlier eager trace of the same run
(:mod:`repro.compile`), passes it to
:meth:`ResilientRunner.run_workload`: the first attempt of a
fault-free run replays it, and falls back to eager on the same
attempt if the plan diverges.  :attr:`WorkloadOutcome.replay` says
which happened.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compile.executor import replay as _replay
from repro.compile.plan import PlanError
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace
from repro.core.report import format_time, render_table
from repro.core.suite import WorkloadReport, characterize_trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.obs.spans import (SpanCollector, SpanRecord, adopted,
                             current_span, deliver)
from repro.obs.spans import span as _span
from repro.resilience.faults import FaultPlan
from repro.resilience.health import HealthReport, check_trace_health
from repro.tensor.context import InjectedFaultError

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"

TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: what the first attempt did with an offered plan
#: (:attr:`WorkloadOutcome.replay`)
REPLAYED = "replayed"
FALLBACK = "fallback"

#: Exception types retrying can plausibly fix: resource pressure and
#: anything timeout-shaped.  Everything else is assumed reproducible.
TRANSIENT_ERROR_TYPES = (TimeoutError, MemoryError, ConnectionError,
                         OSError)

#: backoff before retry *i* (0-based): ``min(BACKOFF_BASE *
#: BACKOFF_FACTOR**i, BACKOFF_MAX)`` seconds, stretched by up to
#: ``BACKOFF_JITTER`` (see :func:`backoff_delay`)
BACKOFF_BASE = 0.1
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0
BACKOFF_JITTER = 0.1

#: consecutive failures that open a workload's circuit breaker, and
#: the seconds it stays open before one half-open trial
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 30.0

#: phases a healthy trace must have recorded
EXPECTED_PHASES = (PHASE_NEURAL, PHASE_SYMBOLIC)


class WorkloadTimeout(TimeoutError):
    """An attempt exceeded the runner's wall-clock budget."""


class CircuitOpenError(RuntimeError):
    """Execution refused because the workload's circuit breaker is open."""


def classify_error(exc: BaseException) -> str:
    """``transient`` (worth retrying) or ``deterministic`` (fail fast)."""
    if isinstance(exc, InjectedFaultError):
        return TRANSIENT if exc.transient else DETERMINISTIC
    if isinstance(exc, TRANSIENT_ERROR_TYPES):
        return TRANSIENT
    return DETERMINISTIC


def _error_fields(exc: Optional[BaseException]) -> Dict[str, str]:
    """An outcome's ``error``, ``error_type`` and ``error_class``."""
    if exc is None:
        return {}
    return {"error": str(exc), "error_type": type(exc).__name__,
            "error_class": classify_error(exc)}


def backoff_delay(attempt: int, rng: random.Random) -> float:
    """Seconds to sleep after failed attempt ``attempt`` (0-based).

    Exponential in ``attempt`` up to :data:`BACKOFF_MAX`, times
    ``1 + BACKOFF_JITTER * u`` where ``u`` is the next draw of
    ``rng`` — the runner seeds it per run, so the schedule is
    deterministic for tests and decorrelated across workloads.
    """
    base = min(BACKOFF_BASE * BACKOFF_FACTOR ** attempt, BACKOFF_MAX)
    return base * (1.0 + BACKOFF_JITTER * rng.random())


class CircuitBreaker:
    """Classic closed / open / half-open breaker for one workload.

    :data:`BREAKER_THRESHOLD` consecutive failures open the breaker;
    after :data:`BREAKER_COOLDOWN` seconds on ``clock`` a single
    half-open trial is allowed — success closes the breaker, failure
    re-opens it immediately.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May an attempt run now?  Transitions open → half-open."""
        if self.state == self.OPEN:
            if self._clock() - self._opened_at >= BREAKER_COOLDOWN:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (self.state == self.HALF_OPEN
                or self.consecutive_failures >= BREAKER_THRESHOLD):
            self.state = self.OPEN
            self._opened_at = self._clock()


@dataclass
class WorkloadOutcome:
    """One roster entry: how a workload fared under the runner."""

    name: str
    status: str
    report: Optional[WorkloadReport] = None
    health: Optional[HealthReport] = None
    #: what failed the run, or what crashed the characterization of a
    #: completed one (then ``degraded``)
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_class: Optional[str] = None
    attempts: int = 0
    elapsed: float = 0.0
    spans: List[SpanRecord] = field(default_factory=list)
    #: :data:`REPLAYED` when the first attempt completed against the
    #: offered plan, :data:`FALLBACK` when the plan diverged and that
    #: attempt completed eager instead; ``None`` otherwise
    replay: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def note(self) -> str:
        """Why the run is not ok: its failed checks, then its error."""
        notes = []
        if self.health is not None and not self.health.ok:
            notes.append("failed checks: " + ", ".join(self.health.failing()))
        if self.error is not None:
            notes.append(f"{self.error_type}: {self.error}")
        return "; ".join(notes)


@dataclass
class RosterReport:
    """Outcome of a resilient roster run; never partially lost."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        out = {STATUS_OK: 0, STATUS_DEGRADED: 0, STATUS_FAILED: 0}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def render(self) -> str:
        """Status table with the Fig. 2a latency split per workload."""
        rows = []
        for o in self.outcomes:
            latency = neural = symbolic = "n/a"
            if o.report is not None and o.report.latency.total_time > 0:
                split = o.report.latency
                latency = format_time(split.total_time)
                neural = f"{split.neural_fraction * 100:.1f}%"
                symbolic = f"{split.symbolic_fraction * 100:.1f}%"
            rows.append([o.name.upper(), o.status, o.attempts,
                         format_time(o.elapsed), latency, neural,
                         symbolic, o.note[:60]])
        counts = self.counts()
        table = render_table(
            ["workload", "status", "attempts", "wall", "projected",
             "neural %", "symbolic %", "note"],
            rows,
            title=(f"resilient roster: {counts[STATUS_OK]} ok, "
                   f"{counts[STATUS_DEGRADED]} degraded, "
                   f"{counts[STATUS_FAILED]} failed"))
        quarantine = [o for o in self.outcomes if not o.ok]
        if not quarantine:
            return table
        parts = [table, "", "quarantine report", "-" * 17]
        for o in quarantine:
            if o.health is not None and not o.health.ok:
                parts.append(o.health.render())
            if o.error is not None:
                during = ("while characterizing"
                          if o.status == STATUS_DEGRADED
                          else f"after {o.attempts} attempt(s)")
                parts.append(f"{o.name}: {o.error_class} error {during} "
                             f"-> {o.error_type}: {o.error}")
        return "\n".join(parts)


class ResilientRunner:
    """Executes workloads with timeouts, retries, and circuit breaking.

    Each run makes at most ``max_retries + 1`` attempts (``max_retries
    >= 0``); retry *i* runs with seed ``seed + i``.  ``timeout`` is
    each attempt's budget in seconds (> 0), or ``None`` to run
    attempts on the calling thread without one.  ``sleep`` and
    ``clock`` are injectable for tests; ``factory`` defaults to the
    workload registry's ``create``.
    """

    def __init__(self,
                 device: DeviceSpec = RTX_2080TI,
                 timeout: Optional[float] = 120.0,
                 max_retries: int = 2,
                 factory: Optional[Callable[..., object]] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be > 0 or None, got {timeout}")
        if factory is None:
            from repro.workloads import create as factory  # deferred (cycle)
        self.device = device
        self.timeout = timeout
        self.max_retries = max_retries
        self.factory = factory
        self.sleep = sleep
        self.clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        # the serving worker pool shares one runner across threads;
        # lazy breaker creation must not race
        self._breakers_lock = threading.Lock()

    def breaker(self, name: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker for ``name``."""
        with self._breakers_lock:
            if name not in self._breakers:
                self._breakers[name] = CircuitBreaker(clock=self.clock)
            return self._breakers[name]

    # -- single workload -----------------------------------------------------
    def run_workload(self, name: str, seed: int = 0,
                     fault_plan: Optional[FaultPlan] = None,
                     plan: Optional[Trace] = None,
                     **params: object) -> WorkloadOutcome:
        """Profile + characterize ``name`` under full protection.

        Never raises for workload misbehaviour: every path ends in an
        ``ok`` / ``degraded`` / ``failed`` outcome carrying the span
        timeline of the run (attempts, backoffs, health checks).

        ``plan`` is an earlier eager trace of this exact run (name,
        seed, params).  Only the first attempt of a run without a
        ``fault_plan`` replays it; retries and fault-injection runs
        are always eager.
        """
        collector = SpanCollector()
        with collector:
            with _span(f"run:{name}", workload=name, seed=seed) as run_span:
                outcome = self._run_protected(name, seed, fault_plan,
                                              plan, params)
                if run_span is not None:
                    run_span.attrs["status"] = outcome.status
                    run_span.attrs["attempts"] = outcome.attempts
        outcome.spans = collector.spans
        return outcome

    def _run_protected(self, name: str, seed: int,
                       fault_plan: Optional[FaultPlan],
                       plan: Optional[Trace],
                       params: Dict[str, object]) -> WorkloadOutcome:
        breaker = self.breaker(name)
        rng = random.Random(seed)
        started = self.clock()
        last_error: Optional[BaseException] = None
        attempts = 0
        replay: Optional[str] = None
        max_attempts = self.max_retries + 1

        for attempt in range(max_attempts):
            if not breaker.allow():
                last_error = CircuitOpenError(
                    f"circuit for {name!r} is open "
                    f"({breaker.consecutive_failures} consecutive "
                    f"failures)")
                break
            attempts += 1
            run_seed = seed + attempt
            error: Optional[BaseException] = None
            with _span(f"attempt#{attempts}", seed=run_seed) as att_span:
                try:
                    trace, replay = self._attempt(
                        name, run_seed, fault_plan, params,
                        plan if attempt == 0 else None)
                except BaseException as exc:  # noqa: BLE001 - boundary by design
                    error = exc
                    if att_span is not None:
                        att_span.attrs["status"] = "error"
                        att_span.attrs["error"] = type(exc).__name__
                else:
                    if att_span is not None:
                        att_span.attrs["status"] = "ok"
            if error is not None:
                breaker.record_failure()
                last_error = error
                if (classify_error(error) == DETERMINISTIC
                        or attempt + 1 >= max_attempts):
                    break
                with _span("backoff", attempt=attempt):
                    self.sleep(backoff_delay(attempt, rng))
                continue

            with _span("health_check", workload=name) as hc_span:
                health = check_trace_health(
                    trace, expected_phases=EXPECTED_PHASES)
                if hc_span is not None:
                    hc_span.attrs["ok"] = health.ok
            report = error = None
            try:    # the analyses may die on a poisoned trace
                report = characterize_trace(trace, self.device,
                                            validate=False)
            except Exception as exc:  # noqa: BLE001 - kept on the outcome
                error = exc
            if health.ok and error is None:
                breaker.record_success()
                return WorkloadOutcome(
                    name=name, status=STATUS_OK, report=report,
                    health=health, attempts=attempts,
                    elapsed=self.clock() - started, replay=replay)
            # Ran to completion but is not trustworthy: quarantine it.
            # No retry — with a deterministic workload + plan the rerun
            # would reproduce the same poisoned trace.
            breaker.record_failure()
            return WorkloadOutcome(
                name=name, status=STATUS_DEGRADED, report=report,
                health=health, attempts=attempts,
                elapsed=self.clock() - started, replay=replay,
                **_error_fields(error))

        assert last_error is not None
        return WorkloadOutcome(
            name=name, status=STATUS_FAILED, attempts=attempts,
            elapsed=self.clock() - started, **_error_fields(last_error))

    # -- internals -----------------------------------------------------------
    def _attempt(self, name: str, seed: int,
                 fault_plan: Optional[FaultPlan],
                 params: Dict[str, object],
                 plan: Optional[Trace]) -> Tuple[Trace, Optional[str]]:
        """One profiling attempt, bounded by the wall-clock budget.

        Returns the trace and what became of ``plan``
        (:attr:`WorkloadOutcome.replay`).  The fault plan is installed
        *inside* the worker callable: the fault-hook stack is
        thread-local, and the attempt may run on a pool thread.  There
        it runs inside this thread's open span, so its spans and ops
        attribute as they would here; its spans join this thread's
        collectors once it finishes within the budget, and an
        abandoned attempt's never do.

        With a ``plan`` the attempt replays it.  Only replay errors
        (:class:`~repro.compile.plan.PlanError`, which includes
        divergence) fall back to eager, on a fresh instance, since a
        diverged replay may have mutated its own; a workload error
        raised during replay propagates and classifies exactly as it
        would have eagerly.
        """
        def work() -> Tuple[Trace, Optional[str]]:
            workload = self.factory(name, seed=seed, **params)
            if fault_plan is not None:
                fault_plan.reset()
                with fault_plan:
                    return workload.profile(), None
            if plan is None:
                return workload.profile(), None
            try:
                return _replay(workload, plan), REPLAYED
            except PlanError:
                workload = self.factory(name, seed=seed, **params)
                return workload.profile(), FALLBACK

        if self.timeout is None:
            return work()
        parent = current_span()
        finished: List[SpanRecord] = []

        def work_inside_parent() -> Tuple[Trace, Optional[str]]:
            with adopted(parent, finished):
                return work()

        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"resilient-{name}")
        future = pool.submit(work_inside_parent)
        if not concurrent.futures.wait([future], self.timeout).done:
            # The worker thread cannot be killed; abandon it.  It will
            # finish (or hang) in the background while the roster
            # continues — bounded progress beats a wedged run.
            pool.shutdown(wait=False, cancel_futures=True)
            raise WorkloadTimeout(
                f"{name!r} exceeded {self.timeout:.1f}s wall-clock "
                f"budget")
        pool.shutdown(wait=True)
        deliver(finished)
        return future.result()


def run_roster(names: Optional[Sequence[str]] = None,
               runner: Optional[ResilientRunner] = None,
               device: DeviceSpec = RTX_2080TI,
               seed: int = 0,
               fault_plans: Optional[Dict[str, FaultPlan]] = None,
               **params: object) -> RosterReport:
    """Characterize the roster, degrading instead of aborting.

    Every workload ends in exactly one outcome and a broken entry
    never takes down its peers.
    """
    if runner is None:
        runner = ResilientRunner(device=device)
    if names is None:
        from repro.workloads import available  # deferred (cycle)
        names = available()
    plans = fault_plans or {}
    outcomes = [runner.run_workload(name, seed=seed,
                                    fault_plan=plans.get(name), **params)
                for name in names]
    return RosterReport(outcomes=outcomes)
