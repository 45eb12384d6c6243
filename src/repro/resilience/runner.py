"""Resilient workload execution: timeouts, retries, circuit breakers.

:class:`ResilientRunner` wraps ``Workload.profile()`` +
``characterize`` with the protections a long-lived characterization
service needs:

* **wall-clock timeouts** — each attempt runs on a worker thread; a
  hung workload is abandoned (the thread cannot be killed, but the
  roster moves on) and reported as :class:`WorkloadTimeout`;
* **classified retries** — transient errors (timeouts, memory/OS
  pressure, faults marked transient) are retried with exponential
  backoff, deterministic jitter, and seed rotation; deterministic
  errors fail fast because re-running reproducible bugs wastes time;
* **per-workload circuit breakers** — repeated failures open the
  breaker so a service does not keep burning cycles on a broken
  workload; after a cooldown one half-open trial run decides whether
  to close it again;
* **health-gated reporting** — a profile that completes but fails
  health checks (:mod:`repro.resilience.health`) is *quarantined*: its
  report is kept and flagged ``degraded`` instead of poisoning the
  roster's aggregate figures.

:func:`run_roster` applies the runner across the Table III roster and
returns a :class:`RosterReport` in which every workload is ``ok``,
``degraded``, or ``failed`` — one crash no longer aborts the run.

The runner is also an observability source: each ``run_workload`` call
collects a span timeline (``run:<name>`` / ``attempt#N`` /
``health_check`` / ``backoff``) onto the outcome's ``spans`` and, when
metrics collection is enabled, bumps the ``repro_attempts_total`` /
``repro_retries_total`` / ``repro_runs_total`` counters
(:mod:`repro.obs.metrics`).

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
from repro.obs import metrics as _metrics
from repro.obs.spans import SpanCollector, SpanRecord
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


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attempt *i* (0-based) that fails transiently sleeps
    ``min(base * factor**i, max_delay) * (1 + jitter * u)`` where
    ``u`` is drawn from a ``Random(seed)`` stream — deterministic for
    tests, decorrelated across workloads via per-workload seeds.
    """

    max_retries: int = 2
    base_delay: float = 0.1
    factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.base_delay * self.factor ** attempt,
                   self.max_delay)
        return base * (1.0 + self.jitter * rng.random())

    def schedule(self, seed: int = 0) -> List[float]:
        """The full backoff schedule this policy would sleep through."""
        rng = random.Random(seed)
        return [self.delay(i, rng) for i in range(self.max_retries)]


class CircuitBreaker:
    """Classic closed / open / half-open breaker for one workload.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``cooldown`` seconds a single half-open trial is allowed — success
    closes the breaker, failure re-opens it immediately.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May an attempt run now?  Transitions open → half-open."""
        if self.state == self.OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
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
                or self.consecutive_failures >= self.failure_threshold):
            self.state = self.OPEN
            self._opened_at = self._clock()


@dataclass
class WorkloadOutcome:
    """One roster entry: how a workload fared under the runner."""

    name: str
    status: str
    report: Optional[WorkloadReport] = None
    health: Optional[HealthReport] = None
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


@dataclass
class RosterReport:
    """Outcome of a resilient roster run; never partially lost."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)

    def by_status(self, status: str) -> List[WorkloadOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def healthy(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        out = {STATUS_OK: 0, STATUS_DEGRADED: 0, STATUS_FAILED: 0}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def render(self) -> str:
        rows = []
        for o in self.outcomes:
            latency = (format_time(o.report.latency.total_time)
                       if o.report is not None
                       and o.report.latency.total_time > 0 else "n/a")
            note = ""
            if o.status == STATUS_DEGRADED and o.health is not None:
                note = "failed checks: " + ", ".join(o.health.failing())
            elif o.status == STATUS_FAILED and o.error is not None:
                note = f"{o.error_type}: {o.error}"
            rows.append([o.name.upper(), o.status, o.attempts,
                         format_time(o.elapsed), latency, note[:60]])
        counts = self.counts()
        table = render_table(
            ["workload", "status", "attempts", "wall", "projected", "note"],
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
                parts.append(f"{o.name}: {o.error_class} error "
                             f"after {o.attempts} attempt(s) -> "
                             f"{o.error_type}: {o.error}")
        return "\n".join(parts)


class ResilientRunner:
    """Executes workloads with timeouts, retries, and circuit breaking.

    ``sleep`` and ``clock`` are injectable for tests; ``factory``
    defaults to the workload registry's ``create``.
    """

    def __init__(self,
                 device: DeviceSpec = RTX_2080TI,
                 timeout: Optional[float] = 120.0,
                 retry: Optional[RetryPolicy] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 rotate_seed: bool = True,
                 expected_phases: Sequence[str] = (PHASE_NEURAL,
                                                   PHASE_SYMBOLIC),
                 factory: Optional[Callable[..., object]] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        if factory is None:
            from repro.workloads import create as factory  # deferred (cycle)
        self.device = device
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.rotate_seed = rotate_seed
        self.expected_phases = tuple(expected_phases)
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
                self._breakers[name] = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown, clock=self.clock)
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
        if _metrics.ENABLED:
            _metrics.observe_run(name, outcome.status)
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

        for attempt in range(self.retry.max_attempts):
            if not breaker.allow():
                last_error = CircuitOpenError(
                    f"circuit for {name!r} is open "
                    f"({breaker.consecutive_failures} consecutive "
                    f"failures)")
                break
            attempts += 1
            if _metrics.ENABLED:
                _metrics.observe_attempt(name)
            run_seed = seed + attempt if self.rotate_seed else seed
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
                        or attempt + 1 >= self.retry.max_attempts):
                    break
                if _metrics.ENABLED:
                    _metrics.observe_retry(name)
                with _span("backoff", attempt=attempt):
                    self.sleep(self.retry.delay(attempt, rng))
                continue

            with _span("health_check", workload=name) as hc_span:
                health = check_trace_health(
                    trace, expected_phases=self.expected_phases)
                if hc_span is not None:
                    hc_span.attrs["ok"] = health.ok
            report = self._safe_characterize(trace)
            if health.ok and report is not None:
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
                elapsed=self.clock() - started, replay=replay)

        assert last_error is not None
        return WorkloadOutcome(
            name=name, status=STATUS_FAILED,
            error=str(last_error),
            error_type=type(last_error).__name__,
            error_class=classify_error(last_error),
            attempts=attempts, elapsed=self.clock() - started)

    # -- internals -----------------------------------------------------------
    def _attempt(self, name: str, seed: int,
                 fault_plan: Optional[FaultPlan],
                 params: Dict[str, object],
                 plan: Optional[Trace]) -> Tuple[Trace, Optional[str]]:
        """One profiling attempt, bounded by the wall-clock budget.

        Returns the trace and what became of ``plan``
        (:attr:`WorkloadOutcome.replay`).  The fault plan is installed
        *inside* the worker callable: the fault-hook stack is
        thread-local, and the attempt may run on a pool thread.

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
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"resilient-{name}")
        future = pool.submit(work)
        try:
            result = future.result(timeout=self.timeout)
        except concurrent.futures.TimeoutError:
            # The worker thread cannot be killed; abandon it.  It will
            # finish (or hang) in the background while the roster
            # continues — bounded progress beats a wedged run.
            pool.shutdown(wait=False, cancel_futures=True)
            raise WorkloadTimeout(
                f"{name!r} exceeded {self.timeout:.1f}s wall-clock "
                f"budget") from None
        pool.shutdown(wait=True)
        return result

    def _safe_characterize(self, trace: Trace) -> Optional[WorkloadReport]:
        """Analyses on a possibly-poisoned trace; ``None`` if they die."""
        try:
            return characterize_trace(trace, self.device, validate=False)
        except Exception:
            return None


def run_roster(names: Optional[Sequence[str]] = None,
               runner: Optional[ResilientRunner] = None,
               device: DeviceSpec = RTX_2080TI,
               seed: int = 0,
               fault_plans: Optional[Dict[str, FaultPlan]] = None,
               **params: object) -> RosterReport:
    """Characterize the roster, degrading instead of aborting.

    Drop-in resilient counterpart of
    :func:`repro.core.suite.characterize_all`: every workload ends in
    exactly one outcome and a broken entry never takes down its peers.
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
