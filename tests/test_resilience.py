"""Resilience subsystem: fault injection, health checks, runner.

Covers the ISSUE-1 acceptance paths: fault-plan determinism, the
retry/backoff schedule, circuit-breaker transitions, degraded-vs-failed
classification, graceful roster degradation, and the three satellite
bugfixes (roster abort, non-finite validation, zero-latency render).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict

import numpy as np
import pytest

from repro import tensor as T
from repro.core.profiler import Trace, TraceEvent
from repro.core.suite import (RosterError, characterize_all,
                              characterize_trace)
from repro.core.taxonomy import NSParadigm, OpCategory
from repro.core.validate import validate_trace
from repro.hwsim.devices import RTX_2080TI
from repro.resilience import (FAULT_ALLOC, FAULT_INF, FAULT_LATENCY,
                              FAULT_NAN, FAULT_RAISE, CircuitBreaker,
                              FaultPlan, FaultSpec, InjectedFaultError,
                              ResilientRunner, RetryPolicy,
                              check_trace_health, classify_error,
                              run_roster)
from repro.resilience.runner import WorkloadTimeout
from repro.workloads import create
from repro.workloads.base import Workload, WorkloadInfo


# ---------------------------------------------------------------------------
# toy workloads (registry-free; handed to the runner via its factory hook)
# ---------------------------------------------------------------------------

def _toy_info(name: str) -> WorkloadInfo:
    return WorkloadInfo(
        name=name, full_name=name, paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="none", application="test", advantage="none",
        datasets=("synthetic",), datatype="float32",
        neural_workload="matmul", symbolic_workload="add")


class ToyWorkload(Workload):
    """Minimal healthy workload: real ops in both phases."""

    info = _toy_info("toy")

    def _build(self) -> None:
        rng = np.random.default_rng(self.params.get("seed", 0))
        self.x = T.Tensor(rng.standard_normal((8, 8)).astype(np.float32))
        self.w = T.Tensor(rng.standard_normal((8, 8)).astype(np.float32))

    def run(self) -> Dict[str, Any]:
        with T.phase("neural"):
            y = T.relu(T.matmul(self.x, self.w))
        with T.phase("symbolic"):
            z = T.add(y, y)
        return {"sum": float(z.numpy().sum())}


class FlakyWorkload(ToyWorkload):
    """Raises a transient error on its first ``failures`` profiles."""

    info = _toy_info("flaky")

    _calls = 0

    def __init__(self, failures: int = 0, exc: type = TimeoutError,
                 **params: Any):
        super().__init__(**params)
        self.failures = failures
        self.exc = exc

    def profile(self) -> Trace:
        cls = type(self)
        cls._calls += 1
        if cls._calls <= self.failures:
            raise self.exc(f"flaky failure #{cls._calls}")
        return super().profile()


class HangingWorkload(ToyWorkload):
    info = _toy_info("hanging")

    def run(self) -> Dict[str, Any]:
        time.sleep(0.4)
        return super().run()


def toy_factory(name: str, **params: Any) -> Workload:
    params.pop("seed", None)
    if name == "boom":
        flaky = FlakyWorkload(failures=10 ** 9, exc=ValueError)
        return flaky
    if name == "hang":
        return HangingWorkload()
    return ToyWorkload()


def quick_runner(**kwargs: Any) -> ResilientRunner:
    kwargs.setdefault("factory", toy_factory)
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("timeout", None)
    return ResilientRunner(**kwargs)


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

def _drive(plan: FaultPlan, n: int = 200) -> list:
    names = ("matmul", "add", "softmax", "index")
    phases = ("neural", "neural", "symbolic", "symbolic")
    for i in range(n):
        plan.consider(names[i % 4], phases[i % 4], "")
    return plan.schedule()


def test_fault_plan_same_seed_same_schedule():
    spec = FaultSpec(kind=FAULT_NAN, rate=0.25)
    first = _drive(FaultPlan([spec], seed=7))
    second = _drive(FaultPlan([spec], seed=7))
    assert first and first == second


def test_fault_plan_reset_replays_identically():
    plan = FaultPlan([FaultSpec(kind=FAULT_INF, rate=0.3)], seed=3)
    first = _drive(plan)
    plan.reset()
    assert plan.ops_considered == 0 and not plan.injections
    assert _drive(plan) == first


def test_fault_plan_seed_changes_schedule():
    spec = FaultSpec(kind=FAULT_NAN, rate=0.25)
    assert _drive(FaultPlan([spec], seed=0)) != _drive(
        FaultPlan([spec], seed=1))


def test_fault_spec_targeting_and_limits():
    plan = FaultPlan([FaultSpec(kind=FAULT_RAISE, op_name="softmax",
                                phase="symbolic", max_injections=2)])
    schedule = _drive(plan)
    assert len(schedule) == 2
    assert all(name == "softmax" for _, name, _ in schedule)

    plan = FaultPlan([FaultSpec(kind=FAULT_NAN, op_index=5)])
    schedule = _drive(plan)
    assert schedule == [(5, "add", FAULT_NAN)]


def test_fault_spec_rejects_bad_kind_and_rate():
    with pytest.raises(ValueError):
        FaultSpec(kind="meltdown")
    with pytest.raises(ValueError):
        FaultSpec(kind=FAULT_NAN, rate=1.5)


# ---------------------------------------------------------------------------
# dispatch integration
# ---------------------------------------------------------------------------

def _profiled_matmul(plan: FaultPlan) -> Trace:
    x = T.Tensor(np.ones((4, 4), dtype=np.float32))
    with T.profile("toy") as prof, plan, T.phase("neural"):
        T.matmul(x, x)
    return prof.trace


def test_nan_fault_poisons_event_and_output():
    trace = _profiled_matmul(FaultPlan.single(FAULT_NAN))
    event = trace[0]
    assert math.isnan(event.flops)
    assert math.isnan(event.output_sparsity)
    result = validate_trace(trace, require_flops=False)
    assert any("non-finite" in e for e in result.errors)


def test_inf_fault_detected_by_health():
    trace = _profiled_matmul(FaultPlan.single(FAULT_INF))
    health = check_trace_health(trace)
    assert "finite_counters" in health.failing()


def test_nan_fault_on_an_annotated_region_is_not_masked():
    # LNN sets its kb_forward_chain region's work counters from inside
    # the region; an injected poison must still reach the event
    plan = FaultPlan([FaultSpec(kind=FAULT_NAN,
                                op_name="kb_forward_chain")])
    with plan:
        trace = create("lnn", seed=0).profile()
    assert [(name, kind) for _, name, kind in plan.schedule()] \
        == [("kb_forward_chain", FAULT_NAN)]
    assert "finite_counters" in check_trace_health(trace).failing()


def test_raise_fault_propagates_with_metadata():
    plan = FaultPlan.single(FAULT_RAISE, op_index=0)
    with pytest.raises(InjectedFaultError) as excinfo:
        _profiled_matmul(plan)
    assert excinfo.value.op_name == "matmul"
    assert excinfo.value.op_index == 0
    assert not excinfo.value.transient


def test_latency_fault_inflates_recorded_wall_time():
    plan = FaultPlan.single(FAULT_LATENCY, latency=1.5)
    trace = _profiled_matmul(plan)
    assert trace[0].wall_time >= 1.5  # simulated, not slept


def test_alloc_fault_breaks_live_bytes_balance():
    plan = FaultPlan.single(FAULT_ALLOC, alloc_bytes=1 << 20)
    trace = _profiled_matmul(plan)
    trace.metadata["peak_live_bytes"] = 64  # runtime-tracked peak
    health = check_trace_health(trace)
    assert "live_bytes_balance" in health.failing()


# ---------------------------------------------------------------------------
# retry policy / circuit breaker
# ---------------------------------------------------------------------------

def test_retry_schedule_is_exponential_with_bounded_jitter():
    policy = RetryPolicy(max_retries=4, base_delay=0.1, factor=2.0,
                         max_delay=0.5, jitter=0.1)
    schedule = policy.schedule(seed=0)
    assert schedule == policy.schedule(seed=0)  # deterministic
    assert len(schedule) == 4
    for i, delay in enumerate(schedule):
        base = min(0.1 * 2.0 ** i, 0.5)
        assert base <= delay <= base * 1.1


def test_circuit_breaker_transitions():
    clock = [0.0]
    breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                             clock=lambda: clock[0])
    assert breaker.allow() and breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()

    clock[0] = 11.0
    assert breaker.allow()                     # cooldown elapsed: trial
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure()                   # trial failed: reopen
    assert breaker.state == CircuitBreaker.OPEN

    clock[0] = 22.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.consecutive_failures == 0


def test_classify_error():
    assert classify_error(TimeoutError()) == "transient"
    assert classify_error(MemoryError()) == "transient"
    assert classify_error(ValueError()) == "deterministic"
    assert classify_error(
        InjectedFaultError("x", transient=True)) == "transient"
    assert classify_error(InjectedFaultError("x")) == "deterministic"


# ---------------------------------------------------------------------------
# resilient runner
# ---------------------------------------------------------------------------

def test_runner_retries_transient_errors_with_backoff():
    FlakyWorkload._calls = 0
    sleeps = []
    runner = ResilientRunner(
        factory=lambda name, **kw: FlakyWorkload(failures=2),
        retry=RetryPolicy(max_retries=3, base_delay=0.1, jitter=0.0),
        sleep=sleeps.append, timeout=None)
    outcome = runner.run_workload("flaky", seed=0)
    assert outcome.status == "ok"
    assert outcome.attempts == 3
    assert sleeps == pytest.approx([0.1, 0.2])


def test_runner_fails_fast_on_deterministic_errors():
    sleeps = []
    runner = quick_runner(retry=RetryPolicy(max_retries=5),
                          sleep=sleeps.append)
    outcome = runner.run_workload("boom")
    assert outcome.status == "failed"
    assert outcome.attempts == 1
    assert outcome.error_type == "ValueError"
    assert outcome.error_class == "deterministic"
    assert sleeps == []


def test_runner_times_out_hung_workloads():
    runner = quick_runner(timeout=0.05,
                          retry=RetryPolicy(max_retries=0))
    outcome = runner.run_workload("hang")
    assert outcome.status == "failed"
    assert outcome.error_type == "WorkloadTimeout"
    assert outcome.error_class == "transient"
    assert classify_error(WorkloadTimeout("x")) == "transient"
    # the abandoned attempt wakes up after the timeout and dispatches
    # ops; let it finish here, not inside a later test's profiling or
    # self-profiling scope
    for thread in threading.enumerate():
        if thread.name.startswith("resilient-hang"):
            thread.join(timeout=5.0)
            assert not thread.is_alive()


def test_runner_breaker_opens_and_short_circuits():
    runner = quick_runner(
        factory=lambda name, **kw: FlakyWorkload(failures=10 ** 9,
                                                 exc=TimeoutError),
        retry=RetryPolicy(max_retries=6), breaker_threshold=2,
        breaker_cooldown=1000.0)
    FlakyWorkload._calls = 0
    outcome = runner.run_workload("flaky")
    assert outcome.status == "failed"
    assert outcome.attempts == 2              # threshold, not max_retries
    assert outcome.error_type == "CircuitOpenError"
    assert runner.breaker("flaky").state == CircuitBreaker.OPEN
    # while open, nothing runs at all
    outcome = runner.run_workload("flaky")
    assert outcome.attempts == 0


def test_runner_degraded_on_nan_keeps_quarantined_report():
    runner = quick_runner()
    outcome = runner.run_workload("toy",
                                  fault_plan=FaultPlan.single(FAULT_NAN))
    assert outcome.status == "degraded"
    assert "finite_counters" in outcome.health.failing()
    assert outcome.report is not None          # kept, flagged


def test_runner_failed_on_injected_exception():
    runner = quick_runner()
    plan = FaultPlan.single(FAULT_RAISE, op_index=1)
    outcome = runner.run_workload("toy", fault_plan=plan)
    assert outcome.status == "failed"
    assert outcome.error_type == "InjectedFaultError"
    assert "index 1" in outcome.error


def test_run_roster_degrades_instead_of_aborting():
    runner = quick_runner()
    report = run_roster(names=["toy", "boom", "toy2"], runner=runner,
                        fault_plans={"toy2": FaultPlan.single(FAULT_NAN)})
    statuses = {o.name: o.status for o in report.outcomes}
    assert statuses == {"toy": "ok", "boom": "failed", "toy2": "degraded"}
    assert not report.healthy
    assert report.counts() == {"ok": 1, "degraded": 1, "failed": 1}
    rendered = report.render()
    assert "quarantine report" in rendered
    assert "finite_counters" in rendered


def test_run_roster_real_workload_with_injected_exception():
    """ISSUE acceptance: one faulted roster entry, the rest complete."""
    runner = ResilientRunner(timeout=None,
                             retry=RetryPolicy(max_retries=0),
                             sleep=lambda s: None)
    plan = FaultPlan.single(FAULT_RAISE, op_index=3)
    report = run_roster(names=["lnn", "nvsa"], runner=runner,
                        fault_plans={"lnn": plan})
    by_name = {o.name: o for o in report.outcomes}
    assert by_name["lnn"].status == "failed"
    assert by_name["lnn"].error_type == "InjectedFaultError"
    assert by_name["nvsa"].status == "ok"


# ---------------------------------------------------------------------------
# satellite bugfixes
# ---------------------------------------------------------------------------

def _minimal_trace(**overrides: Any) -> Trace:
    fields = dict(eid=0, name="matmul", category=OpCategory.MATMUL,
                  phase="neural", flops=1.0, bytes_read=8,
                  bytes_written=8, wall_time=1e-3, output_sparsity=0.0,
                  live_bytes=8)
    fields.update(overrides)
    trace = Trace("synthetic")
    trace.append(TraceEvent(**fields))
    return trace


@pytest.mark.parametrize("overrides", [
    {"flops": math.nan},
    {"flops": math.inf},
    {"wall_time": math.nan},
    {"bytes_read": math.inf},
    {"live_bytes": math.nan},
    {"output_sparsity": math.nan},
])
def test_validate_trace_rejects_non_finite_counters(overrides):
    result = validate_trace(_minimal_trace(**overrides),
                            require_flops=False)
    assert any("non-finite" in e for e in result.errors), result.errors


def test_validate_trace_still_accepts_finite_trace():
    assert validate_trace(_minimal_trace(), require_flops=False).ok


def test_render_zero_latency_trace_does_not_crash():
    report = characterize_trace(Trace("empty"), RTX_2080TI,
                                validate=False)
    # the crashing shape: phases present, zero total projected time
    report.latency.phase_times = {"neural": 0.0, "symbolic": 0.0}
    assert report.latency.total_time == 0.0
    rendered = report.render()   # seed behaviour: ZeroDivisionError
    assert "n/a" in rendered


def test_characterize_all_collects_failures(monkeypatch):
    from repro.workloads.nvsa import NVSAWorkload

    def explode(self):
        raise RuntimeError("intentionally broken workload")

    monkeypatch.setattr(NVSAWorkload, "profile", explode)
    with pytest.raises(RosterError) as excinfo:
        characterize_all(names=["nvsa", "lnn"], seed=0)
    error = excinfo.value
    assert [name for name, _ in error.failures] == ["nvsa"]
    assert [r.workload for r in error.reports] == ["lnn"]
    assert "intentionally broken" in str(error)
    assert "succeeded: lnn" in str(error)
