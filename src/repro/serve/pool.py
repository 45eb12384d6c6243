"""Worker pool: threads executing batches on bound devices.

Each :class:`Worker` owns a :class:`~repro.resilience.runner.
ResilientRunner` whose factory is the shared
:class:`~repro.serve.cache.ArtifactCache`, and binds one
:class:`~repro.hwsim.device.DeviceSpec` — the device is what turns a
measured batch execution into a *modeled* per-device latency in the
server's dispatch simulation.  Faults degrade individual batches
(the runner's contract) instead of killing the worker thread, so the
pool survives hostile load.

A worker replays a batch key that has kept a plan, an earlier eager
trace of the key (:meth:`~repro.serve.cache.ArtifactCache.plan`), and
offers the cache the trace of each fault-free eager run that succeeded
on its first attempt (:meth:`~repro.serve.cache.ArtifactCache.offer`).
Fault-plan batches neither replay nor offer.

Workers announce themselves on a thread-local context stack
(:func:`push_worker` / :func:`pop_worker`, normally entered through
the :func:`bind_worker` context manager) so code running inside a
batch — fault hooks, metrics, diagnostics — can ask
:func:`current_worker` where it is.  The enter/exit pair on the
worker path must stay balanced; ``repro.lint`` rule RL005 enforces
this for external callers.

:meth:`WorkerPool.execute` is the batch-mode entry (a fixed batch
plan, results keyed by bid); :meth:`WorkerPool.execute_live` serves
the live server, each idle worker pulling its next batch through a
shared ``take`` callable.  Both run the same worker loop.
"""

from __future__ import annotations

import contextlib
import copy
import threading
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from repro.hwsim.device import DeviceSpec
from repro.obs.clock import perf_s
from repro.obs.spans import SpanCollector, SpanRecord
from repro.obs.spans import span as _span
from repro.resilience.faults import FaultPlan
from repro.resilience.runner import (REPLAYED, STATUS_FAILED,
                                     ResilientRunner, RetryPolicy,
                                     WorkloadOutcome)
from repro.serve.batcher import Batch
from repro.serve.cache import ArtifactCache, ArtifactKey
from repro.serve.tracing import batch_trace_context

_state = threading.local()


def _worker_stack() -> List["Worker"]:
    if not hasattr(_state, "workers"):
        _state.workers = []
    return _state.workers


def push_worker(worker: "Worker") -> None:
    """Enter ``worker``'s context on this thread (pair with pop)."""
    _worker_stack().append(worker)


def pop_worker() -> None:
    """Leave the innermost worker context on this thread."""
    stack = _worker_stack()
    if stack:
        stack.pop()


def current_worker() -> Optional["Worker"]:
    """The worker executing on this thread, if any."""
    stack = _worker_stack()
    return stack[-1] if stack else None


@contextlib.contextmanager
def bind_worker(worker: "Worker") -> Iterator["Worker"]:
    """Scoped worker context; the only sanctioned enter/exit pairing."""
    push_worker(worker)
    try:
        yield worker
    finally:
        pop_worker()


@dataclass
class BatchResult:
    """Outcome of executing one batch once."""

    batch: Batch
    status: str                      # ok / degraded / failed
    worker: str = ""
    device: str = ""
    attempts: int = 0
    wall: float = 0.0                # measured execution seconds
    error: Optional[str] = None
    error_type: Optional[str] = None
    outcome: Optional[WorkloadOutcome] = None
    spans: List[SpanRecord] = field(default_factory=list)
    #: the run's trace became its key's plan
    kept_plan: bool = False

    @property
    def trace(self):
        if self.outcome is not None and self.outcome.report is not None:
            return self.outcome.report.trace
        return None


class Worker:
    """One pool thread: a device binding plus a resilient runner."""

    def __init__(self, index: int, device: DeviceSpec,
                 cache: ArtifactCache,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 fault_plans: Optional[Dict[str, FaultPlan]] = None):
        self.index = index
        self.name = f"worker-{index}"
        self.device = device
        self.cache = cache
        self.fault_plans = fault_plans or {}
        # timeout=None keeps attempts on this thread, which preserves
        # thread-local metric/span bindings for the whole batch.
        self.runner = ResilientRunner(
            timeout=timeout,
            retry=retry or RetryPolicy(max_retries=1),
            factory=cache.factory(),
        )
        self.batches_executed = 0

    def execute_batch(self, batch: Batch) -> BatchResult:
        """Run ``batch``'s workload once under full protection.

        Faults and health failures surface as degraded/failed batch
        status — they never propagate out of this method, so one bad
        batch cannot take the worker thread down with it.
        """
        fault_plan = self.fault_plans.get(batch.workload)
        if fault_plan is not None:
            # The runner resets the plan before every attempt, so two
            # workers sharing one plan object would rewind each other's
            # op counters mid-run; each batch gets a private copy.
            fault_plan = copy.deepcopy(fault_plan)
        key = ArtifactKey(*batch.key)
        collector = SpanCollector()
        start = perf_s()
        # the batch's trace context becomes ambient for the whole
        # execution, so runner attempts and profile spans all carry
        # the batch trace id and stay linkable to the member requests
        ctx = batch_trace_context(batch)
        with bind_worker(self):
            with collector:
                with _span("serve:batch", ctx=ctx, bid=batch.bid,
                           workload=batch.workload, size=batch.size,
                           worker=self.name, device=self.device.name,
                           rids=[r.rid for r in batch.requests],
                           traces=[r.trace.trace_id
                                   for r in batch.requests
                                   if r.trace is not None]):
                    outcome = self.runner.run_workload(
                        batch.workload, seed=batch.seed,
                        fault_plan=fault_plan, plan=self.cache.plan(key),
                        **batch.params)
        wall = perf_s() - start
        kept = (fault_plan is None and outcome.ok
                and outcome.attempts == 1 and outcome.replay != REPLAYED
                and self.cache.offer(key, outcome.report.trace))
        self.batches_executed += 1
        return BatchResult(
            batch=batch, status=outcome.status, worker=self.name,
            device=self.device.name, attempts=outcome.attempts,
            wall=wall, error=outcome.error,
            error_type=outcome.error_type, outcome=outcome,
            spans=collector.spans, kept_plan=kept)


class WorkerPool:
    """Fixed set of worker threads, each running one batch at a time."""

    def __init__(self, workers: Sequence[Worker]):
        if not workers:
            raise ValueError("worker pool needs at least one worker")
        self.workers = list(workers)

    def _serve(self, worker: Worker, batches: Iterable[Batch],
               sink: Callable[[BatchResult], None]) -> None:
        """Execute each of ``batches`` on ``worker``, in turn (thread body)."""
        for batch in batches:
            try:
                sink(worker.execute_batch(batch))
            except Exception as exc:  # belt-and-braces: never die
                sink(BatchResult(batch=batch, status=STATUS_FAILED,
                                 worker=worker.name,
                                 device=worker.device.name,
                                 error=str(exc),
                                 error_type=type(exc).__name__))

    def execute(self, batches: Sequence[Batch]) -> Dict[int, BatchResult]:
        """Execute a fixed batch plan; returns results keyed by bid.

        Batches are partitioned round-robin instead of pulled from a
        shared source: each worker's batch sequence — and therefore
        the evolution of its runner's circuit breakers — is a pure
        function of the plan, keeping schedule-mode outcomes (status,
        attempts) bit-identical across runs.  Work-stealing would
        balance skewed batch costs better, but schedule mode trades
        that for its determinism contract.
        """
        results: Dict[int, BatchResult] = {}
        lock = threading.Lock()

        def sink(result: BatchResult) -> None:
            with lock:
                results[result.batch.bid] = result

        assignments: List[List[Batch]] = [[] for _ in self.workers]
        for index, batch in enumerate(batches):
            assignments[index % len(self.workers)].append(batch)
        threads = [threading.Thread(target=self._serve,
                                    args=(w, assigned, sink),
                                    name=f"serve-{w.name}", daemon=True)
                   for w, assigned in zip(self.workers, assignments)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def execute_live(self, take: Callable[[], Optional[Batch]],
                     sink: Callable[[BatchResult], None]) -> List[threading.Thread]:
        """Start workers that each pull batches from ``take``.

        A worker calls ``take`` whenever it is idle and exits once it
        returns ``None``.  Returns the (already started) threads; the
        caller owns the join.
        """
        threads = [threading.Thread(target=self._serve,
                                    args=(w, iter(take, None), sink),
                                    name=f"serve-{w.name}", daemon=True)
                   for w in self.workers]
        for thread in threads:
            thread.start()
        return threads
