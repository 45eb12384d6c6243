"""Worker pool: threads executing batches on bound devices.

Each :class:`Worker` binds one :class:`~repro.hwsim.device.DeviceSpec`
and owns a :class:`~repro.resilience.runner.ResilientRunner` on that
device, whose factory is the shared
:class:`~repro.serve.cache.ArtifactCache`: the runner characterizes
each batch's trace on the worker's device, and that report's latency
is the batch's *modeled* service time there.  A batch's key is
its cache key.  Faults degrade individual batches (the runner's
contract) instead of killing the worker thread, so the pool survives
hostile load.

A worker replays a batch key that has kept a plan, an earlier eager
trace of the key (:meth:`~repro.serve.cache.ArtifactCache.plan`), and
offers the cache the trace of each fault-free eager run that succeeded
on its first attempt (:meth:`~repro.serve.cache.ArtifactCache.offer`).
Fault-plan batches neither replay nor offer.

:meth:`WorkerPool.execute` is the batch-mode entry (a fixed batch
plan, results keyed by bid); :meth:`WorkerPool.execute_live` serves
the live server, each idle worker pulling its next batch through a
shared ``take`` callable.  Both run the same worker loop.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.hwsim.device import DeviceSpec
from repro.obs.spans import SpanCollector, SpanRecord
from repro.obs.spans import span as _span
from repro.resilience.faults import FaultPlan
from repro.resilience.runner import (REPLAYED, STATUS_FAILED,
                                     ResilientRunner, WorkloadOutcome)
from repro.serve.batcher import Batch
from repro.serve.cache import ArtifactCache
from repro.serve.tracing import batch_trace_id

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
                 max_retries: int = 1,
                 fault_plans: Optional[Dict[str, FaultPlan]] = None):
        self.index = index
        self.name = f"worker-{index}"
        self.device = device
        self.cache = cache
        self.fault_plans = fault_plans or {}
        # timeout=None keeps attempts on this thread, under the batch's
        # span, so every span of the batch inherits its trace id.
        self.runner = ResilientRunner(
            device=device, timeout=timeout, max_retries=max_retries,
            factory=cache.factory())

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
        collector = SpanCollector()
        start = perf_counter()
        # runner attempts and profile spans open beneath serve:batch
        # and inherit the batch trace id, which stays linkable to the
        # member requests through the span's rids/traces attributes
        with collector:
            with _span("serve:batch", trace_id=batch_trace_id(batch),
                       bid=batch.bid, workload=batch.workload,
                       size=batch.size, worker=self.name,
                       device=self.device.name,
                       rids=[r.rid for r in batch.requests],
                       traces=[r.trace_id for r in batch.requests]):
                outcome = self.runner.run_workload(
                    batch.workload, seed=batch.seed,
                    fault_plan=fault_plan,
                    plan=self.cache.plan(batch.key), **batch.params)
        wall = perf_counter() - start
        kept = (fault_plan is None and outcome.ok
                and outcome.attempts == 1 and outcome.replay != REPLAYED
                and self.cache.offer(batch.key, outcome.report.trace))
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
