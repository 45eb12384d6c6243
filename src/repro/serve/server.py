"""The inference server: admission → batching → pooled execution → SLO.

Two operating modes share every component:

**Deterministic schedule mode** (:meth:`InferenceServer.run_schedule`,
the ``repro serve bench`` path) splits serving into three phases so
the reported statistics are bit-identical across runs while the
execution still exercises real threads:

* *plan* — :func:`~repro.serve.batcher.plan_batches` decides
  admission and batch composition purely from virtual arrival
  timestamps;
* *execute* — the :class:`~repro.serve.pool.WorkerPool` runs every
  planned batch once on real worker threads (this yields the
  *measured* wall times and the deterministic per-batch outcome:
  status, attempts, trace);
* *dispatch* — a virtual-time simulation assigns batches to virtual
  workers in close order (earliest-available wins, index breaks
  ties) with the **modeled** per-device service time (the
  :func:`repro.core.analysis.latency_breakdown` total of the batch's
  trace), producing deterministic queue waits, completions, and
  deadline verdicts.

**Live mode** (:meth:`start` / :meth:`submit` / :meth:`stop`) serves
on the wall clock — used by closed-loop load and
``repro serve replay --realtime``.  Batching there is
work-conserving: requests wait in the bounded queue only while every
worker is busy, and an idle worker takes the head request together
with its queued same-key followers (up to ``max_batch_size``) and
runs them at once; ``max_wait`` plays no part.  Live figures are
measured, not deterministic.

Both modes admit with the same rule
(:func:`~repro.serve.queue.admission_reason` against
``ServeConfig.max_depth``) and build every executed request's
:class:`~repro.serve.request.Response` in one place
(:meth:`InferenceServer._response_for`), which also demotes an ``ok``
past its deadline to ``degraded``.
"""

from __future__ import annotations

import copy
import functools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import latency_breakdown
from repro.core.profiler import Trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.hwsim.latency import project_trace
from repro.resilience.faults import FaultPlan
from repro.resilience.runner import STATUS_DEGRADED, STATUS_OK
from repro.serve.batcher import Batch, BatchPolicy, plan_batches
from repro.serve.cache import ArtifactCache
from repro.serve.pool import BatchResult, Worker, WorkerPool
from repro.serve.queue import REJECT_SHUTDOWN, RequestQueue
from repro.serve.request import (Request, Response, make_request,
                                 rejection)
from repro.serve.stats import ServerStats
from repro.serve.tracing import (request_span_trees, response_event,
                                 spans_by_trace)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes an :class:`InferenceServer`."""

    workers: int = 2
    devices: Tuple[DeviceSpec, ...] = (RTX_2080TI,)
    max_depth: int = 256              # queued requests beyond this are shed
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    cache_capacity: int = 32
    timeout: Optional[float] = None   # per-attempt wall budget
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not self.devices:
            raise ValueError("need at least one device")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def device_for(self, index: int) -> DeviceSpec:
        """Worker ``index`` binds ``devices[index % len(devices)]``."""
        return self.devices[index % len(self.devices)]


@dataclass
class ServeReport:
    """Everything one serving run produced."""

    config: ServeConfig
    responses: List[Response]
    batches: List[Batch]
    batch_results: Dict[int, BatchResult]
    stats: ServerStats

    def summary(self) -> Dict[str, object]:
        return self.stats.summary()

    def report_trace(self) -> Optional[Trace]:
        """A representative batch trace with serving spans attached.

        Feeds :func:`repro.obs.report.write_report`: a new trace over
        the largest successfully executed batch's events, with the
        worker's span timeline (``serve:batch`` → ``run:<wl>`` →
        attempts → profile spans) grafted on so serving shows up in
        the HTML span lane.  The batch's own trace is left as
        recorded: its key may keep it as a replay plan.
        """
        best = None
        for result in self.batch_results.values():
            if result.trace is None:
                continue
            rank = (result.batch.size, -result.batch.bid)
            if best is None or rank > (best.batch.size, -best.batch.bid):
                best = result
        if best is None:
            return None
        spans = list(best.spans)
        # graft the synthesized per-request lifecycle trees on as well
        # (sids offset past the real worker spans) so the report's
        # waterfall section can render request causality
        sid_base = max((span.sid for span in spans), default=-1) + 1
        spans.extend(request_span_trees(self.responses, sid_base=sid_base))
        trace = Trace(best.trace.workload, best.trace)
        trace.metadata = dict(best.trace.metadata)
        trace.spans = spans
        return trace


class PendingResponse:
    """Future-like handle for one live-mode request."""

    def __init__(self, request: Request):
        self.request = request
        self._event = threading.Event()
        self._response: Optional[Response] = None

    def resolve(self, response: Response) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = 60.0) -> Response:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.rid} unresolved after {timeout}s")
        assert self._response is not None
        return self._response


class InferenceServer:
    """Batched concurrent inference over the workload roster."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 fault_plans: Optional[Dict[str, FaultPlan]] = None):
        self.config = config or ServeConfig()
        self.cache = ArtifactCache(capacity=self.config.cache_capacity)
        self.stats = ServerStats()
        self.workers = [
            Worker(index=i, device=self.config.device_for(i),
                   cache=self.cache, timeout=self.config.timeout,
                   max_retries=self.config.max_retries,
                   # each worker gets private plan copies: FaultPlan is
                   # stateful and must not be shared across threads
                   fault_plans=copy.deepcopy(fault_plans or {}))
            for i in range(self.config.workers)
        ]
        self.pool = WorkerPool(self.workers)
        # live-mode machinery (built by start())
        self._queue: Optional[RequestQueue] = None
        self._threads: List[threading.Thread] = []
        self._pending: Dict[int, PendingResponse] = {}
        self._pending_lock = threading.Lock()   # also guards the id counters
        self._rid = 0
        self._bid = 0
        self._epoch = 0.0
        # live telemetry sink (off by default; attach_telemetry wires it)
        self._telemetry = None

    # -- modeled latency -----------------------------------------------------
    @staticmethod
    def _modeled_latency(result: BatchResult, device: DeviceSpec) -> float:
        """Analytic service time of the batch's trace on ``device``.

        The worker's runner already characterized the trace on the
        device that ran the batch, so that report's latency is the
        answer there.  Only a schedule-mode virtual worker bound to a
        different device projects the trace again.
        """
        trace = result.trace
        if trace is None:
            return 0.0
        if device.name == result.device:
            return result.outcome.report.latency.total_time
        return latency_breakdown(project_trace(trace, device)).total_time

    # -- telemetry -----------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.obs.live.LiveTelemetry` sink (opt-in).

        Off by default: when nothing is attached the serving paths pay
        exactly one ``is None`` branch per response.
        """
        self._telemetry = telemetry

    def _publish(self, response: Response,
                 spans=None) -> None:
        if self._telemetry is not None:
            self._telemetry.record(response_event(response), spans=spans)

    # -- deterministic schedule mode -----------------------------------------
    def run_schedule(self, schedule: Sequence[Request]) -> ServeReport:
        """Serve a timestamped schedule; deterministic stats, real threads."""
        batches, rejections = plan_batches(
            schedule, self.config.batch, self.config.max_depth)
        start = perf_counter()
        results = self.pool.execute(batches)
        wall = perf_counter() - start

        responses = [rejection(request, reason)
                     for request, reason in rejections]
        responses.extend(self._virtual_dispatch(batches, results))
        responses.sort(key=lambda r: r.rid)

        if self._telemetry is not None:
            # replay the virtual timeline through the telemetry
            # pipeline in completion order — snapshots, tail samples,
            # and burn-rate alerts are all deterministic per schedule
            trees = spans_by_trace(request_span_trees(responses))
            for response in sorted(responses,
                                   key=lambda r: (r.arrival if r.status ==
                                                  "rejected" else r.completion,
                                                  r.rid)):
                self._publish(response, spans=trees.get(response.trace_id))
            self._telemetry.flush()

        peak = self._virtual_peak_depth(schedule, batches, rejections)
        for response in responses:
            self.stats.record_response(response)
        for bid in sorted(results):
            self.stats.record_batch(results[bid])
        self.stats.record_queue(peak)
        self.stats.record_cache(self.cache.stats())
        self.stats.wall_elapsed = wall
        return ServeReport(config=self.config, responses=responses,
                           batches=batches, batch_results=results,
                           stats=self.stats)

    def _virtual_dispatch(self, batches: Sequence[Batch],
                          results: Dict[int, BatchResult]) -> List[Response]:
        """Assign batches to virtual workers; deadline-check completions."""
        avail = [0.0] * len(self.workers)
        responses: List[Response] = []
        for batch in sorted(batches, key=lambda b: (b.close_time, b.bid)):
            result = results[batch.bid]
            widx = min(range(len(avail)),
                       key=lambda i: (max(avail[i], batch.close_time),
                                      avail[i], i))
            device = self.config.device_for(widx)
            service_start = max(avail[widx], batch.close_time)
            service = self._modeled_latency(result, device)
            completion = service_start + service
            avail[widx] = completion
            for request in batch.requests:
                responses.append(self._response_for(
                    request, batch, result,
                    worker=f"worker-{widx}", device=device.name,
                    service_start=service_start, service=service,
                    completion=completion,
                    dispatch_wait=max(0.0, service_start
                                      - batch.close_time)))
        return responses

    def _response_for(self, request: Request, batch: Batch,
                      result: BatchResult, *, worker: str, device: str,
                      service_start: float, service: float,
                      completion: float,
                      dispatch_wait: float) -> Response:
        """The response of ``request``, executed in ``batch``.

        A request completing past its deadline is a degradation: an
        ``ok`` batch outcome becomes ``degraded`` for that request.
        """
        status = result.status
        exceeded = (request.deadline is not None
                    and completion - request.arrival > request.deadline)
        if exceeded and status == STATUS_OK:
            status = STATUS_DEGRADED   # SLO miss is a degradation
        return Response(
            rid=request.rid, workload=request.workload, status=status,
            bid=batch.bid, batch_size=batch.size, worker=worker,
            device=device, arrival=request.arrival,
            queue_wait=batch.queue_wait(request),
            service_start=service_start, modeled_latency=service,
            completion=completion, deadline=request.deadline,
            deadline_exceeded=exceeded, measured_wall=result.wall,
            attempts=result.attempts, error=result.error,
            error_type=result.error_type, trace_id=request.trace_id,
            assemble_wait=max(0.0, batch.close_time
                              - max(request.arrival, batch.open_time)),
            dispatch_wait=dispatch_wait)

    @staticmethod
    def _virtual_peak_depth(schedule: Sequence[Request],
                            batches: Sequence[Batch],
                            rejections: Sequence[Tuple[Request, str]]) -> int:
        """Max simultaneous queued requests in the virtual timeline."""
        rejected = {request.rid for request, _ in rejections}
        leave: Dict[int, float] = {}
        for batch in batches:
            for request in batch.requests:
                leave[request.rid] = batch.close_time
        events: List[Tuple[float, int]] = []
        for request in schedule:
            if request.rid in rejected:
                continue
            # departures sort before arrivals at the same instant:
            # a batch close frees depth before the next admit
            events.append((request.arrival, 1))
            events.append((leave[request.rid], -1))
        events.sort(key=lambda e: (e[0], e[1]))
        depth = peak = 0
        for _, delta in events:
            depth += delta
            peak = max(peak, depth)
        return peak

    # -- live mode -----------------------------------------------------------
    def clock(self) -> float:
        """Seconds on the live service clock (0 at :meth:`start`)."""
        return perf_counter() - self._epoch

    def start(self) -> None:
        """Bring up the live queue → pool pipeline."""
        if self._threads:
            raise RuntimeError("server already started")
        self._epoch = perf_counter()
        self._queue = RequestQueue(self.config.max_depth)
        self._threads = self.pool.execute_live(
            functools.partial(self._take_batch, self._queue),
            self._on_batch_result)

    def _take_batch(self, queue: RequestQueue) -> Optional[Batch]:
        """An idle worker's next batch; ``None`` once ``queue`` drained.

        Blocks until a request is queued or the queue closes.  The
        batch opens at its earliest member's arrival and closes when
        taken, so ``queue_wait`` is each member's time in the queue.
        """
        requests = queue.take_batch(self.config.batch.max_batch_size,
                                    timeout=None)
        if not requests:
            return None
        taken = self.clock()
        with self._pending_lock:
            bid = self._bid
            self._bid += 1
        return Batch(bid=bid, key=requests[0].key, requests=requests,
                     open_time=min(r.arrival for r in requests),
                     close_time=taken)

    def submit(self, workload: str, *, seed: int = 0,
               params: Optional[Dict[str, object]] = None,
               priority: int = 1,
               deadline: Optional[float] = None) -> PendingResponse:
        """Enqueue one live request; resolves through its batch."""
        if self._queue is None:
            raise RuntimeError("server not started")
        with self._pending_lock:
            rid = self._rid
            self._rid += 1
        request = make_request(rid, workload, arrival=self.clock(),
                               seed=seed, params=params,
                               priority=priority, deadline=deadline)
        pending = PendingResponse(request)
        with self._pending_lock:
            self._pending[rid] = pending
        reason = self._queue.offer(request)
        if reason is not None:
            with self._pending_lock:
                self._pending.pop(rid, None)
            response = rejection(request, reason)
            self.stats.record_response(response)
            self._publish(response)
            pending.resolve(response)
        return pending

    def _on_batch_result(self, result: BatchResult) -> None:
        completion = self.clock()
        batch = result.batch
        widx = int(result.worker.rsplit("-", 1)[-1]) if result.worker else 0
        service = self._modeled_latency(result, self.config.device_for(widx))
        # the batch ran from close; what its wall leaves of close ->
        # completion is dispatch
        dispatch_wait = max(0.0, completion - batch.close_time - result.wall)
        self.stats.record_batch(result)
        for request in batch.requests:
            response = self._response_for(
                request, batch, result, worker=result.worker,
                device=result.device, service_start=batch.close_time,
                service=service, completion=completion,
                dispatch_wait=dispatch_wait)
            self.stats.record_response(response)
            self._publish(response)
            with self._pending_lock:
                pending = self._pending.pop(request.rid, None)
            if pending is not None:
                pending.resolve(response)

    def stop(self, drain: bool = True) -> None:
        """Tear the live pipeline down; deadlock-free by construction.

        ``drain=True`` serves the remaining backlog first; ``False``
        sheds it with ``shutdown``-classified rejections.
        """
        if self._queue is None:
            return
        if not drain:
            for request in self._queue.drain():
                with self._pending_lock:
                    pending = self._pending.pop(request.rid, None)
                response = rejection(request, REJECT_SHUTDOWN)
                self.stats.record_response(response)
                self._publish(response)
                if pending is not None:
                    pending.resolve(response)
        # workers finish the backlog, then see the queue closed and empty
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=30.0)
        # every submit() must resolve: anything still pending after the
        # join (a batch still running past the join timeout) is
        # classified as a shutdown rejection, never left as a
        # silently-unresolved future
        with self._pending_lock:
            leftovers = [self._pending[rid] for rid in sorted(self._pending)]
            self._pending.clear()
        for pending in leftovers:
            response = rejection(pending.request, REJECT_SHUTDOWN)
            self.stats.record_response(response)
            self._publish(response)
            pending.resolve(response)
        if self._telemetry is not None:
            self._telemetry.flush()
        self.stats.record_queue(self._queue.peak_depth)
        self.stats.record_cache(self.cache.stats())
        self.stats.wall_elapsed = self.clock()
        self._queue = None
        self._threads = []
