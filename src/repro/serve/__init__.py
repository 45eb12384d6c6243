"""Batched, concurrent inference serving over the workload roster.

The characterization suite's workloads, profiled one at a time, tell
you what a neuro-symbolic pipeline costs; :mod:`repro.serve` tells
you what happens when a *service* runs them under concurrent load —
the deployment regime the source paper's cognitive-system framing
points at.  The pipeline:

``Request`` → :class:`~repro.serve.queue.RequestQueue` (bounded,
admission-controlled, classified rejections) → dynamic batching
(requests with the same batch key, the ``(workload, seed, params)``
tuple :attr:`~repro.serve.request.Request.key`, coalesce and execute
once) →
:class:`~repro.serve.pool.WorkerPool` (threads, per-worker
:class:`~repro.hwsim.device.DeviceSpec` binding and
:class:`~repro.resilience.runner.ResilientRunner`) →
:class:`~repro.serve.stats.ServerStats` (p50/p95/p99, queue wait vs
service, throughput, shed load, SLO misses).

Batches form in one of two ways.  The deterministic schedule mode
plans them in virtual time (:func:`~repro.serve.batcher.plan_batches`,
closing on ``max_batch_size`` or ``max_wait``).  The live server is
work-conserving: an idle worker takes the head request and its queued
same-key followers straight from the queue
(:meth:`~repro.serve.queue.RequestQueue.take_batch`).

Symbolic setup is amortized by the
:class:`~repro.serve.cache.ArtifactCache` (an LRU of built workloads
keyed by the same batch key, deep-copied per execution).  Statistics are split into a
``deterministic`` section — reproducible bit-for-bit for a seeded
schedule, via virtual-time planning + modeled device latencies — and
a ``measured`` section for wall-clock figures.  CLI:
``repro serve bench`` / ``repro serve replay``.
"""

from repro.serve.batcher import Batch, BatchPolicy, plan_batches
from repro.serve.cache import ArtifactCache
from repro.serve.loadgen import (ClosedLoopReport, LoadSpec, load_schedule,
                                 open_loop, parse_mix, run_closed_loop,
                                 save_schedule)
from repro.serve.pool import BatchResult, Worker, WorkerPool
from repro.serve.queue import (REJECT_QUEUE_FULL, REJECT_REASONS,
                               REJECT_SHUTDOWN, REJECT_STALE_DEADLINE,
                               RequestQueue, admission_reason)
from repro.serve.request import (REQUEST_STATUSES, STATUS_REJECTED,
                                 BatchKey, Request, Response,
                                 freeze_params, make_request, rejection)
from repro.serve.server import (InferenceServer, PendingResponse,
                                ServeConfig, ServeReport)
from repro.serve.stats import SERVE_LATENCY_BUCKETS, ServerStats
from repro.serve.tracing import (REQUEST_SPAN_NAMES, batch_trace_id,
                                 request_span_trees, serve_trace,
                                 span_tree_digest, spans_by_trace,
                                 synthesize_response_spans,
                                 verify_span_trees)

__all__ = [
    "ArtifactCache", "Batch", "BatchKey", "BatchPolicy", "BatchResult",
    "ClosedLoopReport", "InferenceServer", "LoadSpec", "PendingResponse",
    "REJECT_QUEUE_FULL", "REJECT_REASONS", "REJECT_SHUTDOWN",
    "REJECT_STALE_DEADLINE", "REQUEST_SPAN_NAMES", "REQUEST_STATUSES",
    "Request", "RequestQueue", "Response", "SERVE_LATENCY_BUCKETS",
    "STATUS_REJECTED", "ServeConfig", "ServeReport", "ServerStats",
    "Worker", "WorkerPool", "admission_reason", "batch_trace_id",
    "freeze_params", "load_schedule", "make_request", "open_loop",
    "parse_mix", "plan_batches", "rejection", "request_span_trees",
    "run_closed_loop", "save_schedule", "serve_trace",
    "span_tree_digest", "spans_by_trace", "synthesize_response_spans",
    "verify_span_trees",
]
