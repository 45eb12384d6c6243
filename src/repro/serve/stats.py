"""Server-side SLO accounting: latency percentiles, throughput, shed load.

:class:`ServerStats` keeps plain status, rejection-reason and
per-workload counts and per-workload latency
:class:`~repro.obs.metrics.Distribution` s under one lock, and splits
every figure into two strictly separated sections:

* ``deterministic`` — everything derived from virtual time and
  modeled device latency: request/batch/rejection counts, queue-wait
  and end-to-end percentiles, deadline misses, cache accounting.
  Identical across repeated seeded runs, which is what the
  ``repro serve bench`` determinism check diffs;
* ``measured`` — wall-clock figures (batch execution walls, total
  elapsed, achieved throughput) that vary run to run and are
  excluded from determinism comparisons.  The ``replay`` counts live
  here too: whether a key's batch replays depends on whether an
  earlier batch of the key, perhaps still running on another worker,
  has already kept its plan.

Latency distributions use quarter-decade buckets from 10 µs to ~100 s
so p50/p95/p99 interpolation stays tight across the whole range a
batched symbolic workload can span.  An all-workload block merges the
per-workload distributions in sorted workload order.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import DefaultDict, Dict, List

from repro.core.report import format_time, render_table
from repro.obs.metrics import Distribution
from repro.resilience.runner import FALLBACK, REPLAYED
from repro.serve.pool import BatchResult
from repro.serve.request import (REQUEST_STATUSES, STATUS_REJECTED,
                                 Response)

#: quarter-decade log buckets, 1e-5 s .. ~178 s
SERVE_LATENCY_BUCKETS = tuple(10.0 ** (-5 + 0.25 * i) for i in range(29))

#: the distributions kept per workload: five virtual-clock stages of
#: each response, then the measured execution wall of each batch
_STAGES = ("queue_wait", "latency", "service", "assemble_wait",
           "dispatch_wait", "execute_wall")
#: the all-workload block of a stage nothing was observed in
_EMPTY_BLOCK = {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}


class _WorkloadStats:
    """One workload's counts and its latency distribution per stage."""

    __slots__ = ("requests", "batches", "deadline_exceeded", "stages")

    def __init__(self) -> None:
        self.requests = 0               # not rejected
        self.batches = 0
        self.deadline_exceeded = 0
        self.stages = {stage: Distribution(SERVE_LATENCY_BUCKETS)
                       for stage in _STAGES}


class ServerStats:
    """Aggregates responses + batch results into an SLO report."""

    def __init__(self) -> None:
        # worker threads record, the main thread summarizes: every
        # count below is read and written under this one lock
        self._lock = threading.Lock()
        self._statuses: Dict[str, int] = {}
        self._rejections: Dict[str, int] = {}
        self._workloads: DefaultDict[str, _WorkloadStats] = \
            defaultdict(_WorkloadStats)
        self._batch_sizes: Dict[int, int] = {}
        self._replay = {REPLAYED: 0, FALLBACK: 0, "kept": 0}
        self._queue_peak = 0
        self._cache = {"hits": 0, "misses": 0, "evictions": 0}
        self.wall_elapsed = 0.0   # measured section only

    # -- recording -----------------------------------------------------------
    def record_response(self, response: Response) -> None:
        with self._lock:
            self._statuses[response.status] = \
                self._statuses.get(response.status, 0) + 1
            if response.status == STATUS_REJECTED:
                reason = response.reject_reason or "unknown"
                self._rejections[reason] = \
                    self._rejections.get(reason, 0) + 1
                return
            stats = self._workloads[response.workload]
            stats.requests += 1
            if response.deadline_exceeded:
                stats.deadline_exceeded += 1
            stages = stats.stages
            stages["queue_wait"].add(response.queue_wait)
            stages["latency"].add(response.latency)
            stages["service"].add(response.modeled_latency)
            stages["assemble_wait"].add(response.assemble_wait)
            stages["dispatch_wait"].add(response.dispatch_wait)

    def record_batch(self, result: BatchResult) -> None:
        batch = result.batch
        replay = result.outcome.replay if result.outcome else None
        with self._lock:
            stats = self._workloads[batch.workload]
            stats.batches += 1
            stats.stages["execute_wall"].add(result.wall)
            self._batch_sizes[batch.size] = \
                self._batch_sizes.get(batch.size, 0) + 1
            if replay is not None:
                self._replay[replay] += 1
            if result.kept_plan:
                self._replay["kept"] += 1

    def record_queue(self, peak_depth: int) -> None:
        with self._lock:
            self._queue_peak = max(self._queue_peak, int(peak_depth))

    def record_cache(self, cache_stats: Dict[str, int]) -> None:
        with self._lock:
            self._cache = {name: int(cache_stats.get(name, 0))
                           for name in self._cache}

    # -- derived figures -----------------------------------------------------
    def _merged_block(self, stage: str) -> Dict[str, float]:
        """``stage`` over every workload; the caller holds the lock."""
        merged = Distribution(SERVE_LATENCY_BUCKETS)
        for name in sorted(self._workloads):
            merged.merge(self._workloads[name].stages[stage])
        return merged.summary() if merged.count else dict(_EMPTY_BLOCK)

    def summary(self) -> Dict[str, object]:
        """Two-section stats dump; see module docstring for the split."""
        with self._lock:
            statuses = dict.fromkeys(REQUEST_STATUSES, 0)
            statuses.update(self._statuses)
            responses = sum(statuses.values())
            processed = responses - statuses[STATUS_REJECTED]
            workloads = sorted(self._workloads.items())
            batches = sum(stats.batches for _, stats in workloads)
            deterministic: Dict[str, object] = {
                "requests": responses,
                "statuses": statuses,
                "rejection_rate": (statuses[STATUS_REJECTED] / responses
                                   if responses else 0.0),
                "rejections": dict(sorted(self._rejections.items())),
                "deadline_exceeded": sum(stats.deadline_exceeded
                                         for _, stats in workloads),
                "batches": batches,
                "mean_batch_size": (processed / batches
                                    if batches else 0.0),
                "batch_size_hist": {str(size): count for size, count
                                    in sorted(self._batch_sizes.items())},
                "queue_depth_peak": self._queue_peak,
                "queue_wait": self._merged_block("queue_wait"),
                "latency": self._merged_block("latency"),
                "service": self._merged_block("service"),
                # end-to-end latency decomposed into its causal stages
                # (queue_wait above covers arrival -> batch close; the
                # assemble tail and the dispatch gap split the rest out)
                "breakdown": {
                    "assemble_wait": self._merged_block("assemble_wait"),
                    "dispatch_wait": self._merged_block("dispatch_wait"),
                },
                "cache": dict(self._cache),
                "per_workload": {
                    name: {
                        "requests": stats.requests,
                        "batches": stats.batches,
                        "latency": stats.stages["latency"].summary(),
                        "queue_wait": stats.stages["queue_wait"].summary(),
                        "deadline_exceeded": stats.deadline_exceeded,
                    } for name, stats in workloads},
            }
            measured: Dict[str, object] = {
                "wall_elapsed": self.wall_elapsed,
                "throughput_rps": (processed / self.wall_elapsed
                                   if self.wall_elapsed > 0 else 0.0),
                "execute_wall": self._merged_block("execute_wall"),
                "replay": {"replays": self._replay[REPLAYED],
                           "fallbacks": self._replay[FALLBACK],
                           "plans_kept": self._replay["kept"]},
            }
        return {"deterministic": deterministic, "measured": measured}

    # -- presentation --------------------------------------------------------
    def render(self) -> str:
        summary = self.summary()
        det = summary["deterministic"]
        meas = summary["measured"]
        lines: List[str] = []
        status_rows = [[status, count] for status, count
                       in det["statuses"].items()]  # type: ignore[union-attr]
        lines.append(render_table(
            ["status", "requests"], status_rows, title="Request outcomes"))
        lat_rows = []
        breakdown = det["breakdown"]  # type: ignore[index]
        for label, block in (("queue wait", det["queue_wait"]),
                             ("· assemble", breakdown["assemble_wait"]),
                             ("dispatch wait", breakdown["dispatch_wait"]),
                             ("end-to-end", det["latency"]),
                             ("modeled service", det["service"]),
                             ("execute wall*", meas["execute_wall"])):
            lat_rows.append([label, block["count"],
                             format_time(block["mean"]),
                             format_time(block["p50"]),
                             format_time(block["p95"]),
                             format_time(block["p99"])])
        lines.append(render_table(
            ["latency", "n", "mean", "p50", "p95", "p99"], lat_rows,
            title="Latency (virtual clock; * = measured wall)"))
        wl_rows = [[w, info["requests"], info["batches"],
                    format_time(info["latency"]["p99"]),
                    info["deadline_exceeded"]]
                   for w, info in det["per_workload"].items()]  # type: ignore[union-attr]
        lines.append(render_table(
            ["workload", "requests", "batches", "p99", "deadline miss"],
            wl_rows, title="Per-workload"))
        cache = det["cache"]  # type: ignore[index]
        lines.append(
            f"batches={det['batches']} mean_batch={det['mean_batch_size']:.2f} "
            f"queue_peak={det['queue_depth_peak']} "
            f"cache_hits={cache['hits']} cache_misses={cache['misses']} "
            f"rejection_rate={det['rejection_rate']:.1%}")
        replay = meas["replay"]  # type: ignore[index]
        lines.append(
            f"measured: {meas['wall_elapsed']:.2f}s wall, "
            f"{meas['throughput_rps']:.1f} req/s, "
            f"replays={replay['replays']} fallbacks={replay['fallbacks']} "
            f"plans_kept={replay['plans_kept']}")
        return "\n\n".join(lines)
