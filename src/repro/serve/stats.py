"""Server-side SLO accounting: latency percentiles, throughput, shed load.

:class:`ServerStats` owns a private
:class:`~repro.obs.metrics.MetricsRegistry` (the process registry is
untouched unless the caller exports into it) and splits every figure
into two strictly separated sections:

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

Latency histograms use quarter-decade buckets from 10 µs to ~100 s so
p50/p95/p99 interpolation stays tight across the whole range a
batched symbolic workload can span.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core.report import format_time, render_table
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.prom import render_registry
from repro.resilience.runner import FALLBACK, REPLAYED
from repro.serve.pool import BatchResult
from repro.serve.queue import REJECT_REASONS
from repro.serve.request import (REQUEST_STATUSES, STATUS_REJECTED,
                                 Response)

#: quarter-decade log buckets, 1e-5 s .. ~178 s
SERVE_LATENCY_BUCKETS = tuple(10.0 ** (-5 + 0.25 * i) for i in range(29))

_QUANTILES = (50.0, 95.0, 99.0)


class ServerStats:
    """Aggregates responses + batch results into an SLO report."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry
        self.requests = reg.counter(
            "repro_serve_requests_total",
            "terminal request statuses", ("workload", "status"))
        self.rejections = reg.counter(
            "repro_serve_rejections_total",
            "requests shed at admission, by reason", ("reason",))
        self.deadline_misses = reg.counter(
            "repro_serve_deadline_exceeded_total",
            "requests completing past their SLO budget", ("workload",))
        self.batches = reg.counter(
            "repro_serve_batches_total",
            "batches executed", ("workload",))
        self.batched_requests = reg.counter(
            "repro_serve_batched_requests_total",
            "requests riding executed batches", ("workload",))
        self.queue_wait = reg.histogram(
            "repro_serve_queue_wait_seconds",
            "virtual admission -> batch close", ("workload",),
            SERVE_LATENCY_BUCKETS)
        self.e2e_latency = reg.histogram(
            "repro_serve_latency_seconds",
            "virtual end-to-end request latency", ("workload",),
            SERVE_LATENCY_BUCKETS)
        self.service_latency = reg.histogram(
            "repro_serve_service_seconds",
            "modeled per-device batch service time", ("workload",),
            SERVE_LATENCY_BUCKETS)
        self.assemble_wait = reg.histogram(
            "repro_serve_assemble_wait_seconds",
            "time spent inside a forming batch (open/join -> close)",
            ("workload",), SERVE_LATENCY_BUCKETS)
        self.dispatch_wait = reg.histogram(
            "repro_serve_dispatch_wait_seconds",
            "batch close -> service start (virtual worker contention)",
            ("workload",), SERVE_LATENCY_BUCKETS)
        self.execute_wall = reg.histogram(
            "repro_serve_execute_wall_seconds",
            "measured batch execution wall (non-deterministic)",
            ("workload",), SERVE_LATENCY_BUCKETS)
        self.queue_peak = reg.gauge(
            "repro_serve_queue_depth_peak", "max queued depth observed")
        self.cache_hits = reg.gauge(
            "repro_serve_cache_hits", "artifact cache hits")
        self.cache_misses = reg.gauge(
            "repro_serve_cache_misses", "artifact cache misses")
        self.cache_evictions = reg.gauge(
            "repro_serve_cache_evictions", "artifact cache evictions")
        self.plan_batches = reg.counter(
            "repro_serve_plan_batches_total",
            "batches that replayed their key's plan, fell back to eager "
            "from it, or kept their trace as it (measured)", ("event",))
        # plain counters shared between worker threads (record_*) and
        # the main thread (summary); metric instruments lock internally
        self._agg_lock = threading.Lock()
        self._batch_sizes: Dict[int, int] = {}
        self._responses = 0
        self.wall_elapsed = 0.0   # measured section only

    # -- recording -----------------------------------------------------------
    def record_response(self, response: Response) -> None:
        with self._agg_lock:
            self._responses += 1
        self.requests.inc(workload=response.workload,
                          status=response.status)
        if response.status == STATUS_REJECTED:
            self.rejections.inc(reason=response.reject_reason or "unknown")
            return
        if response.deadline_exceeded:
            self.deadline_misses.inc(workload=response.workload)
        self.queue_wait.observe(response.queue_wait,
                                workload=response.workload)
        self.e2e_latency.observe(response.latency,
                                 workload=response.workload)
        self.service_latency.observe(response.modeled_latency,
                                     workload=response.workload)
        self.assemble_wait.observe(response.assemble_wait,
                                   workload=response.workload)
        self.dispatch_wait.observe(response.dispatch_wait,
                                   workload=response.workload)

    def record_batch(self, result: BatchResult) -> None:
        batch = result.batch
        self.batches.inc(workload=batch.workload)
        self.batched_requests.inc(batch.size, workload=batch.workload)
        with self._agg_lock:
            self._batch_sizes[batch.size] = \
                self._batch_sizes.get(batch.size, 0) + 1
        self.execute_wall.observe(result.wall, workload=batch.workload)
        replay = result.outcome.replay if result.outcome else None
        if replay is not None:
            self.plan_batches.inc(event=replay)
        if result.kept_plan:
            self.plan_batches.inc(event="kept")

    def record_queue(self, peak_depth: int) -> None:
        self.queue_peak.set_max(float(peak_depth))

    def record_cache(self, cache_stats: Dict[str, int]) -> None:
        self.cache_hits.set(float(cache_stats.get("hits", 0)))
        self.cache_misses.set(float(cache_stats.get("misses", 0)))
        self.cache_evictions.set(float(cache_stats.get("evictions", 0)))

    # -- derived figures -----------------------------------------------------
    def _status_counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in REQUEST_STATUSES}
        for key, value in self.requests.samples():
            counts[key[1]] = counts.get(key[1], 0) + int(value)
        return counts

    def _workloads(self) -> List[str]:
        return sorted({key[0] for key, _ in self.requests.samples()
                       if key[1] != STATUS_REJECTED}
                      | {key[0] for key, _ in self.batches.samples()})

    def _quantile_block(self, hist: Histogram,
                        workload: Optional[str] = None) -> Dict[str, float]:
        if workload is None:
            per = [hist.summary(_QUANTILES, workload=w)
                   for w in self._workloads()]
            per = [s for s in per if s["count"]]
            if not per:
                return {"count": 0, "sum": 0.0, "mean": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            # Cross-label percentiles come from the merged buckets.
            counts = [0] * len(hist.buckets)
            with hist._lock:
                for per_key in hist._counts.values():
                    for i, c in enumerate(per_key):
                        counts[i] += c
            total = sum(s["count"] for s in per)
            overall = {"count": total,
                       "sum": sum(s["sum"] for s in per)}
            overall["mean"] = overall["sum"] / total
            for q in _QUANTILES:
                overall[f"p{int(q)}"] = _percentile_of(
                    hist.buckets, counts, total, q)
            return overall
        return hist.summary(_QUANTILES, workload=workload)

    def summary(self) -> Dict[str, object]:
        """Two-section stats dump; see module docstring for the split."""
        counts = self._status_counts()
        with self._agg_lock:
            responses = self._responses
            batch_sizes = dict(self._batch_sizes)
        processed = responses - counts[STATUS_REJECTED]
        rejections = {key[0]: int(value)
                      for key, value in self.rejections.samples()}
        deterministic: Dict[str, object] = {
            "requests": responses,
            "statuses": counts,
            "rejection_rate": (counts[STATUS_REJECTED] / responses
                               if responses else 0.0),
            "rejections": rejections,
            "deadline_exceeded": int(self.deadline_misses.total()),
            "batches": int(self.batches.total()),
            "mean_batch_size": (processed / self.batches.total()
                                if self.batches.total() else 0.0),
            "batch_size_hist": {str(size): count for size, count
                                in sorted(batch_sizes.items())},
            "queue_depth_peak": int(self.queue_peak.value()),
            "queue_wait": self._quantile_block(self.queue_wait),
            "latency": self._quantile_block(self.e2e_latency),
            "service": self._quantile_block(self.service_latency),
            # end-to-end latency decomposed into its causal stages
            # (queue_wait above covers arrival -> batch close; the
            # assemble tail and the dispatch gap split the rest out)
            "breakdown": {
                "assemble_wait": self._quantile_block(self.assemble_wait),
                "dispatch_wait": self._quantile_block(self.dispatch_wait),
            },
            "cache": {"hits": int(self.cache_hits.value()),
                      "misses": int(self.cache_misses.value()),
                      "evictions": int(self.cache_evictions.value())},
            "per_workload": {
                w: {
                    "requests": sum(
                        int(v) for key, v in self.requests.samples()
                        if key[0] == w and key[1] != STATUS_REJECTED),
                    "batches": int(self.batches.value(workload=w)),
                    "latency": self._quantile_block(self.e2e_latency, w),
                    "queue_wait": self._quantile_block(self.queue_wait, w),
                    "deadline_exceeded": int(
                        self.deadline_misses.value(workload=w)),
                } for w in self._workloads()},
        }
        measured: Dict[str, object] = {
            "wall_elapsed": self.wall_elapsed,
            "throughput_rps": (processed / self.wall_elapsed
                               if self.wall_elapsed > 0 else 0.0),
            "execute_wall": self._quantile_block(self.execute_wall),
            "replay": {
                "replays": int(self.plan_batches.value(event=REPLAYED)),
                "fallbacks": int(self.plan_batches.value(event=FALLBACK)),
                "plans_kept": int(self.plan_batches.value(event="kept")),
            },
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

    def render_prometheus(self) -> str:
        """Prometheus exposition of the private serving registry."""
        return render_registry(self.registry)


def _percentile_of(buckets, counts, total: int, q: float) -> float:
    """Interpolated percentile over merged cumulative-style counts."""
    target = q / 100.0 * total
    seen = 0
    prev_bound = 0.0
    for bound, count in zip(buckets, counts):
        if count:
            if seen + count >= target:
                frac = (target - seen) / count
                return prev_bound + frac * (bound - prev_bound)
            seen += count
        prev_bound = bound
    return float("inf") if total else 0.0
