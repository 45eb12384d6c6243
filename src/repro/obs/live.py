"""Live telemetry: rolling snapshots, tail sampling, SLO burn.

The serving layer characterizes itself *after* a run (``ServerStats``
summaries); this module is the *while it runs* counterpart — the
pieces a production operator watches:

* :class:`SnapshotAggregator` — rolling-window aggregation emitted as
  periodic snapshots: p50/p95/p99 end-to-end latency, throughput,
  status counts, and the rejection mix per classified reason.
* :class:`TailSamplingPolicy` — head sampling wastes retention on
  healthy traffic; tail sampling decides *after* the outcome is
  known.  Failed / degraded / rejected / deadline-missed requests
  are always sampled; healthy requests are kept at a
  small deterministic ratio (a seeded hash draw over the trace id, so
  two runs of one seeded schedule retain identical trace sets — the
  property CI asserts).
* :class:`BurnRateMonitor` — multi-window SLO burn-rate alerting in
  the SRE-workbook style: the error-budget burn rate over a fast and
  a slow window, with edge-triggered ``page`` / ``ticket`` alerts.
* :class:`LiveTelemetry` — the facade the server publishes into
  (``InferenceServer.attach_telemetry``), fanning one response event
  out to the other three, and serializing snapshots/alerts/samples as
  JSONL (``repro serve bench --live-snapshots``).

The snapshot window, the SLO objective and the burn windows and
thresholds are module constants; only the sampling seed and ratio
and the snapshot interval are settable, because the CLI sets them.

Everything is clocked by the *event* timestamps, not the wall clock,
so the same pipeline serves both live wall-clock mode and the
deterministic virtual-time schedule mode bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanRecord

__all__ = [
    "BurnRateMonitor", "LiveTelemetry", "SnapshotAggregator",
    "TailSamplingPolicy",
]

#: statuses counted against the SLO error budget
_ERROR_STATUSES = ("failed", "rejected")

#: seconds of service clock a snapshot aggregates over
SNAPSHOT_WINDOW = 5.0
#: latency / queue-wait percentiles every snapshot reports
SNAPSHOT_PERCENTILES: Tuple[int, ...] = (50, 95, 99)

#: availability objective: the target good-request fraction.  Burn
#: rate is (observed error rate) / (error budget): burning at 1.0
#: exhausts the budget exactly at the period's end.
SLO_OBJECTIVE = 0.99
ERROR_BUDGET = 1.0 - SLO_OBJECTIVE
#: the SRE-workbook pairing: a fast window catching sudden cliffs
#: (page: budget gone in hours) and a slow window catching sustained
#: leaks (ticket: budget gone in a day); windows in seconds of service
#: clock
FAST_WINDOW = 5.0
SLOW_WINDOW = 60.0
FAST_BURN = 14.4
SLOW_BURN = 6.0


# -- rolling aggregation -----------------------------------------------------

def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(pct / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class SnapshotAggregator:
    """Rolling-window aggregation emitted as periodic snapshots.

    ``observe`` accumulates one response event; ``snapshot`` rolls
    the window (dropping events older than :data:`SNAPSHOT_WINDOW`
    seconds before ``at``) and returns the aggregate: latency
    percentiles over *completed* requests, throughput, status counts,
    and the per-class rejection mix.
    """

    def __init__(self) -> None:
        self._events: List[Dict[str, object]] = []

    def observe(self, event: Dict[str, object]) -> None:
        self._events.append(event)

    def _roll(self, at: float) -> None:
        horizon = at - SNAPSHOT_WINDOW
        self._events = [e for e in self._events
                        if float(e.get("t", 0.0)) > horizon]

    def snapshot(self, at: float) -> Dict[str, object]:
        """The rolling aggregate as of service-clock time ``at``."""
        self._roll(at)
        statuses: Dict[str, int] = {}
        rejections: Dict[str, int] = {}
        latencies: List[float] = []
        queue_waits: List[float] = []
        for event in self._events:
            status = str(event.get("status"))
            statuses[status] = statuses.get(status, 0) + 1
            if status == "rejected":
                reason = str(event.get("reject_reason"))
                rejections[reason] = rejections.get(reason, 0) + 1
            else:
                latencies.append(float(event.get("latency", 0.0)))
                queue_waits.append(float(event.get("queue_wait", 0.0)))
        latencies.sort()
        queue_waits.sort()
        span = min(SNAPSHOT_WINDOW, at) or SNAPSHOT_WINDOW
        return {
            "type": "snapshot",
            "t": round(at, 9),
            "window": SNAPSHOT_WINDOW,
            "count": len(self._events),
            "throughput_rps": round(len(latencies) / span, 6),
            "latency": {f"p{p}": round(_percentile(latencies, p), 9)
                        for p in SNAPSHOT_PERCENTILES},
            "queue_wait": {f"p{p}": round(_percentile(queue_waits, p), 9)
                           for p in SNAPSHOT_PERCENTILES},
            "statuses": dict(sorted(statuses.items())),
            "rejections": dict(sorted(rejections.items())),
        }


# -- tail-based sampling -----------------------------------------------------

class TailSamplingPolicy:
    """Decide *after* the outcome which requests keep a sample.

    Interesting requests (non-ok status, deadline misses) are always
    retained.  Healthy requests are retained at ``healthy_ratio`` via
    a deterministic seeded hash draw over the trace id — no RNG
    state, so the decision for a given (seed, trace_id) never varies
    across runs or threads.
    """

    def __init__(self, seed: int = 0, healthy_ratio: float = 0.05):
        if not 0.0 <= healthy_ratio <= 1.0:
            raise ValueError("healthy_ratio must be within [0, 1]")
        self.seed = seed
        self.healthy_ratio = healthy_ratio

    def _draw(self, trace_id: str) -> float:
        digest = hashlib.blake2s(f"{self.seed}:{trace_id}".encode(),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def decide(self, event: Dict[str, object]) -> Optional[str]:
        """The retention reason for this event, or ``None`` to drop."""
        status = str(event.get("status"))
        if status in ("failed", "degraded", "rejected"):
            return status
        if event.get("deadline_exceeded"):
            return "deadline"
        trace_id = event.get("trace_id")
        if trace_id is not None and \
                self._draw(str(trace_id)) < self.healthy_ratio:
            return "healthy_sample"
        return None


# -- SLO burn-rate monitoring ------------------------------------------------

class _BurnWindow:
    """One burn window: its events, oldest first, and their errors."""

    def __init__(self, severity: str, length: float,
                 threshold: float) -> None:
        self.severity = severity
        self.length = length
        self.threshold = threshold
        self.events: Deque[Tuple[float, bool]] = deque()  # (t, is_error)
        self.errors = 0
        self.active = False

    def add(self, at: float, is_error: bool) -> float:
        """Count one event at ``at``, the window's new end; the burn rate."""
        self.events.append((at, is_error))
        self.errors += is_error
        horizon = at - self.length
        while self.events[0][0] <= horizon:
            self.errors -= self.events.popleft()[1]
        return (self.errors / len(self.events)) / ERROR_BUDGET


class BurnRateMonitor:
    """Edge-triggered burn-rate alerts over a stream of events.

    ``observe`` returns newly *raised* alerts only: an alert fires
    when a window's burn rate crosses its threshold and re-arms once
    it falls back below — no alert storms while a condition holds.

    Both windows end at the newest event time seen, and each keeps a
    running error count, so an event costs O(1) amortized.  An event
    published late (live workers may publish a few ms out of order)
    is counted as if it arrived at that newest time.
    """

    def __init__(self) -> None:
        self._windows = (_BurnWindow("page", FAST_WINDOW, FAST_BURN),
                         _BurnWindow("ticket", SLOW_WINDOW, SLOW_BURN))
        self._newest = float("-inf")
        self.alerts: List[Dict[str, object]] = []

    def _is_error(self, event: Dict[str, object]) -> bool:
        return (str(event.get("status")) in _ERROR_STATUSES
                or bool(event.get("deadline_exceeded")))

    def observe(self, event: Dict[str, object]) -> List[Dict[str, object]]:
        at = self._newest = max(self._newest, float(event.get("t", 0.0)))
        is_error = self._is_error(event)
        raised: List[Dict[str, object]] = []
        for window in self._windows:
            burn = window.add(at, is_error)
            breached = burn >= window.threshold
            if breached and not window.active:
                alert = {"type": "alert", "severity": window.severity,
                         "t": round(at, 9), "burn_rate": round(burn, 6),
                         "threshold": window.threshold,
                         "window": window.length,
                         "objective": SLO_OBJECTIVE}
                raised.append(alert)
                self.alerts.append(alert)
            window.active = breached
        return raised


# -- facade ------------------------------------------------------------------

class LiveTelemetry:
    """One sink the server publishes response events into.

    Fans each event out to the rolling aggregator (with
    interval-aligned snapshot emission), the tail sampler (seeded by
    ``seed``, keeping ``healthy_ratio`` of healthy requests and the
    size of each kept request's span tree), and the burn-rate
    monitor.  ``flush()`` closes the final snapshot window;
    ``write_jsonl`` serializes snapshots + alerts + samples.

    Thread-safe: live-mode workers publish concurrently.  All clocks
    are event timestamps, so schedule-mode output is deterministic.
    """

    def __init__(self, seed: int = 0, healthy_ratio: float = 0.05,
                 snapshot_interval: float = 1.0):
        if snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        self.aggregator = SnapshotAggregator()
        self.sampler = TailSamplingPolicy(seed, healthy_ratio)
        self.monitor = BurnRateMonitor()
        self.snapshot_interval = snapshot_interval
        self.snapshots: List[Dict[str, object]] = []
        self.samples: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._window_end: Optional[float] = None
        self._last_t = 0.0

    # -- ingestion -----------------------------------------------------------
    def record(self, event: Dict[str, object],
               spans: Optional[Sequence[SpanRecord]] = None) -> None:
        """Publish one response event (the server's per-response call)."""
        with self._lock:
            at = float(event.get("t", 0.0))
            self._last_t = max(self._last_t, at)
            if self._window_end is None:
                self._window_end = (at // self.snapshot_interval + 1) \
                    * self.snapshot_interval
            while at >= self._window_end:
                self.snapshots.append(
                    self.aggregator.snapshot(self._window_end))
                self._window_end += self.snapshot_interval
            self.aggregator.observe(event)
            self.monitor.observe(event)
            reason = self.sampler.decide(event)
            if reason is not None:
                sample = {"type": "sample", "t": round(at, 9),
                          "trace_id": event.get("trace_id"),
                          "rid": event.get("rid"),
                          "status": event.get("status"),
                          "reason": reason,
                          "spans": len(spans or ())}
                self.samples.append(sample)

    def flush(self) -> None:
        """Emit the final (partial) snapshot window."""
        with self._lock:
            if self._window_end is not None:
                self.snapshots.append(
                    self.aggregator.snapshot(max(self._last_t,
                                                 self._window_end -
                                                 self.snapshot_interval)))
                self._window_end = None

    # -- results -------------------------------------------------------------
    @property
    def alerts(self) -> List[Dict[str, object]]:
        return self.monitor.alerts

    def sampled_trace_ids(self) -> List[str]:
        """Trace ids retained by tail sampling, in retention order."""
        with self._lock:
            return [str(s["trace_id"]) for s in self.samples
                    if s.get("trace_id") is not None]

    def jsonl_lines(self) -> Iterable[str]:
        """Snapshots, alerts, and tail samples as JSONL lines."""
        with self._lock:
            records = (list(self.snapshots) + list(self.monitor.alerts)
                       + list(self.samples))
        for record in records:
            yield json.dumps(record, sort_keys=True)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")
