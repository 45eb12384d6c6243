"""Metrics instruments: counters, gauges, histograms.

Prometheus-flavoured instruments over a :class:`MetricsRegistry`.
:class:`RuntimeMetrics` is the suite's op instrument set, built fresh
by whoever asks and filled by folding closed traces
(:meth:`RuntimeMetrics.observe_trace` -> ``repro_ops_total``,
``repro_flops_total``, ``repro_bytes_total``, per-category latency
histograms, live-byte gauges), so the op metrics are a view of the
trace, computed when asked for (``repro metrics W``), not a second
copy of it kept while the run executes.  The serving layer's
:class:`~repro.serve.stats.ServerStats` builds its own registry from
the same instruments.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.core.profiler import TraceEvent

LabelKey = Tuple[str, ...]


class Metric:
    """Base class: named instrument with optional label dimensions."""

    kind = ""

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} expects labels "
                f"{self.labelnames}, got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        """(label values, value) pairs, sorted for deterministic output."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.inc_key(self._key(labels), amount)

    def inc_key(self, key: LabelKey, amount: float = 1.0) -> None:
        """Pre-validated fast path for hot loops (key = label values
        in ``labelnames`` order; no validation, no kwargs)."""
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label combinations."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge(Metric):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def set_max(self, value: float, **labels: object) -> None:
        """Keep the high-water mark (peak gauges)."""
        self.set_max_key(self._key(labels), float(value))

    def set_max_key(self, key: LabelKey, value: float) -> None:
        """Pre-validated high-water-mark fast path."""
        with self._lock:
            if value > self._values.get(key, float("-inf")):
                self._values[key] = value

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


#: Default latency buckets: 1µs .. 10s, decade-and-half steps.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        self.observe_key(self._key(labels), value)

    def observe_key(self, key: LabelKey, value: float) -> None:
        """Pre-validated fast path for hot loops."""
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts.setdefault(
                    key, [0] * len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._totals.get(self._key(labels), 0)

    def percentile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-th percentile (``q`` in (0, 100]).

        Linear interpolation inside the bucket the target rank falls
        into (Prometheus ``histogram_quantile`` semantics).  Returns
        0.0 for an empty series and ``+inf`` when the rank lands in
        the overflow region above the last finite bucket.
        """
        return self.percentile_key(self._key(labels), q)

    def percentile_key(self, key: LabelKey, q: float) -> float:
        """Pre-validated percentile (key = label values in order)."""
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile q must be in (0, 100], got {q}")
        with self._lock:
            total = self._totals.get(key, 0)
            counts = list(self._counts.get(key, ()))
        if total <= 0:
            return 0.0
        return _interpolate(self.buckets, counts, total, q)

    def summary(self, quantiles: Sequence[float] = (50.0, 95.0, 99.0),
                **labels: object) -> Dict[str, float]:
        """``{count, sum, mean, p50, p95, p99}`` for one label set."""
        key = self._key(labels)
        count = self._totals.get(key, 0)
        total = self._sums.get(key, 0.0)
        out: Dict[str, float] = {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
        }
        for q in quantiles:
            out[f"p{q:g}"] = self.percentile_key(key, q)
        return out

    def merged_summary(self, quantiles: Sequence[float] = (50.0, 95.0, 99.0)
                       ) -> Dict[str, float]:
        """:meth:`summary` over every label set at once.

        Counts and sums add up across label sets (sums in label order);
        percentiles interpolate over the bucket counts summed the same
        way.
        """
        with self._lock:
            keys = sorted(self._totals)
            count = sum(self._totals[key] for key in keys)
            total = sum(self._sums[key] for key in keys)
            counts = [sum(column) for column in zip(*self._counts.values())]
        out: Dict[str, float] = {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
        }
        for q in quantiles:
            out[f"p{q:g}"] = (_interpolate(self.buckets, counts, count, q)
                              if count else 0.0)
        return out

    def sum(self, **labels: object) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def cumulative_counts(self, key: LabelKey) -> List[int]:
        """Bucket counts as Prometheus cumulative ``le`` counts."""
        counts = self._counts.get(key, [0] * len(self.buckets))
        out, running = [], 0
        for count in counts:
            running += count
            out.append(running)
        return out

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted((key, float(total))
                      for key, total in self._totals.items())


def _interpolate(buckets: Sequence[float], counts: Sequence[int],
                 total: int, q: float) -> float:
    """The ``q``-th percentile of ``total`` bucketed observations.

    Linear interpolation inside the bucket the target rank falls into;
    ``+inf`` when it lands above the last finite bucket.
    """
    target = q / 100.0 * total
    running, prev_bound = 0, 0.0
    for bound, count in zip(buckets, counts):
        if count and running + count >= target:
            frac = (target - running) / count
            return prev_bound + (bound - prev_bound) * frac
        running += count
        prev_bound = bound
    return float("inf")


class MetricsRegistry:
    """Ordered collection of uniquely named metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        # a registry can be shared across threads (a server's stats):
        # the name-uniqueness check-then-insert must be atomic
        self._reg_lock = threading.Lock()

    def register(self, metric: Metric) -> Metric:
        with self._reg_lock:
            if metric.name in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self.register(
            Histogram(name, help_text, labelnames, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump: metric -> {labels repr -> value}."""
        out: Dict[str, object] = {}
        for metric in self.metrics():
            values = {",".join(key) if key else "": value
                      for key, value in metric.samples()}
            out[metric.name] = {"kind": metric.kind,
                                "help": metric.help_text,
                                "values": values}
        return out


class RuntimeMetrics:
    """The suite's op instruments over one registry."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry
        self.ops_total = reg.counter(
            "repro_ops_total", "recorded tensor ops", ("category",))
        self.flops_total = reg.counter(
            "repro_flops_total", "recorded floating-point operations")
        self.bytes_total = reg.counter(
            "repro_bytes_total", "recorded memory traffic (read+written)")
        self.live_bytes = reg.gauge(
            "repro_live_bytes", "live tensor bytes after the last op")
        self.peak_live_bytes = reg.gauge(
            "repro_peak_live_bytes", "high-water mark of live bytes")
        self.op_latency = reg.histogram(
            "repro_op_latency_seconds",
            "measured wall time per recorded op", ("category",))
        # one lock for a whole fold: per-instrument locks would cost
        # more than the arithmetic they protect
        self._fold_lock = threading.Lock()

    def observe_trace(self, events: Sequence[TraceEvent]) -> None:
        """Fold a closed profile's events into the op instruments.

        One pass in event order under one lock, so totals continue
        left to right from earlier folds.  Poisoned counters (NaN or
        negative) count as zero.  The live-byte gauge ends at the last
        event's snapshot; the peak gauge keeps the highest one seen.
        """
        if not events:
            return
        buckets = self.op_latency.buckets
        ops = self.ops_total._values
        counts = self.op_latency._counts
        sums = self.op_latency._sums
        totals = self.op_latency._totals
        live = self.live_bytes._values
        peak = self.peak_live_bytes._values
        with self._fold_lock:
            flops = self.flops_total._values.get((), 0.0)
            nbytes = self.bytes_total._values.get((), 0.0)
            for event in events:
                key = (event.category.value,)
                ops[key] = ops.get(key, 0.0) + 1.0
                if event.flops == event.flops and event.flops > 0.0:
                    flops += event.flops
                moved = event.bytes_read + event.bytes_written
                if moved > 0:
                    nbytes += moved
                seconds = event.wall_time
                row = counts.get(key)
                if row is None:
                    row = counts[key] = [0] * len(buckets)
                # first bucket whose bound is >= seconds; past the last
                # one only _count and _sum see it
                slot = bisect_left(buckets, seconds)
                if slot < len(buckets):
                    row[slot] += 1
                sums[key] = sums.get(key, 0.0) + seconds
                totals[key] = totals.get(key, 0) + 1
                live[()] = event.live_bytes
                if event.live_bytes > peak.get((), float("-inf")):
                    peak[()] = event.live_bytes
            self.flops_total._values[()] = flops
            self.bytes_total._values[()] = nbytes
