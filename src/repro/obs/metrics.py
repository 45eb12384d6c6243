"""Op metrics of a closed trace, and the bucketed distribution.

:func:`fold_trace` folds a closed profile's events into the six
families ``repro metrics W`` prints (``repro_ops_total`` per
category, ``repro_flops_total``, ``repro_bytes_total``, the live and
peak live bytes, and per-category op latency), so the op metrics are a
view of the trace, computed when asked for, not a second copy of it
kept while the run executes.  :func:`render_prometheus` and
:func:`render_json` print the families as Prometheus text and as
JSON.

:class:`Distribution` is the one bucketed distribution: the op
latency family keeps one per category, and the serving layer's
:class:`~repro.serve.stats.ServerStats` one per workload and stage.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.core.profiler import TraceEvent

#: op latency buckets: 1 µs .. 10 s, one per decade
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: percentiles every distribution reports
QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

#: family name -> (Prometheus type, help text)
FAMILIES: Dict[str, Tuple[str, str]] = {
    "repro_bytes_total": (
        "counter", "recorded memory traffic (read+written)"),
    "repro_flops_total": (
        "counter", "recorded floating-point operations"),
    "repro_live_bytes": (
        "gauge", "live tensor bytes after the last op"),
    "repro_op_latency_seconds": (
        "histogram", "measured wall time per recorded op"),
    "repro_ops_total": ("counter", "recorded tensor ops"),
    "repro_peak_live_bytes": ("gauge", "high-water mark of live bytes"),
}


class Distribution:
    """Observations counted into fixed buckets, with their sum and
    count."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        # the first bucket whose bound is >= value; a value past the
        # last bound counts only in the sum and the count
        slot = bisect_left(self.bounds, value)
        if slot < len(self.counts):
            self.counts[slot] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Distribution") -> None:
        """Add ``other``'s observations (same bounds) to this one."""
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in (0, 100]).

        Linear interpolation inside the bucket the target rank falls
        into (Prometheus ``histogram_quantile`` semantics): 0.0 when
        empty, ``+inf`` when the rank lands past the last bound.
        """
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile q must be in (0, 100], got {q}")
        if not self.count:
            return 0.0
        target = q / 100.0 * self.count
        running, prev_bound = 0, 0.0
        for bound, count in zip(self.bounds, self.counts):
            if count and running + count >= target:
                frac = (target - running) / count
                return prev_bound + (bound - prev_bound) * frac
            running += count
            prev_bound = bound
        return float("inf")

    def summary(self) -> Dict[str, float]:
        """``{count, sum, mean, p50, p95, p99}``."""
        out: Dict[str, float] = {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else 0.0,
        }
        for q in QUANTILES:
            out[f"p{q:g}"] = self.percentile(q)
        return out


def fold_trace(events: Sequence[TraceEvent]) -> Dict[str, Dict[str, object]]:
    """The op metric families of a closed profile's events.

    Returns ``{family: {category or "": value}}``; the latency family's
    values are :class:`Distribution` s.  One pass in event order:
    poisoned counters (NaN or negative) count as zero, the live bytes
    are the last event's and the peak the highest seen.  An empty
    trace has no samples.
    """
    families: Dict[str, Dict[str, object]] = {name: {} for name in FAMILIES}
    if not events:
        return families
    ops: Dict[str, float] = families["repro_ops_total"]  # type: ignore[assignment]
    latency: Dict[str, Distribution] = \
        families["repro_op_latency_seconds"]  # type: ignore[assignment]
    flops = nbytes = 0.0
    peak = events[0].live_bytes
    for event in events:
        category = event.category.value
        ops[category] = ops.get(category, 0.0) + 1.0
        if event.flops == event.flops and event.flops > 0.0:
            flops += event.flops
        moved = event.bytes_read + event.bytes_written
        if moved > 0:
            nbytes += moved
        dist = latency.get(category)
        if dist is None:
            dist = latency[category] = Distribution(LATENCY_BUCKETS)
        dist.add(event.wall_time)
        if event.live_bytes > peak:
            peak = event.live_bytes
    families["repro_flops_total"][""] = flops
    families["repro_bytes_total"][""] = nbytes
    families["repro_live_bytes"][""] = events[-1].live_bytes
    families["repro_peak_live_bytes"][""] = peak
    return families


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(families: Dict[str, Dict[str, object]]) -> str:
    """The families in Prometheus text exposition format, sorted by
    name and category; each latency distribution is expanded to
    cumulative ``le`` buckets, ``_sum``, ``_count`` and p50/p95/p99
    ``quantile`` lines."""
    lines: List[str] = []
    for name in sorted(families):
        kind, help_text = FAMILIES[name]
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for label, value in sorted(families[name].items()):
            category = f'category="{label}"' if label else ""
            if not isinstance(value, Distribution):
                braces = "{" + category + "}" if category else ""
                lines.append(f"{name}{braces} {_format_value(value)}")
                continue
            running = 0
            for bound, count in zip(value.bounds, value.counts):
                running += count
                lines.append(f'{name}_bucket{{{category},'
                             f'le="{_format_value(bound)}"}} {running}')
            lines.append(f'{name}_bucket{{{category},le="+Inf"}} '
                         f'{value.count}')
            lines.append(f"{name}_sum{{{category}}} "
                         f"{_format_value(value.sum)}")
            lines.append(f"{name}_count{{{category}}} {value.count}")
            for q in QUANTILES:
                lines.append(
                    f'{name}{{{category},quantile="'
                    f'{_format_value(q / 100.0)}"}} '
                    f'{_format_value(value.percentile(q))}')
    return "\n".join(lines) + "\n"


def render_json(families: Dict[str, Dict[str, object]]) -> str:
    """The families as one JSON document: family -> ``{kind, help,
    values}``, a distribution's value being its count."""
    doc: Dict[str, object] = {}
    for name, samples in families.items():
        kind, help_text = FAMILIES[name]
        doc[name] = {"kind": kind, "help": help_text, "values": {
            label: float(value.count) if isinstance(value, Distribution)
            else value for label, value in samples.items()}}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
