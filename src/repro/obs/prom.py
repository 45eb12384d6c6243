"""Prometheus text-format rendering of a metrics registry.

Produces the ``text/plain; version=0.0.4`` exposition format a
Prometheus scraper (or a human) can read: ``# HELP`` / ``# TYPE``
headers followed by one sample line per label combination, with
histogram buckets expanded to cumulative ``le`` series plus ``_sum``,
``_count``, and bucket-estimated p50/p95/p99 ``quantile`` lines.
Output is fully sorted so snapshots diff cleanly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.obs.metrics import Histogram, Metric, MetricsRegistry

#: quantiles exported for every histogram label set
QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(metric: Metric, key, extra: str = "") -> str:
    pairs = [f'{name}="{_escape(value)}"'
             for name, value in zip(metric.labelnames, key)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_metric(metric: Metric) -> str:
    """One metric family in exposition format."""
    lines: List[str] = []
    if metric.help_text:
        lines.append(f"# HELP {metric.name} {_escape(metric.help_text)}")
    lines.append(f"# TYPE {metric.name} {metric.kind}")
    if isinstance(metric, Histogram):
        for key, _total in metric.samples():
            cumulative = metric.cumulative_counts(key)
            for bound, count in zip(metric.buckets, cumulative):
                le = 'le="%s"' % _format_value(bound)
                lines.append(f"{metric.name}_bucket"
                             f"{_labels(metric, key, le)} {count}")
            labelset = dict(zip(metric.labelnames, key))
            inf_label = 'le="+Inf"'
            lines.append(f"{metric.name}_bucket"
                         f"{_labels(metric, key, inf_label)}"
                         f" {metric.count(**labelset)}")
            lines.append(f"{metric.name}_sum{_labels(metric, key)} "
                         f"{_format_value(metric.sum(**labelset))}")
            lines.append(f"{metric.name}_count{_labels(metric, key)} "
                         f"{metric.count(**labelset)}")
            # summary-style quantile lines estimated from the buckets,
            # so dashboards get p50/p95/p99 without PromQL
            for q in QUANTILES:
                quantile = 'quantile="%s"' % _format_value(q / 100.0)
                lines.append(
                    f"{metric.name}{_labels(metric, key, quantile)} "
                    f"{_format_value(metric.percentile_key(key, q))}")
    else:
        for key, value in metric.samples():
            lines.append(f"{metric.name}{_labels(metric, key)} "
                         f"{_format_value(value)}")
    return "\n".join(lines)


def render_registry(registry: MetricsRegistry) -> str:
    """The whole registry in exposition format (sorted by name)."""
    families = [render_metric(metric)
                for metric in sorted(registry.metrics(),
                                     key=lambda m: m.name)]
    return "\n".join(families) + ("\n" if families else "")
