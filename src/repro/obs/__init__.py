"""Observability layer: spans, metrics, exporters, perf history.

Three altitudes of visibility over the characterization suite:

* **within a run** — :mod:`repro.obs.spans` collects a hierarchical
  span timeline (profile / phase / stage / runner attempts) on top of
  the flat op trace;
* **over a closed run** — :func:`repro.obs.metrics.fold_trace` folds
  a closed trace into the op metric families when asked for
  (``repro metrics W`` prints them as Prometheus text or JSON); there
  is no process-wide registry, so nothing is collected while a run
  executes;
* **between runs** — :mod:`repro.obs.history` appends one entry per
  recording into the committed ``benchmarks/history.jsonl``: exact
  pins (counters, plan and device-model digests of a fixed roster,
  plus the pinned serve schedule's stats) that ``repro obs
  history gate`` compares, and trend-only metrics.

Two additions serve the serving layer: a span may carry a
``trace_id`` (given when it opens, else its parent's), so every span
under one served batch names that batch's trace; and
:mod:`repro.obs.live` turns served responses into rolling snapshots,
deterministic tail-based trace samples and SLO burn-rate alerts
without blocking the hot path.

Exporters (:mod:`repro.obs.chrome`, :mod:`repro.obs.jsonl`,
:mod:`repro.obs.flame`) serialize traces + spans to Chrome Trace Event
JSON, the JSONL event log (the one on-disk trace format: lossless for
events and spans, re-read by ``repro analyze-trace``), and
collapsed-stack flamegraph input.  Every op event carries the span id
(``sid``) of its enclosing span, so :mod:`repro.obs.kstats` can
synthesize Nsight-style kernel counters per span / per category and
:mod:`repro.obs.report` can fold everything into one self-contained
HTML run report.  Folding a trace into the op metrics costs <5% of
profiling it (``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs.chrome import (CATEGORY_COLORS, trace_to_chrome,
                              trace_to_chrome_events)
from repro.obs.flame import FLAME_WEIGHTS, collapsed_stacks, trace_to_flame
from repro.obs.jsonl import (read_jsonl, trace_from_jsonl_lines,
                             trace_to_jsonl, write_jsonl)
from repro.obs.live import (BurnRateMonitor, LiveTelemetry,
                            SnapshotAggregator, TailSamplingPolicy)
from repro.obs.kstats import (CATEGORY_MIX, KernelStats,
                              archetype_kstats, kstats_by_category,
                              kstats_by_span, render_kstats,
                              synthesize_kstats)
from repro.obs.metrics import (Distribution, fold_trace, render_json,
                               render_prometheus)
from repro.obs.report import render_report, write_report
from repro.obs.runrec import counters_digest
from repro.obs.spans import (SpanCollector, SpanRecord, children_of,
                             current_span, now, render_spans, span,
                             span_roots, tracing_active)

__all__ = [
    "BurnRateMonitor", "CATEGORY_COLORS", "CATEGORY_MIX", "Distribution",
    "FLAME_WEIGHTS", "KernelStats", "LiveTelemetry",
    "SnapshotAggregator", "SpanCollector", "SpanRecord",
    "TailSamplingPolicy", "archetype_kstats", "children_of",
    "collapsed_stacks", "counters_digest", "current_span", "fold_trace",
    "kstats_by_category", "kstats_by_span", "now", "read_jsonl",
    "render_json", "render_kstats", "render_prometheus", "render_report",
    "render_spans", "span", "span_roots",
    "synthesize_kstats", "trace_from_jsonl_lines",
    "trace_to_chrome", "trace_to_chrome_events",
    "trace_to_flame", "trace_to_jsonl", "tracing_active", "write_report",
]
