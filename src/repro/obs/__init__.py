"""Observability layer: spans, metrics, exporters, perf history.

Three altitudes of visibility over the characterization suite:

* **within a run** — :mod:`repro.obs.spans` collects a hierarchical
  span timeline (profile / phase / stage / runner attempts) on top of
  the flat op trace;
* **across components** — :mod:`repro.obs.metrics` keeps a
  process-wide Prometheus-style instrument registry that closing
  profiles, the fault layer and the resilient runner update (rendered
  by :mod:`repro.obs.prom`);
* **between runs** — :mod:`repro.obs.history` appends one entry per
  recording into the committed ``benchmarks/history.jsonl``: exact
  pins (counters, plan and device-model digests of a fixed roster,
  plus the pinned serve schedule's stats) that ``repro obs
  history gate`` compares, and trend-only metrics.

Two cross-cutting additions serve the serving layer:
:mod:`repro.obs.tracectx` mints picklable request-scoped
:class:`~repro.obs.tracectx.TraceContext` objects that stamp every
span opened in their scope with a ``trace_id`` (causal trees across
queue → batcher → pool → dispatcher), and :mod:`repro.obs.live` is a
bounded ring-buffer event bus with rolling snapshot aggregation,
deterministic tail-based trace sampling, and an SLO burn-rate monitor
— live telemetry that never blocks the hot path.

Exporters (:mod:`repro.obs.chrome`, :mod:`repro.obs.jsonl`,
:mod:`repro.obs.flame`) serialize traces + spans to Chrome Trace Event
JSON, a re-importable JSONL event log, and collapsed-stack flamegraph
input.  Every op event carries the span id (``sid``) of its enclosing
span, so :mod:`repro.obs.kstats` can synthesize Nsight-style kernel
counters per span / per category and :mod:`repro.obs.report` can fold
everything into one self-contained HTML run report.  All collection is
off by default and adds <5% overhead when enabled
(``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs.chrome import (CATEGORY_COLORS, export_chrome,
                              trace_to_chrome, trace_to_chrome_events)
from repro.obs.flame import (FLAME_WEIGHTS, collapsed_stacks,
                             trace_to_flame, write_flame)
from repro.obs.jsonl import (read_jsonl, trace_from_jsonl_lines,
                             trace_to_jsonl, write_jsonl)
from repro.obs.live import (BurnRateMonitor, LiveTelemetry,
                            RingBufferBus, SLOPolicy,
                            SnapshotAggregator, Subscriber,
                            TailSamplingPolicy)
from repro.obs.kstats import (CATEGORY_MIX, KernelStats,
                              archetype_kstats, kstats_by_category,
                              kstats_by_span, render_kstats,
                              synthesize_kstats)
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, RuntimeMetrics,
                               active_runtime, disable, enable,
                               scoped_runtime)
from repro.obs.prom import render_registry, render_runtime
from repro.obs.report import render_report, write_report
from repro.obs.runrec import counters_digest
from repro.obs.spans import (SpanCollector, SpanRecord, children_of,
                             current_span, now, render_spans, span,
                             span_roots, tracing_active)
from repro.obs.tracectx import (TraceContext, current_trace_context,
                                mint_batch_trace_id,
                                mint_trace_context, trace_scope)

__all__ = [
    "BurnRateMonitor", "CATEGORY_COLORS", "CATEGORY_MIX", "Counter",
    "FLAME_WEIGHTS", "Gauge", "Histogram", "KernelStats",
    "LiveTelemetry", "MetricsRegistry", "RingBufferBus",
    "RuntimeMetrics", "SLOPolicy", "SnapshotAggregator",
    "SpanCollector", "SpanRecord", "Subscriber", "TailSamplingPolicy",
    "TraceContext", "active_runtime", "archetype_kstats",
    "children_of", "collapsed_stacks",
    "counters_digest", "current_span", "current_trace_context",
    "disable", "enable", "export_chrome", "kstats_by_category",
    "kstats_by_span", "mint_batch_trace_id", "mint_trace_context",
    "now", "read_jsonl", "render_kstats", "render_registry",
    "render_report", "render_runtime", "render_spans", "scoped_runtime",
    "span", "span_roots", "synthesize_kstats", "trace_from_jsonl_lines",
    "trace_scope", "trace_to_chrome", "trace_to_chrome_events",
    "trace_to_flame", "trace_to_jsonl", "tracing_active", "write_flame",
    "write_report",
]
