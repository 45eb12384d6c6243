"""Tests for the observability layer: spans, metrics, exporters
(Chrome / JSONL / Prometheus), and the counters digest."""

import gc
import json
from typing import Any, Dict

import numpy as np
import pytest

from repro import obs
from repro import tensor as T
from repro.cli import main as cli_main
from repro.core.profiler import Trace
from repro.core.taxonomy import CATEGORY_ORDER, NSParadigm
from repro.obs import metrics as obs_metrics
from repro.obs.chrome import CATEGORY_COLORS
from repro.obs.runrec import counters_digest
from repro.obs.spans import (SpanCollector, span, span_roots,
                             tracing_active)
from repro.resilience.runner import ResilientRunner
from repro.workloads import PAPER_ORDER, available, create
from repro.workloads.base import Workload, WorkloadInfo
from tests.conftest import cached_trace


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_span_is_noop_without_collector(self):
        assert not tracing_active()
        with span("orphan") as record:
            assert record is None
        assert not tracing_active()

    def test_profile_collects_span_tree(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                with T.stage("mlp"):
                    T.add(T.tensor(np.ones(2)), 1.0)
        spans = prof.trace.spans
        names = [s.name for s in spans]
        # spans close innermost-first
        assert names == ["stage:mlp", "phase:neural", "profile:w"]
        roots = span_roots(spans)
        assert [r.name for r in roots] == ["profile:w"]
        by_name = {s.name: s for s in spans}
        assert by_name["phase:neural"].parent == by_name["profile:w"].sid
        assert by_name["stage:mlp"].parent == by_name["phase:neural"].sid
        for record in spans:
            assert record.end >= record.start

    def test_span_attrs_and_collector_nesting(self):
        with SpanCollector() as outer:
            with span("a", kind="outer"):
                with SpanCollector() as inner:
                    with span("b") as rec:
                        rec.attrs["extra"] = 1
        assert [s.name for s in inner.spans] == ["b"]
        # the outer collector sees both spans
        assert [s.name for s in outer.spans] == ["b", "a"]
        assert outer.spans[0].attrs["extra"] == 1
        assert outer.spans[1].attrs["kind"] == "outer"

    def test_sid_counter_resets_between_runs(self):
        def sids():
            with SpanCollector() as collector:
                with span("x"):
                    with span("y"):
                        pass
            return [s.sid for s in collector.spans]

        assert sids() == sids()

    def test_render_spans_indents(self):
        with SpanCollector() as collector:
            with span("root"):
                with span("child"):
                    pass
        text = obs.render_spans(collector.spans)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    @pytest.mark.parametrize("name", available())
    def test_fold_matches_trace_totals(self, name):
        # the op metrics are a view of the closed trace: one fold of
        # it reproduces the trace's own totals
        events = list(cached_trace(name, seed=0))
        families = obs_metrics.fold_trace(events)
        flops = 0.0
        for event in events:      # poison-clamped, left to right
            if event.flops == event.flops and event.flops > 0.0:
                flops += event.flops
        ops = families["repro_ops_total"]
        latency = families["repro_op_latency_seconds"]
        assert sum(ops.values()) == len(events)
        assert families["repro_flops_total"] == {"": flops}
        assert families["repro_bytes_total"] == {"": sum(
            e.bytes_read + e.bytes_written for e in events)}
        assert families["repro_live_bytes"] == {"": events[-1].live_bytes}
        assert families["repro_peak_live_bytes"] == {"": max(
            e.live_bytes for e in events)}
        for category in CATEGORY_ORDER:
            count = sum(e.category is category for e in events)
            assert ops.get(category.value, 0) == count
            dist = latency.get(category.value)
            assert (dist.count if dist else 0) == count

    @staticmethod
    def _profile_toy() -> Trace:
        with T.profile("toy") as prof:
            with T.phase("neural"):
                x = T.tensor(np.ones((8, 8), dtype=np.float32))
                T.relu(T.matmul(x, x))
            with T.phase("symbolic"):
                T.add(x, 1.0)
        return prof.trace

    def test_histogram_cumulative_buckets(self):
        dist = obs_metrics.Distribution((0.1, 1.0))
        dist.add(0.05)
        dist.add(0.5)
        dist.add(5.0)  # above the top bucket: only in +Inf/_count
        assert dist.counts == [1, 1]
        assert dist.count == 3
        assert dist.sum == pytest.approx(5.55)

    def test_prom_rendering(self):
        families = obs_metrics.fold_trace(self._profile_toy())
        text = obs_metrics.render_prometheus(families)
        assert "# HELP repro_ops_total recorded tensor ops" in text
        assert "# TYPE repro_ops_total counter" in text
        assert "# TYPE repro_op_latency_seconds histogram" in text
        assert 'repro_ops_total{category="matmul"} 1' in text
        assert 'le="+Inf"' in text
        assert "repro_op_latency_seconds_count" in text
        assert "repro_op_latency_seconds_sum" in text
        # the JSON rendering parses
        json.loads(obs_metrics.render_json(families))


#: ``repro metrics`` of ``TestMetricsOutput``'s trace, byte for byte
_PINNED_PROM = """\
# HELP repro_bytes_total recorded memory traffic (read+written)
# TYPE repro_bytes_total counter
repro_bytes_total 92
# HELP repro_flops_total recorded floating-point operations
# TYPE repro_flops_total counter
repro_flops_total 7.5
# HELP repro_live_bytes live tensor bytes after the last op
# TYPE repro_live_bytes gauge
repro_live_bytes 32
# HELP repro_op_latency_seconds measured wall time per recorded op
# TYPE repro_op_latency_seconds histogram
repro_op_latency_seconds_bucket{category="elementwise",le="1e-06"} 0
repro_op_latency_seconds_bucket{category="elementwise",le="1e-05"} 0
repro_op_latency_seconds_bucket{category="elementwise",le="0.0001"} 0
repro_op_latency_seconds_bucket{category="elementwise",le="0.001"} 1
repro_op_latency_seconds_bucket{category="elementwise",le="0.01"} 1
repro_op_latency_seconds_bucket{category="elementwise",le="0.1"} 2
repro_op_latency_seconds_bucket{category="elementwise",le="1"} 2
repro_op_latency_seconds_bucket{category="elementwise",le="10"} 2
repro_op_latency_seconds_bucket{category="elementwise",le="+Inf"} 2
repro_op_latency_seconds_sum{category="elementwise"} 0.04025
repro_op_latency_seconds_count{category="elementwise"} 2
repro_op_latency_seconds{category="elementwise",quantile="0.5"} 0.001
repro_op_latency_seconds{category="elementwise",quantile="0.95"} 0.091
repro_op_latency_seconds{category="elementwise",quantile="0.99"} \
0.09820000000000001
repro_op_latency_seconds_bucket{category="matmul",le="1e-06"} 0
repro_op_latency_seconds_bucket{category="matmul",le="1e-05"} 1
repro_op_latency_seconds_bucket{category="matmul",le="0.0001"} 1
repro_op_latency_seconds_bucket{category="matmul",le="0.001"} 1
repro_op_latency_seconds_bucket{category="matmul",le="0.01"} 1
repro_op_latency_seconds_bucket{category="matmul",le="0.1"} 1
repro_op_latency_seconds_bucket{category="matmul",le="1"} 1
repro_op_latency_seconds_bucket{category="matmul",le="10"} 1
repro_op_latency_seconds_bucket{category="matmul",le="+Inf"} 2
repro_op_latency_seconds_sum{category="matmul"} 12.500003
repro_op_latency_seconds_count{category="matmul"} 2
repro_op_latency_seconds{category="matmul",quantile="0.5"} 1e-05
repro_op_latency_seconds{category="matmul",quantile="0.95"} +Inf
repro_op_latency_seconds{category="matmul",quantile="0.99"} +Inf
# HELP repro_ops_total recorded tensor ops
# TYPE repro_ops_total counter
repro_ops_total{category="elementwise"} 2
repro_ops_total{category="matmul"} 2
# HELP repro_peak_live_bytes high-water mark of live bytes
# TYPE repro_peak_live_bytes gauge
repro_peak_live_bytes 160
"""

_PINNED_JSON = """\
{
 "repro_bytes_total": {
  "help": "recorded memory traffic (read+written)",
  "kind": "counter",
  "values": {
   "": 92.0
  }
 },
 "repro_flops_total": {
  "help": "recorded floating-point operations",
  "kind": "counter",
  "values": {
   "": 7.5
  }
 },
 "repro_live_bytes": {
  "help": "live tensor bytes after the last op",
  "kind": "gauge",
  "values": {
   "": 32
  }
 },
 "repro_op_latency_seconds": {
  "help": "measured wall time per recorded op",
  "kind": "histogram",
  "values": {
   "elementwise": 2.0,
   "matmul": 2.0
  }
 },
 "repro_ops_total": {
  "help": "recorded tensor ops",
  "kind": "counter",
  "values": {
   "elementwise": 2.0,
   "matmul": 2.0
  }
 },
 "repro_peak_live_bytes": {
  "help": "high-water mark of live bytes",
  "kind": "gauge",
  "values": {
   "": 160
  }
 }
}
"""


class TestMetricsOutput:
    """``repro metrics`` prints exactly what it printed when these
    literals were captured: two categories, a NaN-FLOPs event (not
    counted) and a matmul slower than the top latency bucket (in the
    +Inf bucket, the sum and the count only)."""

    @pytest.fixture
    def pinned_trace(self, monkeypatch):
        from repro.core.taxonomy import OpCategory
        from repro.core.profiler import TraceEvent
        from repro.workloads.lnn import LNNWorkload
        trace = Trace("lnn", [
            TraceEvent(0, "matmul", OpCategory.MATMUL, flops=2.0,
                       bytes_read=8, bytes_written=4, wall_time=3e-06,
                       live_bytes=64),
            TraceEvent(1, "add", OpCategory.ELEMENTWISE,
                       flops=float("nan"), bytes_read=16,
                       bytes_written=16, wall_time=0.00025,
                       live_bytes=160),
            TraceEvent(2, "matmul", OpCategory.MATMUL, flops=1.5,
                       bytes_read=24, bytes_written=8, wall_time=12.5,
                       live_bytes=96),
            TraceEvent(3, "relu", OpCategory.ELEMENTWISE, flops=4.0,
                       bytes_read=8, bytes_written=8, wall_time=0.04,
                       live_bytes=32),
        ])
        monkeypatch.setattr(LNNWorkload, "profile", lambda self: trace)

    @pytest.mark.parametrize("fmt, expected", [
        ("prom", _PINNED_PROM), ("json", _PINNED_JSON)])
    def test_output_is_pinned(self, pinned_trace, capsys, fmt, expected):
        assert cli_main(["metrics", "lnn", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


class TestHistogramPercentiles:
    def _loaded(self):
        dist = obs_metrics.Distribution(
            tuple(0.01 * i for i in range(1, 101)))
        for i in range(100):
            dist.add(0.01 * (i + 1) - 0.005)
        return dist

    def test_interpolated_quantiles(self):
        dist = self._loaded()
        assert dist.percentile(50.0) == pytest.approx(0.50, abs=0.02)
        assert dist.percentile(95.0) == pytest.approx(0.95, abs=0.02)
        assert dist.percentile(99.0) == pytest.approx(0.99, abs=0.02)
        assert dist.percentile(100.0) <= 1.0

    def test_empty_and_overflow(self):
        dist = obs_metrics.Distribution((0.1, 1.0))
        assert dist.percentile(99.0) == 0.0
        dist.add(5.0)  # above every bucket bound
        assert dist.percentile(99.0) == float("inf")

    def test_quantile_domain_validated(self):
        dist = obs_metrics.Distribution((1.0,))
        with pytest.raises(ValueError):
            dist.percentile(0.0)
        with pytest.raises(ValueError):
            dist.percentile(101.0)

    def test_summary_block(self):
        summary = self._loaded().summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.5, abs=0.01)
        assert set(summary) == {"count", "sum", "mean",
                                "p50", "p95", "p99"}

    def test_prom_exposition_has_quantile_lines(self):
        text = obs_metrics.render_prometheus(obs_metrics.fold_trace(
            TestMetrics._profile_toy()))
        for q in ("0.5", "0.95", "0.99"):
            assert f'quantile="{q}"' in text
        assert ('repro_op_latency_seconds{category="matmul",'
                'quantile="0.5"}') in text


class TestWorkerThreadIsolation:
    """Concurrent workers must not corrupt span ids or leak metrics."""

    def test_concurrent_span_sids_disjoint(self):
        import threading
        barrier = threading.Barrier(2)
        results = {}

        def work(name):
            with SpanCollector() as collector:
                barrier.wait(timeout=5.0)
                with span(f"outer:{name}"):
                    with span(f"inner:{name}"):
                        pass
            results[name] = {s.sid for s in collector.spans}

        threads = [threading.Thread(target=work, args=(n,))
                   for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert len(results["a"]) == 2 and len(results["b"]) == 2
        assert not results["a"] & results["b"], \
            "span ids collided across worker threads"

    def test_sid_counter_still_resets_when_idle(self):
        def sids():
            with SpanCollector() as collector:
                with span("x"):
                    pass
            return [s.sid for s in collector.spans]

        assert sids() == sids()

    def test_unbound_worker_thread_does_not_see_scope(self):
        # a profiling context is thread-local: ops a worker thread
        # runs while this thread profiles land in the worker's own
        # trace, so a fold of this thread's trace never counts them
        import threading
        traces = []
        with T.profile("outer") as outer:
            thread = threading.Thread(
                target=lambda: traces.append(TestMetrics._profile_toy()))
            thread.start()
            thread.join(10.0)
        assert list(outer.trace) == []
        assert all(samples == {} for samples in
                   obs_metrics.fold_trace(outer.trace).values())
        ops = obs_metrics.fold_trace(traces[0])["repro_ops_total"]
        assert sum(ops.values()) == len(traces[0]) > 0


# ---------------------------------------------------------------------------
# exporters — Chrome trace
# ---------------------------------------------------------------------------

class TestChromeExport:
    def test_valid_for_all_workloads(self, all_traces):
        valid_colors = set(CATEGORY_COLORS.values())
        for name, trace in all_traces.items():
            doc = json.loads(obs.trace_to_chrome(trace))
            events = doc["traceEvents"]
            assert isinstance(events, list) and events, name
            complete = [e for e in events if e["ph"] == "X"]
            metadata = [e for e in events if e["ph"] == "M"]
            assert len(complete) + len(metadata) == len(events), name
            for event in complete:
                assert event["ts"] >= 0, name
                assert event["dur"] >= 0, name
                assert event["pid"] == 1, name
                assert isinstance(event["tid"], int), name
            ops = [e for e in complete if e["cat"] != "span"]
            assert len(ops) == len(trace), name
            assert {e["cname"] for e in ops} <= valid_colors, name
            # phases appear as named tracks
            thread_names = {e["args"]["name"] for e in metadata
                            if e["name"] == "thread_name"}
            for phase in trace.columns.phases:
                assert f"ops:{phase}" in thread_names, name
            assert "spans" in thread_names, name

    def test_span_track_and_measured_timestamps(self, nvsa_trace):
        doc = json.loads(obs.trace_to_chrome(nvsa_trace))
        spans = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "span"]
        assert spans
        assert {e["tid"] for e in spans} == {0}
        names = {e["name"] for e in spans}
        assert "profile:nvsa" in names
        # ops carry measured process-epoch timestamps, not cursor layout
        ops = [e for e in doc["traceEvents"]
               if e["ph"] == "X" and e["cat"] != "span"]
        assert any(e["ts"] > 0 for e in ops)

    def test_legacy_trace_without_timestamps_still_exports(self):
        trace = cached_trace("lnn", seed=0)
        stripped = Trace(workload=trace.workload)
        for event in trace:
            stripped.append(event._replace(t_start=0.0))
        doc = json.loads(obs.trace_to_chrome(stripped))
        ops = [e for e in doc["traceEvents"]
               if e["ph"] == "X" and e["cat"] != "span"]
        assert len(ops) == len(trace)
        # serial cursor layout: events on one track never overlap
        by_tid: Dict[int, list] = {}
        for event in ops:
            by_tid.setdefault(event["tid"], []).append(event)
        for events in by_tid.values():
            cursor = 0.0
            for event in events:
                assert event["ts"] >= cursor - 1e-9
                cursor = event["ts"] + event["dur"]

    def test_export_chrome_writes_file(self, tmp_path, capsys):
        # `trace export --format chrome -o` is the one file writer
        path = tmp_path / "lnn.json"
        assert cli_main(["trace", "export", "lnn", "--format", "chrome",
                         "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["otherData"]["workload"] == "lnn"


# ---------------------------------------------------------------------------
# exporters — JSONL
# ---------------------------------------------------------------------------

def _phase_category_totals(trace: Trace) -> Dict[tuple, tuple]:
    out: Dict[tuple, tuple] = {}
    for event in trace:
        key = (event.phase, event.category.value)
        count, flops, nbytes = out.get(key, (0, 0.0, 0.0))
        out[key] = (count + 1, flops + event.flops,
                    nbytes + event.total_bytes)
    return out


class TestJsonlExport:
    def test_roundtrip_all_workloads(self, all_traces):
        for name, trace in all_traces.items():
            rebuilt = obs.trace_from_jsonl_lines(
                obs.trace_to_jsonl(trace).splitlines())
            assert rebuilt.workload == trace.workload, name
            assert len(rebuilt) == len(trace), name
            # json float serialization round-trips exactly
            assert (_phase_category_totals(rebuilt)
                    == _phase_category_totals(trace)), name
            assert sum(rebuilt.columns.flops.tolist()) == pytest.approx(
                sum(trace.columns.flops.tolist())), name
            assert len(rebuilt.spans) == len(trace.spans), name
            assert ([s.name for s in rebuilt.spans]
                    == [s.name for s in trace.spans]), name

    def test_file_roundtrip(self, tmp_path, lnn_trace):
        path = tmp_path / "lnn.jsonl"
        obs.write_jsonl(lnn_trace, str(path))
        rebuilt = obs.read_jsonl(str(path))
        assert len(rebuilt) == len(lnn_trace)
        assert rebuilt.metadata["seed"] == 0

    def test_rejects_unknown_type_and_version(self):
        with pytest.raises(ValueError, match="unknown record type"):
            obs.trace_from_jsonl_lines(['{"type": "mystery"}'])
        with pytest.raises(ValueError, match="version"):
            obs.trace_from_jsonl_lines(
                ['{"type": "meta", "version": 99}'])

    @pytest.mark.parametrize("line, reason", [
        ('{"type": "op", "name": "add"', "not JSON"),
        ('[1, 2]', "not a JSON object"),
        ('{"type": "op", "name": "add", "category": "elementwise"}',
         "missing field 'eid'"),
        ('{"type": "op", "eid": 1, "name": "add", "category": "bogus"}',
         "bogus"),
        ('{"type": "op", "eid": 1, "name": "add", "category": "other",'
         ' "flops": null}', "float"),
        ('{"type": "span", "sid": 0}', "missing field 'name'"),
        ('{"type": "meta", "version": 99}', "version"),
        ('{"type": "op", "eid": 1e30, "name": "add", "category": "other"}',
         "does not fit in 64 bits"),
        ('{"type": "op", "eid": 1, "name": "add", "category": "other",'
         ' "parents": [9223372036854775808]}', "does not fit in 64 bits"),
        ('{"type": "op", "eid": 1, "name": "add", "category": "other",'
         ' "bytes_read": Infinity}', "cannot convert float infinity"),
    ], ids=["not-json", "not-object", "no-eid", "bad-category",
            "null-flops", "span-no-name", "bad-version", "huge-eid",
            "huge-parent", "inf-bytes"])
    def test_malformed_line_names_its_number(self, line, reason):
        lines = ['{"type": "meta", "version": 2, "workload": "w"}', "",
                 line]
        with pytest.raises(ValueError, match=f"^line 3: .*{reason}"):
            obs.trace_from_jsonl_lines(lines)

    def test_sid_roundtrip(self, nvsa_trace):
        rebuilt = obs.trace_from_jsonl_lines(
            obs.trace_to_jsonl(nvsa_trace).splitlines())
        assert [e.sid for e in rebuilt] \
            == [e.sid for e in nvsa_trace]
        assert any(e.sid is not None for e in rebuilt)

    def test_v1_log_loads_with_sid_none(self):
        # pre-attribution logs: version 1 meta, op lines without "sid"
        rebuilt = obs.trace_from_jsonl_lines([
            '{"type": "meta", "version": 1, "workload": "old"}',
            '{"type": "op", "eid": 0, "name": "add",'
            ' "category": "elementwise", "flops": 4.0}',
        ])
        assert rebuilt.workload == "old"
        assert rebuilt[0].sid is None

    def test_span_attrs_roundtrip_non_string_values(self):
        from repro.obs.spans import SpanCollector, span
        attrs = {"count": 7, "ratio": 0.25,
                 "nested": {"shape": [3, 4], "ok": True}}
        with SpanCollector() as collector:
            with span("typed", **attrs):
                pass
        trace = Trace(workload="w")
        trace.spans = list(collector.spans)
        rebuilt = obs.trace_from_jsonl_lines(
            obs.trace_to_jsonl(trace).splitlines())
        assert rebuilt.spans[0].attrs == attrs
        assert isinstance(rebuilt.spans[0].attrs["count"], int)
        assert isinstance(rebuilt.spans[0].attrs["ratio"], float)

    def test_deterministic_for_fixed_seed(self):
        from repro.workloads import create
        first = obs.trace_to_jsonl(create("lnn", seed=0).profile())
        second = obs.trace_to_jsonl(create("lnn", seed=0).profile())

        def stable(text):
            out = []
            for line in text.splitlines():
                record = json.loads(line)
                if record["type"] == "op":
                    out.append((record["eid"], record["name"],
                                record["phase"], record["stage"],
                                record["flops"]))
                elif record["type"] == "span":
                    out.append((record["sid"], record["parent"],
                                record["name"]))
            return out

        assert stable(first) == stable(second)


# ---------------------------------------------------------------------------
# counters digest
# ---------------------------------------------------------------------------

class TestCountersDigest:
    def test_digest_stable_across_reruns(self):
        from repro.workloads import create
        first = counters_digest(create("lnn", seed=0).profile())
        second = counters_digest(create("lnn", seed=0).profile())
        assert first == second
        third = counters_digest(create("ltn", seed=0).profile())
        assert first != third  # different workload, different op stream


# ---------------------------------------------------------------------------
# resilient-runner spans
# ---------------------------------------------------------------------------

def _toy_info(name: str) -> WorkloadInfo:
    return WorkloadInfo(
        name=name, full_name=name,
        paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="none", application="test", advantage="none",
        datasets=("synthetic",), datatype="float32",
        neural_workload="matmul", symbolic_workload="add")


class ObsToyWorkload(Workload):
    info = _toy_info("toy")

    def _build(self) -> None:
        self.x = T.Tensor(np.ones((8, 8), dtype=np.float32))

    def run(self) -> Dict[str, Any]:
        with T.phase("neural"):
            y = T.relu(T.matmul(self.x, self.x))
        with T.phase("symbolic"):
            T.add(y, y)
        return {"ok": True}


class ObsFlakyWorkload(ObsToyWorkload):
    def __init__(self, failures: int, **params: Any):
        super().__init__(**params)
        self.remaining = [failures]  # shared across factory returns

    def profile(self) -> Trace:
        if self.remaining[0] > 0:
            self.remaining[0] -= 1
            raise TimeoutError("flaky")
        return super().profile()


def _runner(**kwargs: Any) -> ResilientRunner:
    kwargs.setdefault("factory",
                      lambda name, **kw: ObsToyWorkload())
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("timeout", None)
    return ResilientRunner(**kwargs)


class TestRunnerObservability:
    def test_outcome_carries_span_timeline(self):
        outcome = _runner().run_workload("toy", seed=0)
        assert outcome.status == "ok"
        names = [s.name for s in outcome.spans]
        assert "run:toy" in names
        assert "attempt#1" in names
        assert "health_check" in names
        # timeout=None keeps the attempt on this thread, so workload
        # spans reach the runner's collector too
        assert "profile:toy" in names
        by_name = {s.name: s for s in outcome.spans}
        assert by_name["run:toy"].attrs["status"] == "ok"
        assert by_name["attempt#1"].attrs["status"] == "ok"
        assert by_name["health_check"].attrs["ok"] is True
        roots = span_roots(outcome.spans)
        assert [r.name for r in roots] == ["run:toy"]

    def test_retry_emits_backoff_spans_and_metrics(self):
        # attempts, retries and the outcome are read off the run's
        # own record: its outcome and its span timeline
        flaky = ObsFlakyWorkload(failures=2)
        runner = _runner(factory=lambda name, **kw: flaky,
                         max_retries=3)
        outcome = runner.run_workload("toy", seed=0)
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        names = [s.name for s in outcome.spans]
        assert names.count("backoff") == 2
        assert "attempt#3" in names
        run = next(s for s in outcome.spans if s.name == "run:toy")
        assert run.attrs["attempts"] == 3
        assert run.attrs["status"] == "ok"

    def test_worker_thread_attempt_still_produces_runner_spans(self):
        outcome = _runner(timeout=30.0).run_workload("toy", seed=0)
        assert outcome.status == "ok"
        names = [s.name for s in outcome.spans]
        assert "run:toy" in names and "attempt#1" in names


# ---------------------------------------------------------------------------
# nested live-byte accounting (satellite fix)
# ---------------------------------------------------------------------------

class TestNestedLiveBytes:
    def test_nested_context_allocations_propagate_to_outer(self):
        with T.profile("outer") as outer:
            with T.profile("inner") as inner:
                x = T.tensor(np.ones(1024, dtype=np.float32))
                assert inner.live_bytes >= 4096
                # the allocation is also charged to the enclosing run
                assert outer.live_bytes >= 4096
            assert outer.peak_live_bytes >= 4096
            del x
            gc.collect()
            assert outer.live_bytes < 4096


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestObsCli:
    def test_trace_export_chrome(self, tmp_path, capsys):
        out = tmp_path / "lnn_chrome.json"
        assert cli_main(["trace", "export", "lnn",
                         "--format", "chrome", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert "wrote" in capsys.readouterr().out

    def test_trace_export_jsonl_reimports(self, tmp_path):
        out = tmp_path / "lnn.jsonl"
        assert cli_main(["trace", "export", "lnn",
                         "--format", "jsonl", "-o", str(out)]) == 0
        rebuilt = obs.read_jsonl(str(out))
        assert rebuilt.workload == "lnn"
        assert len(rebuilt) > 0

    def test_metrics_prom_and_json(self, capsys):
        assert cli_main(["metrics", "lnn"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_ops_total counter" in text
        assert cli_main(["metrics", "lnn", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        # the snapshot is a fold of the workload's trace: its op count
        # is the trace's, and only the op families are there
        ops = snapshot["repro_ops_total"]["values"]
        assert sum(ops.values()) == len(cached_trace("lnn", seed=0))
        assert sorted(snapshot) == [
            "repro_bytes_total", "repro_flops_total", "repro_live_bytes",
            "repro_op_latency_seconds", "repro_ops_total",
            "repro_peak_live_bytes"]


def test_paper_order_unchanged():
    # the exporters' per-workload tests above assume the full roster
    assert PAPER_ORDER == ("lnn", "ltn", "nvsa", "nlm", "vsait",
                           "zeroc", "prae")
