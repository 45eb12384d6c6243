"""Tests for the observability layer: spans, metrics, exporters
(Chrome / JSONL / Prometheus), and the counters digest."""

import dataclasses
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
from repro.obs.prom import render_runtime
from repro.obs.runrec import counters_digest
from repro.obs.spans import (SpanCollector, span, span_roots,
                             tracing_active)
from repro.resilience.runner import ResilientRunner, RetryPolicy
from repro.workloads import PAPER_ORDER, create
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
    @pytest.mark.parametrize("name", ["lnn", "nvsa"])
    def test_scoped_runtime_matches_trace_totals(self, name):
        # LNN sets its kb_forward_chain region's counters inside the
        # region, so the fold must see the final event
        with obs_metrics.scoped_runtime() as runtime:
            trace = create(name, seed=0).profile()
        events = trace.events
        flops = 0.0
        for event in events:      # poison-clamped, left to right
            if event.flops == event.flops and event.flops > 0.0:
                flops += event.flops
        assert runtime.ops_total.total() == len(events)
        assert runtime.flops_total.value() == flops
        assert runtime.bytes_total.value() == sum(
            e.bytes_read + e.bytes_written for e in events)
        assert runtime.live_bytes.value() == events[-1].live_bytes
        assert runtime.peak_live_bytes.value() == max(
            e.live_bytes for e in events)
        for category in CATEGORY_ORDER:
            count = sum(e.category is category for e in events)
            assert runtime.ops_total.value(category=category.value) \
                == count
            assert runtime.op_latency.count(category=category.value) \
                == count

    @staticmethod
    def _profile_toy() -> Trace:
        with T.profile("toy") as prof:
            with T.phase("neural"):
                x = T.tensor(np.ones((8, 8), dtype=np.float32))
                T.relu(T.matmul(x, x))
            with T.phase("symbolic"):
                T.add(x, 1.0)
        return prof.trace

    def test_disabled_by_default(self):
        assert not obs_metrics.ENABLED
        self._profile_toy()
        assert obs_metrics._RUNTIME.ops_total.total() == 0

    def test_scoped_runtimes_isolate(self):
        with obs_metrics.scoped_runtime() as outer:
            self._profile_toy()
            outer_ops = outer.ops_total.total()
            with obs_metrics.scoped_runtime() as inner:
                self._profile_toy()
            # inner observations never leak into the outer runtime
            assert outer.ops_total.total() == outer_ops
            assert inner.ops_total.total() == outer_ops
        assert not obs_metrics.ENABLED

    def test_enable_disable_process_default(self):
        obs_metrics.enable()
        try:
            assert obs_metrics.ENABLED
            self._profile_toy()
            assert obs_metrics._RUNTIME.ops_total.total() > 0
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
        assert not obs_metrics.ENABLED
        assert obs_metrics._RUNTIME.ops_total.total() == 0

    def test_counter_rejects_negative_and_bad_labels(self):
        counter = obs_metrics.Counter("c", labelnames=("a",))
        with pytest.raises(ValueError):
            counter.inc(-1.0, a="x")
        with pytest.raises(ValueError):
            counter.inc(1.0, wrong="x")

    def test_registry_rejects_duplicates(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("dup")
        with pytest.raises(ValueError):
            registry.counter("dup")

    def test_histogram_cumulative_buckets(self):
        hist = obs_metrics.Histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)  # above the top bucket: only in +Inf/_count
        assert hist.cumulative_counts(()) == [1, 2]
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_fault_metrics_from_injection(self):
        from repro.resilience.faults import FaultPlan, FaultSpec
        with obs_metrics.scoped_runtime() as runtime:
            plan = FaultPlan([FaultSpec(kind="latency", rate=1.0,
                                        latency=0.0001)], seed=0)
            with T.profile("w"), plan:
                T.add(T.tensor(np.ones(2)), 1.0)
        assert runtime.faults_injected_total.value(kind="latency") >= 1

    def test_prom_rendering(self):
        with obs_metrics.scoped_runtime() as runtime:
            self._profile_toy()
        text = render_runtime(runtime)
        assert "# HELP repro_ops_total recorded tensor ops" in text
        assert "# TYPE repro_ops_total counter" in text
        assert "# TYPE repro_op_latency_seconds histogram" in text
        assert 'repro_ops_total{category="matmul"} 1' in text
        assert 'le="+Inf"' in text
        assert "repro_op_latency_seconds_count" in text
        assert "repro_op_latency_seconds_sum" in text
        # snapshot is JSON-serializable
        json.dumps(runtime.registry.snapshot())


class TestHistogramPercentiles:
    def _loaded(self):
        hist = obs_metrics.Histogram("h", labelnames=("wl",),
                                     buckets=tuple(
                                         0.01 * i for i in range(1, 101)))
        for i in range(100):
            hist.observe(0.01 * (i + 1) - 0.005, wl="a")
        return hist

    def test_interpolated_quantiles(self):
        hist = self._loaded()
        assert hist.percentile(50.0, wl="a") == pytest.approx(0.50, abs=0.02)
        assert hist.percentile(95.0, wl="a") == pytest.approx(0.95, abs=0.02)
        assert hist.percentile(99.0, wl="a") == pytest.approx(0.99, abs=0.02)
        assert hist.percentile(100.0, wl="a") <= 1.0

    def test_empty_and_overflow(self):
        hist = obs_metrics.Histogram("h", buckets=(0.1, 1.0))
        assert hist.percentile(99.0) == 0.0
        hist.observe(5.0)  # above every bucket bound
        assert hist.percentile(99.0) == float("inf")

    def test_quantile_domain_validated(self):
        hist = obs_metrics.Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_summary_block(self):
        hist = self._loaded()
        summary = hist.summary(wl="a")
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.5, abs=0.01)
        assert set(summary) == {"count", "sum", "mean",
                                "p50", "p95", "p99"}

    def test_prom_exposition_has_quantile_lines(self):
        from repro.obs.prom import render_registry
        registry = obs_metrics.MetricsRegistry()
        hist = registry.histogram("lat_seconds", "x", ("wl",),
                                  buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value, wl="a")
        text = render_registry(registry)
        for q in ("0.5", "0.95", "0.99"):
            assert f'quantile="{q}"' in text
        assert 'lat_seconds{wl="a",quantile="0.5"}' in text


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
        import threading
        try:
            with obs_metrics.scoped_runtime() as runtime:
                def worker():
                    TestMetrics._profile_toy()
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join(10.0)
                # the override is thread-local: the scope never
                # reaches the thread
                assert runtime.ops_total.total() == 0
        finally:
            # the unbound thread reported to the process default instead
            obs_metrics.reset()


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
            assert len(ops) == len(trace.events), name
            assert {e["cname"] for e in ops} <= valid_colors, name
            # phases appear as named tracks
            thread_names = {e["args"]["name"] for e in metadata
                            if e["name"] == "thread_name"}
            for phase in trace.phases():
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
        for event in trace.events:
            stripped.append(dataclasses.replace(event, t_start=0.0))
        doc = json.loads(obs.trace_to_chrome(stripped))
        ops = [e for e in doc["traceEvents"]
               if e["ph"] == "X" and e["cat"] != "span"]
        assert len(ops) == len(trace.events)
        # serial cursor layout: events on one track never overlap
        by_tid: Dict[int, list] = {}
        for event in ops:
            by_tid.setdefault(event["tid"], []).append(event)
        for events in by_tid.values():
            cursor = 0.0
            for event in events:
                assert event["ts"] >= cursor - 1e-9
                cursor = event["ts"] + event["dur"]

    def test_export_chrome_writes_file(self, tmp_path, lnn_trace):
        path = tmp_path / "lnn.json"
        obs.export_chrome(lnn_trace, str(path))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["workload"] == "lnn"


# ---------------------------------------------------------------------------
# exporters — JSONL
# ---------------------------------------------------------------------------

def _phase_category_totals(trace: Trace) -> Dict[tuple, tuple]:
    out: Dict[tuple, tuple] = {}
    for event in trace.events:
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
            assert len(rebuilt.events) == len(trace.events), name
            # json float serialization round-trips exactly
            assert (_phase_category_totals(rebuilt)
                    == _phase_category_totals(trace)), name
            assert rebuilt.total_flops == pytest.approx(
                trace.total_flops), name
            assert len(rebuilt.spans) == len(trace.spans), name
            assert ([s.name for s in rebuilt.spans]
                    == [s.name for s in trace.spans]), name

    def test_file_roundtrip(self, tmp_path, lnn_trace):
        path = tmp_path / "lnn.jsonl"
        obs.write_jsonl(lnn_trace, str(path))
        rebuilt = obs.read_jsonl(str(path))
        assert len(rebuilt.events) == len(lnn_trace.events)
        assert rebuilt.metadata["seed"] == 0

    def test_rejects_unknown_type_and_version(self):
        with pytest.raises(ValueError, match="unknown record type"):
            obs.trace_from_jsonl_lines(['{"type": "mystery"}'])
        with pytest.raises(ValueError, match="version"):
            obs.trace_from_jsonl_lines(
                ['{"type": "meta", "version": 99}'])

    def test_sid_roundtrip(self, nvsa_trace):
        rebuilt = obs.trace_from_jsonl_lines(
            obs.trace_to_jsonl(nvsa_trace).splitlines())
        assert [e.sid for e in rebuilt.events] \
            == [e.sid for e in nvsa_trace.events]
        assert any(e.sid is not None for e in rebuilt.events)

    def test_v1_log_loads_with_sid_none(self):
        # pre-attribution logs: version 1 meta, op lines without "sid"
        rebuilt = obs.trace_from_jsonl_lines([
            '{"type": "meta", "version": 1, "workload": "old"}',
            '{"type": "op", "eid": 0, "name": "add",'
            ' "category": "elementwise", "flops": 4.0}',
        ])
        assert rebuilt.workload == "old"
        assert rebuilt.events[0].sid is None

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
# resilient-runner spans + metrics
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
        flaky = ObsFlakyWorkload(failures=2)
        runner = _runner(factory=lambda name, **kw: flaky,
                         retry=RetryPolicy(max_retries=3))
        with obs_metrics.scoped_runtime() as runtime:
            outcome = runner.run_workload("toy", seed=0)
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        names = [s.name for s in outcome.spans]
        assert names.count("backoff") == 2
        assert "attempt#3" in names
        assert runtime.attempts_total.value(workload="toy") == 3
        assert runtime.retries_total.value(workload="toy") == 2
        assert runtime.runs_total.value(workload="toy",
                                        status="ok") == 1

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
        assert len(rebuilt.events) > 0

    def test_metrics_prom_and_json(self, capsys):
        assert cli_main(["metrics", "lnn"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_ops_total counter" in text
        assert cli_main(["metrics", "lnn", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "repro_ops_total" in snapshot


def test_paper_order_unchanged():
    # the exporters' per-workload tests above assume the full roster
    assert PAPER_ORDER == ("lnn", "ltn", "nvsa", "nlm", "vsait",
                           "zeroc", "prae")
