"""Tests for request-scoped tracing across the serving path (PR 8).

The acceptance property: replay a seeded open-loop schedule, export
the serving trace as JSONL, and reconstruct **every** request — 100%
of non-rejected requests as complete, gap-free causal span trees
(admit → queue_wait/assemble → dispatch → execute tiling the
``serve:request`` root) and every rejected request as an admission
span carrying its classified reason.  Plus: trace ids on the
``serve:batch`` worker spans and everything beneath them, in schedule
and live mode, the latency decomposition in ``ServerStats``, the RL106
lint check against its seeded mutant, and the CLI/report surfaces
(``--live-snapshots``, ``--trace-jsonl``, ``trace export
--group-by-request``, waterfall section).
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.hwsim.devices import RTX_2080TI
from repro.lint import LintConfig, default_scan_root, run_lint
from repro.obs.jsonl import read_jsonl, write_jsonl
from repro.obs.live import LiveTelemetry
from repro.serve import (REJECT_QUEUE_FULL, REJECT_STALE_DEADLINE,
                         ArtifactCache, BatchPolicy, InferenceServer,
                         LoadSpec, ServeConfig, batch_trace_id,
                         make_request, open_loop, parse_mix)
from repro.serve.batcher import Batch
from repro.serve.pool import Worker
from repro.serve.request import Response
from repro.serve.tracing import (REQUEST_SPAN_NAMES, request_span_trees,
                                 serve_trace, span_tree_digest,
                                 spans_by_trace, synthesize_response_spans,
                                 verify_span_trees)

MUTANTS = Path(__file__).resolve().parent / "fixtures" / "tracing_mutants"


def _schedule(seed=3, rate=120.0, duration=1.0, deadline=0.08):
    spec = LoadSpec.make(parse_mix("nvsa=3,lnn=1"), rate=rate,
                         duration=duration, seed=seed, deadline=deadline)
    return open_loop(spec)


def _serve(schedule, **cfg_kw):
    cfg_kw.setdefault("workers", 2)
    cfg_kw.setdefault("batch", BatchPolicy(max_batch_size=8,
                                           max_wait=0.03))
    server = InferenceServer(ServeConfig(**cfg_kw))
    return server.run_schedule(schedule)


class TestAcceptance:
    def test_every_request_reconstructs_from_exported_jsonl(self, tmp_path):
        # the PR's acceptance criterion, end to end through the wire
        schedule = _schedule()
        result = _serve(schedule)
        assert len(result.responses) == len(schedule)

        path = tmp_path / "serve_trace.jsonl"
        write_jsonl(serve_trace(result), str(path))
        trace = read_jsonl(str(path))

        request_spans = [s for s in trace.spans
                         if s.name in REQUEST_SPAN_NAMES]
        problems = verify_span_trees(request_spans, result.responses)
        assert problems == []

        trees = spans_by_trace(request_spans)
        for response in result.responses:
            assert response.trace_id in trees
            names = {s.name for s in trees[response.trace_id]}
            if response.status == "rejected":
                assert names == {"serve:request", "serve:admit"}
            else:
                assert names == set(REQUEST_SPAN_NAMES)

    def test_trees_deterministic_across_fresh_servers(self):
        one = _serve(_schedule())
        two = _serve(_schedule())
        assert span_tree_digest(request_span_trees(one.responses)) \
            == span_tree_digest(request_span_trees(two.responses))

    def test_rejected_request_carries_classified_admit(self):
        schedule = _schedule(rate=400.0, duration=0.5)
        result = _serve(schedule, workers=1, max_depth=2)
        rejected = [r for r in result.responses if r.status == "rejected"]
        assert rejected, "tiny queue must shed under 400 rps"
        spans = request_span_trees(result.responses)
        by_trace = spans_by_trace(spans)
        for response in rejected:
            admits = [s for s in by_trace[response.trace_id]
                      if s.name == "serve:admit"]
            assert len(admits) == 1
            assert admits[0].attrs["admitted"] is False
            assert admits[0].attrs["reject_reason"] \
                == response.reject_reason


def _span(spans, name):
    return next(span for span in spans if span.name == name)


def _swap_phase_names(spans, response):
    dispatch = _span(spans, "serve:dispatch")
    execute = _span(spans, "serve:execute")
    dispatch.name, execute.name = execute.name, dispatch.name


#: one way to break a synthesized lifecycle tree (or its response):
#: the response's status, the edit, and the problem it must raise
_BROKEN_TREES = {
    "two roots": ("ok", lambda spans, response: spans.append(
        replace(spans[0], sid=99)),
        "rid 7: expected exactly one serve:request root, got 2"),
    "duplicate sid": ("ok", lambda spans, response: setattr(
        _span(spans, "serve:execute"), "sid",
        _span(spans, "serve:dispatch").sid),
        "rid 7: duplicate sids in trace tree"),
    "orphaned span": ("ok", lambda spans, response: setattr(
        _span(spans, "serve:batch_assemble"), "parent", 99),
        "rid 7: span 'serve:batch_assemble' (sid 3) is orphaned"),
    "span outside its parent": ("ok", lambda spans, response: setattr(
        _span(spans, "serve:batch_assemble"), "start", 0.5),
        "rid 7: span 'serve:batch_assemble' escapes its parent interval"),
    "no admit span": ("ok", lambda spans, response: spans.remove(
        _span(spans, "serve:admit")),
        "rid 7: expected one serve:admit span, got 0"),
    "wrong admit reason": ("rejected", lambda spans, response: _span(
        spans, "serve:admit").attrs.update(
            reject_reason=REJECT_STALE_DEADLINE),
        f"rid 7: serve:admit carries reason {REJECT_STALE_DEADLINE!r}, "
        f"response says {REJECT_QUEUE_FULL!r}"),
    "wrong phase order": ("ok", _swap_phase_names,
                          "rid 7: lifecycle phases are"),
    "gap before a phase": ("ok", lambda spans, response: setattr(
        _span(spans, "serve:dispatch"), "start", 1.25),
        "rid 7: gap before serve:dispatch"),
    "lifecycle ends off the root": ("ok", lambda spans, response: setattr(
        _span(spans, "serve:execute"), "end", 1.4),
        "rid 7: lifecycle ends at 1.400000000, root ends at 1.500000000"),
    "no trace id": ("ok", lambda spans, response: setattr(
        response, "trace_id", None),
        "rid 7: response has no trace id"),
    "no tree": ("ok", lambda spans, response: spans.clear(),
                "rid 7: no spans for trace t7"),
}


@pytest.mark.parametrize("case", list(_BROKEN_TREES))
def test_verify_span_trees_names_each_broken_tree(case):
    status, edit, problem = _BROKEN_TREES[case]
    if status == "rejected":
        response = Response(rid=7, workload="lnn", status=status,
                            reject_reason=REJECT_QUEUE_FULL, arrival=1.0,
                            trace_id="t7")
    else:
        response = Response(rid=7, workload="lnn", status=status, bid=3,
                            batch_size=2, worker="worker-0",
                            device="RTX 2080 Ti", arrival=1.0,
                            queue_wait=0.2, service_start=1.3,
                            completion=1.5, attempts=1, trace_id="t7",
                            assemble_wait=0.1, dispatch_wait=0.1)
    spans = synthesize_response_spans(response)
    assert verify_span_trees(spans, [response]) == []
    edit(spans, response)
    problems = verify_span_trees(spans, [response])
    assert any(p.startswith(problem) for p in problems), problems


class TestPropagation:
    def test_batch_spans_carry_batch_trace_and_members(self):
        result = _serve(_schedule(duration=0.5))
        batch_spans = [s for br in result.batch_results.values()
                       for s in br.spans if s.name == "serve:batch"]
        assert batch_spans
        member_ids = {r.trace_id for r in result.responses
                      if r.status != "rejected"}
        seen = set()
        for record in batch_spans:
            assert record.trace_id is not None
            assert record.attrs["rids"]
            assert record.attrs["traces"]
            seen.update(record.attrs["traces"])
        assert seen == member_ids

    def test_timed_attempt_keeps_the_batch_spans(self):
        # with a timeout the attempt runs on a pool thread; its spans,
        # their parents and trace ids, and its events' spans must be
        # those of the same batch run on the worker's own thread
        def run(timeout):
            worker = Worker(0, RTX_2080TI, ArtifactCache(capacity=4),
                            timeout=timeout)
            request = make_request(0, "lnn", seed=0)
            result = worker.execute_batch(
                Batch(bid=0, key=request.key, requests=[request]))
            assert result.status == "ok"
            index = {s.sid: i for i, s in enumerate(result.spans)}
            return ([(s.name, index.get(s.parent), s.trace_id)
                     for s in result.spans],
                    [index[e.sid] for e in result.trace])

        untimed = run(None)
        assert run(30.0) == untimed
        spans, _ = untimed
        assert len(spans) == 20
        name, parent, trace_id = next(s for s in spans
                                      if s[0] == "profile:lnn")
        assert spans[parent][0] == "attempt#1"
        assert trace_id == spans[-1][2] is not None

    def test_descendant_worker_spans_inherit_batch_trace(self):
        result = _serve(_schedule(duration=0.3))
        for br in result.batch_results.values():
            batch = [s for s in br.spans if s.name == "serve:batch"]
            if not batch:
                continue
            tid = batch[0].trace_id
            assert tid is not None
            assert all(s.trace_id == tid for s in br.spans)

    def test_live_path_links_responses_and_batch_spans(self):
        # submit -> take_batch -> Worker.execute_batch on live threads
        results = []

        class Recording(InferenceServer):
            def _on_batch_result(self, result):
                results.append(result)
                super()._on_batch_result(result)

        server = Recording(ServeConfig(workers=2))
        server.start()
        try:
            pendings = [server.submit("lnn", seed=i % 2) for i in range(8)]
            responses = [p.result(timeout=60.0) for p in pendings]
        finally:
            server.stop(drain=True)
        for pending, response in zip(pendings, responses):
            assert response.status == "ok"
            assert response.trace_id == pending.request.trace_id
        assert sum(r.batch.size for r in results) == len(pendings)
        for result in results:
            batch, = [s for s in result.spans if s.name == "serve:batch"]
            assert batch.trace_id == batch_trace_id(result.batch)
            assert batch.attrs["traces"] == [r.trace_id
                                             for r in result.batch.requests]
            by_sid = {s.sid: s for s in result.spans}
            for record in result.spans:
                if record is batch:
                    continue
                parent = by_sid[record.parent]
                while parent is not batch:
                    parent = by_sid[parent.parent]
                assert record.trace_id == batch.trace_id, record.name
            assert len(result.spans) > 1

    def test_schedule_serialization_unchanged_by_tracing(self):
        # a trace id is recomputed from the request's own fields; the
        # wire format of a saved schedule must not grow a trace field
        request = make_request(0, "lnn", arrival=0.0)
        assert "trace" not in request.to_dict()
        assert "trace_id" not in request.to_dict()

    def test_response_exposes_decomposition(self):
        result = _serve(_schedule(duration=0.5))
        executed = [r for r in result.responses if r.status != "rejected"]
        assert executed
        for response in executed:
            assert response.trace_id
            assert response.assemble_wait >= 0.0
            assert response.dispatch_wait >= 0.0
            assert response.assemble_wait <= response.queue_wait + 1e-9
        payload = executed[0].to_dict()
        assert {"trace_id", "assemble_wait", "dispatch_wait"} \
            <= set(payload)

    def test_stats_summary_gains_breakdown(self):
        result = _serve(_schedule(duration=0.5))
        summary = result.stats.summary()
        breakdown = summary["deterministic"]["breakdown"]
        assert set(breakdown) == {"assemble_wait", "dispatch_wait"}
        for block in breakdown.values():
            assert {"p50", "p95", "p99"} <= set(block)


class TestLintRL106:
    def test_mutant_is_flagged(self):
        result = run_lint(LintConfig(root=MUTANTS, select={"RL106"}))
        findings = [f for f in result.findings if f.check_id == "RL106"]
        assert {f.path for f in findings} == {"orphan_span.py"}
        assert len(findings) == 2          # _span(...) and span(f"...")
        assert all("trace_id=" in f.message for f in findings)

    def test_shipped_tree_is_clean(self):
        result = run_lint(LintConfig(root=default_scan_root(),
                                     select={"RL106"}))
        assert [f.render() for f in result.findings
                if f.check_id == "RL106"] == []

    def test_non_serve_spans_are_exempt(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "from repro.obs.spans import span\n\n\n"
            "def work():\n"
            "    with span('profile'):\n"
            "        pass\n")
        result = run_lint(LintConfig(root=tmp_path, select={"RL106"}))
        assert result.findings == []


class TestTelemetryIntegration:
    def test_attached_telemetry_sees_every_response(self):
        schedule = _schedule(duration=0.5)
        telemetry = LiveTelemetry(seed=0, healthy_ratio=1.0,
                                  snapshot_interval=0.25)
        server = InferenceServer(ServeConfig(
            workers=2, batch=BatchPolicy(max_batch_size=8, max_wait=0.03)))
        server.attach_telemetry(telemetry)
        result = server.run_schedule(schedule)
        assert len(telemetry.samples) == len(result.responses)
        assert len(telemetry.snapshots) >= 1
        # ratio-1.0 sampling samples every request with its span count
        assert sorted(telemetry.sampled_trace_ids()) \
            == sorted(r.trace_id for r in result.responses)
        assert all(sample["spans"] >= 1 for sample in telemetry.samples)

    def test_sampled_trace_ids_deterministic_across_runs(self):
        def sampled():
            telemetry = LiveTelemetry(seed=5, healthy_ratio=0.2)
            server = InferenceServer(ServeConfig(
                workers=2,
                batch=BatchPolicy(max_batch_size=8, max_wait=0.03)))
            server.attach_telemetry(telemetry)
            server.run_schedule(_schedule(seed=9, duration=1.0))
            return telemetry.sampled_trace_ids()
        first = sampled()
        assert first == sampled()
        assert first                       # something was retained


class TestCLISurface:
    def test_bench_flags_write_telemetry_and_trace(self, tmp_path, capsys):
        snap = tmp_path / "live.jsonl"
        tj = tmp_path / "trace.jsonl"
        flags = ["serve", "bench", "--mix", "lnn=1", "--rate", "40",
                 "--duration", "1", "--seed", "3", "--workers", "2",
                 "--device", "xeon", "--live-snapshots", str(snap),
                 "--snapshot-interval", "0.5", "--sample-ratio", "1.0",
                 "--trace-jsonl", str(tj)]
        assert main(flags) == 0
        records = [json.loads(line)
                   for line in snap.read_text().splitlines()]
        kinds = {r["type"] for r in records}
        assert "snapshot" in kinds and "sample" in kinds

        trace = read_jsonl(str(tj))
        request_spans = [s for s in trace.spans
                         if s.name in REQUEST_SPAN_NAMES]
        assert request_spans
        assert all(s.trace_id for s in request_spans)

    def test_trace_export_group_by_request(self, tmp_path, capsys):
        tj = tmp_path / "trace.jsonl"
        out = tmp_path / "grouped.json"
        assert main(["serve", "bench", "--mix", "lnn=1", "--rate", "40",
                     "--duration", "0.5", "--seed", "3",
                     "--trace-jsonl", str(tj)]) == 0
        assert main(["trace", "export", str(tj), "--format", "chrome",
                     "--group-by-request", "-o", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        lanes = {e["args"]["name"] for e in events
                 if e["name"] == "thread_name"
                 and str(e["args"]["name"]).startswith("trace:")}
        assert lanes                       # one named lane per trace id
        assert any(e.get("tid", 0) < 0 for e in events
                   if e.get("ph") == "X")

    def test_report_gains_waterfall_section(self, tmp_path, capsys):
        html = tmp_path / "report.html"
        assert main(["serve", "bench", "--mix", "lnn=1", "--rate", "40",
                     "--duration", "1", "--seed", "3",
                     "--report", str(html)]) == 0
        text = html.read_text()
        assert "request waterfall" in text
        assert "wf-row" in text
        for forbidden in ("src=", "href=", "http"):
            assert forbidden not in text   # stays self-contained
