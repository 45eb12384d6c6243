"""Tests for per-span counter attribution and its consumers:
synthesized kernel statistics (obs.kstats), collapsed-stack
flamegraphs (obs.flame), the HTML run report (obs.report), the
trace-level Table IV bridge, and the new CLI subcommands."""

import re

import numpy as np
import pytest

from repro import tensor as T
from repro.cli import main as cli_main
from repro.core.inefficiency import (COUNTER_ROWS, analyze_inefficiency,
                                     analyze_trace_inefficiency)
from repro.core.profiler import Trace, TraceEvent, merge_traces
from repro.core.taxonomy import OpCategory
from repro.hwsim.devices import ALL_DEVICES, RTX_2080TI
from repro.obs.flame import (FLAME_WEIGHTS, collapsed_stacks,
                             trace_to_flame)
from repro.obs.kstats import (CATEGORY_MIX, archetype_kstats,
                              kstats_by_category, kstats_by_span,
                              render_kstats, synthesize_kstats)
from repro.obs.report import render_report

#: one collapsed-stack line: frames joined by ';', integer weight
_FLAME_LINE = re.compile(r"[^ ]+(;[^ ]+)* \d+")


def _toy_trace() -> Trace:
    with T.profile("toy") as prof:
        with T.phase("neural"):
            with T.stage("mlp"):
                x = T.tensor(np.ones((16, 16), dtype=np.float32))
                T.relu(T.matmul(x, x))
        with T.phase("symbolic"):
            with T.stage("rules"):
                T.add(x, 1.0)
    return prof.trace


def _legacy_trace() -> Trace:
    """A trace shaped like a pre-attribution archive: no spans, no sids."""
    trace = Trace(workload="legacy")
    trace.append(TraceEvent(
        eid=0, name="matmul", category=OpCategory.MATMUL,
        phase="neural", stage="mlp", flops=1e6, bytes_read=4096,
        bytes_written=4096, wall_time=1e-3))
    trace.append(TraceEvent(
        eid=1, name="add", category=OpCategory.ELEMENTWISE,
        phase="symbolic", stage="rules", flops=1e3, bytes_read=1024,
        bytes_written=1024, wall_time=1e-4, parents=(0,)))
    return trace


# ---------------------------------------------------------------------------
# span attribution on the dispatcher path (tentpole plumbing)
# ---------------------------------------------------------------------------

class TestSpanAttribution:
    def test_events_attribute_to_innermost_span(self):
        trace = _toy_trace()
        by_name = {s.name: s for s in trace.spans}
        mlp_events = trace.by_span(by_name["stage:mlp"].sid).events
        assert {e.name for e in mlp_events} >= {"matmul", "relu"}
        rules_events = trace.by_span(by_name["stage:rules"].sid).events
        assert "add" in {e.name for e in rules_events}
        # direct attribution only: the profile root holds no op that
        # was dispatched inside a stage
        root_events = trace.by_span(by_name["profile:toy"].sid).events
        assert not {e.name for e in root_events} & {"matmul", "relu"}

    def test_every_nvsa_event_is_attributed(self, nvsa_trace):
        assert nvsa_trace.events
        sids = {e.sid for e in nvsa_trace.events}
        assert None not in sids
        span_sids = {s.sid for s in nvsa_trace.spans}
        assert sids <= span_sids

    def test_span_rollup_partitions_the_trace(self, nvsa_trace):
        rollup = nvsa_trace.span_rollup()
        assert sum(b["events"] for b in rollup.values()) \
            == len(nvsa_trace.events)
        assert sum(b["flops"] for b in rollup.values()) \
            == pytest.approx(nvsa_trace.total_flops)
        for sid, bucket in rollup.items():
            sub = nvsa_trace.by_span(sid)
            assert len(sub.events) == bucket["events"]
            assert sub.total_flops == pytest.approx(bucket["flops"])

    def test_by_span_none_selects_unattributed(self):
        trace = _legacy_trace()
        assert len(trace.by_span(None).events) == 2
        assert trace.span_rollup() == {None: trace.span_rollup()[None]}

    def test_merge_drops_cross_run_sids(self):
        merged = merge_traces([_toy_trace(), _toy_trace()], "both")
        assert all(e.sid is None for e in merged.events)


# ---------------------------------------------------------------------------
# kstats: generalized Table IV
# ---------------------------------------------------------------------------

class TestKstats:
    def test_category_mix_covers_taxonomy(self):
        assert set(CATEGORY_MIX) == {c.value for c in OpCategory}
        for mix in CATEGORY_MIX.values():
            assert mix.kind in ("neural", "symbolic")

    def test_archetypes_match_table4_exactly(self):
        for device in ALL_DEVICES:
            baseline = {c.name: c.as_dict()
                        for c in analyze_inefficiency(device).counters}
            stats = archetype_kstats(device)
            assert {s.label for s in stats} == set(baseline)
            for s in stats:
                for row, value in s.counters.as_dict().items():
                    # acceptance bound is 1%; the bridge delegates to
                    # simulate_kernel so it is in fact bit-identical
                    assert value == pytest.approx(
                        baseline[s.label][row], rel=0.01)

    def test_synthesize_empty_group_is_none(self):
        assert synthesize_kstats("empty", []) is None

    def test_counters_bounded_and_labeled(self, nvsa_trace):
        for stats in (kstats_by_span(nvsa_trace)
                      + kstats_by_category(nvsa_trace)):
            assert stats.events > 0
            assert stats.modeled_time > 0
            assert stats.kind in ("neural", "symbolic", "mixed")
            for value in stats.counters.as_dict().values():
                assert 0.0 <= value <= 100.0, stats.label
            if stats.roofline is not None:
                assert stats.bound in ("compute", "memory")
                assert stats.roofline.achieved_flops \
                    <= stats.roofline.attainable_flops * (1 + 1e-9)

    def test_by_span_covers_whole_trace(self, nvsa_trace):
        stats = kstats_by_span(nvsa_trace)
        labels = [s.label for s in stats]
        assert len(labels) == len(set(labels))
        assert all(re.fullmatch(r".+#\d+", label) for label in labels)
        assert sum(s.flops for s in stats) == pytest.approx(
            nvsa_trace.total_flops)
        assert sum(s.events for s in stats) == len(nvsa_trace.events)

    def test_unattributed_events_get_their_own_row(self):
        stats = kstats_by_span(_legacy_trace())
        assert [s.label for s in stats] == ["<unattributed>"]
        assert stats[0].events == 2

    def test_by_category_respects_phase_filter(self, nvsa_trace):
        whole = {s.label for s in kstats_by_category(nvsa_trace)}
        neural = kstats_by_category(nvsa_trace, phase="neural")
        assert {s.label for s in neural} <= whole
        for s in neural:
            assert s.kind == CATEGORY_MIX[s.label].kind
            assert s.events == len(nvsa_trace.by_phase("neural")
                                   .by_category(OpCategory(s.label))
                                   .events)

    def test_neural_symbolic_contrast(self, nvsa_trace):
        """Table IV's headline: symbolic kernels leave ALUs idle."""
        by_label = {s.label: s for s in kstats_by_category(nvsa_trace)}
        assert by_label["matmul"].counters.alu_utilization_pct \
            > by_label["movement"].counters.alu_utilization_pct

    def test_render_kstats_matrix(self, nvsa_trace):
        text = render_kstats(kstats_by_category(nvsa_trace))
        assert "Compute Throughput (%)" in text
        assert "bound (roofline)" in text
        assert render_kstats([]).startswith("(no kernel statistics")


class TestTraceInefficiencyBridge:
    def test_groups_by_category_and_span(self, nvsa_trace):
        by_cat = analyze_trace_inefficiency(nvsa_trace)
        assert by_cat.device == RTX_2080TI.name
        matrix = by_cat.matrix()
        assert set(matrix) == set(COUNTER_ROWS)
        by_span = analyze_trace_inefficiency(nvsa_trace,
                                             group_by="span")
        assert len(by_span.counters) == len(kstats_by_span(nvsa_trace))

    def test_rejects_unknown_grouping(self, nvsa_trace):
        with pytest.raises(ValueError, match="group_by"):
            analyze_trace_inefficiency(nvsa_trace, group_by="bogus")


# ---------------------------------------------------------------------------
# flamegraphs
# ---------------------------------------------------------------------------

class TestFlame:
    def test_collapsed_format(self, nvsa_trace):
        text = trace_to_flame(nvsa_trace, weight="flops")
        lines = text.splitlines()
        assert lines
        assert all(_FLAME_LINE.fullmatch(line) for line in lines)
        assert lines == sorted(lines)
        assert text.endswith("\n")

    def test_stacks_follow_span_chain(self):
        stacks = collapsed_stacks(_toy_trace(), weight="flops")
        assert "profile:toy;phase:neural;stage:mlp;matmul" in stacks

    def test_all_weights_accepted(self, nvsa_trace):
        for weight in FLAME_WEIGHTS:
            stacks = collapsed_stacks(nvsa_trace, weight=weight)
            assert stacks
            assert all(isinstance(v, int) and v > 0
                       for v in stacks.values())
        with pytest.raises(ValueError, match="unknown flame weight"):
            collapsed_stacks(nvsa_trace, weight="samples")

    def test_deterministic_across_identical_seeds(self):
        from repro.workloads import create
        first = trace_to_flame(create("lnn", seed=0).profile(),
                               weight="flops")
        second = trace_to_flame(create("lnn", seed=0).profile(),
                                weight="flops")
        assert first == second

    def test_unattributed_events_fall_back_to_phase_stage(self):
        stacks = collapsed_stacks(_legacy_trace(), weight="flops")
        assert "legacy;phase:neural;stage:mlp;matmul" in stacks
        assert stacks["legacy;phase:neural;stage:mlp;matmul"] == 1_000_000

    def test_frames_are_sanitized(self):
        trace = Trace(workload="w x;y")
        trace.append(TraceEvent(
            eid=0, name="my op;1", category=OpCategory.OTHER,
            flops=10.0))
        (stack,) = collapsed_stacks(trace, weight="flops")
        assert stack == "w_x:y;my_op:1"


# ---------------------------------------------------------------------------
# HTML run report
# ---------------------------------------------------------------------------

class TestReport:
    def test_self_contained_and_complete(self, nvsa_trace):
        html = render_report(nvsa_trace)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # zero external references: no resource attributes, no URLs
        assert not re.search(r"\b(?:src|href)\s*=|https?://", html)
        for anchor in ("timeline", "kstats", "roofline", "sparsity"):
            assert f"id={anchor}" in html
        assert "run report: nvsa" in html
        assert "Compute Throughput" in html

    def test_deterministic_without_baseline(self, nvsa_trace):
        assert render_report(nvsa_trace) == render_report(nvsa_trace)

    def test_degrades_on_legacy_trace(self):
        html = render_report(_legacy_trace())
        assert "no spans collected" in html
        assert "<svg" in html  # roofline still renders from events


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestReportCli:
    def test_trace_export_flame(self, tmp_path, capsys):
        out = tmp_path / "lnn.flame"
        assert cli_main(["trace", "export", "lnn", "--format", "flame",
                         "--weight", "flops", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(_FLAME_LINE.fullmatch(line) for line in lines)
        assert "wrote" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert cli_main(["report", "lnn", "--device", "rtx2080ti",
                         "-o", str(out)]) == 0
        html = out.read_text()
        assert "<svg" in html
        assert not re.search(r"\b(?:src|href)\s*=|https?://", html)
        assert "self-contained" in capsys.readouterr().out

    def test_report_with_baseline(self, tmp_path, capsys):
        # drift is the history gate's job (``report --history``
        # shows its verdict), so the report takes no baseline
        with pytest.raises(SystemExit) as info:
            cli_main(["report", "lnn", "--baseline", "base.json",
                      "-o", str(tmp_path / "report.html")])
        assert info.value.code == 2     # argparse usage error
        assert not (tmp_path / "report.html").exists()
        capsys.readouterr()
