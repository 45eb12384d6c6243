"""Longitudinal perf history: store, change points, gate, CLI, report.

Covers the ISSUE-9 acceptance criteria end to end: a synthetic 10%
dispatch-overhead regression makes ``repro obs history gate`` exit 6,
while two identical seeded runs produce bit-identical history entries
(created/sha pinned) and ledgers.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.history import (BASELINE_WINDOW, DEFAULT_POLICIES,
                               EXIT_TREND_REGRESSION, HistoryEntry,
                               MetricPolicy, append_entry,
                               detect_change_points, detect_regressions,
                               entry_from_sources, ingest_results,
                               load_history, metric_series,
                               parse_policy_overrides, policy_for,
                               render_history, sparkline_svg)


def _entry(label: str, **metrics: float) -> HistoryEntry:
    return HistoryEntry(created="2026-01-01T00:00:00+00:00",
                        git_sha="0" * 12, label=label,
                        metrics=dict(metrics))


class TestStore:
    def test_append_load_round_trip(self, tmp_path):
        db = str(tmp_path / "history.jsonl")
        first = _entry("a", **{"dispatch.nvsa.ops": 793.0})
        second = _entry("b", **{"dispatch.nvsa.ops": 793.0,
                                "headroom.nvsa.pct": 26.9})
        append_entry(first, db)
        append_entry(second, db)
        loaded = load_history(db)
        assert [e.label for e in loaded] == ["a", "b"]
        assert loaded[0].to_dict() == first.to_dict()
        assert metric_series(loaded, "headroom.nvsa.pct") == [26.9]

    def test_digest_excludes_provenance(self):
        base = _entry("x", **{"dispatch.nvsa.ops": 1.0})
        other = HistoryEntry(created="2030-12-31T23:59:59+00:00",
                             git_sha="f" * 12, label="x",
                             metrics={"dispatch.nvsa.ops": 1.0})
        assert base.digest() == other.digest()
        assert base.digest() != _entry(
            "x", **{"dispatch.nvsa.ops": 2.0}).digest()


class TestChangePoints:
    def test_step_drift_detected_at_the_step(self):
        series = [1.0] * 10 + [1.1] * 10
        assert detect_change_points(series) == [10]

    def test_flat_series_has_no_change_points(self):
        assert detect_change_points([2.0] * 20) == []
        assert detect_change_points([]) == []
        assert detect_change_points([1.0, 1.0, 1.0]) == []

    def test_two_steps_both_found(self):
        series = [1.0] * 8 + [1.2] * 8 + [1.5] * 8
        points = detect_change_points(series)
        assert 8 in points and 16 in points

    def test_subthreshold_shift_ignored(self):
        series = [1.0] * 10 + [1.02] * 10
        assert detect_change_points(series) == []

    def test_deterministic(self):
        series = [1.0, 1.3, 0.9, 1.1, 2.0, 2.1, 1.9, 2.2]
        assert detect_change_points(series) \
            == detect_change_points(list(series))


class TestPolicies:
    def test_longest_prefix_wins(self):
        overrides = {"dispatch.nvsa.": MetricPolicy(threshold=0.5)}
        assert policy_for("dispatch.nvsa.ops", overrides).threshold == 0.5
        assert policy_for("dispatch.prae.ops", overrides).threshold \
            == DEFAULT_POLICIES["dispatch."].threshold
        assert policy_for("unknown.metric").threshold is None

    def test_parse_overrides(self):
        parsed = parse_policy_overrides(
            ["dispatch.=0.2", "serve.throughput_rps=-0.1", "bench.=off"])
        assert parsed["dispatch."] == MetricPolicy(0.2, True)
        assert parsed["serve.throughput_rps"] == MetricPolicy(0.1, False)
        assert parsed["bench."].threshold is None
        with pytest.raises(ValueError):
            parse_policy_overrides(["nonsense"])

    def test_serve_metrics_lower_is_worse(self):
        assert DEFAULT_POLICIES["serve."].higher_is_worse is False


class TestRegressionGate:
    def test_ten_percent_dispatch_regression_detected(self):
        entries = [_entry(f"e{i}",
                          **{"dispatch.nvsa.modeled_overhead_ns": 1e6})
                   for i in range(4)]
        entries.append(_entry(
            "bad", **{"dispatch.nvsa.modeled_overhead_ns": 1.1e6}))
        regressions = detect_regressions(entries)
        assert len(regressions) == 1
        regression = regressions[0]
        assert regression.metric == "dispatch.nvsa.modeled_overhead_ns"
        assert regression.rel_change == pytest.approx(0.10)
        assert "REGRESSION" in regression.render()

    def test_within_budget_passes(self):
        entries = [_entry("a", **{"headroom.nvsa.pct": 25.0}),
                   _entry("b", **{"headroom.nvsa.pct": 25.9})]
        assert detect_regressions(entries) == []

    def test_median_baseline_defeats_single_outlier(self):
        values = [1e6, 1e6, 5e6, 1e6, 1e6]  # one bad historical entry
        entries = [_entry(f"e{i}",
                          **{"dispatch.nvsa.modeled_overhead_ns": v})
                   for i, v in enumerate(values)]
        entries.append(_entry(
            "cand", **{"dispatch.nvsa.modeled_overhead_ns": 1.2e6}))
        assert len(detect_regressions(entries,
                                      window=BASELINE_WINDOW)) == 1

    def test_ungated_metric_never_regresses(self):
        entries = [_entry("a", **{"opportunities.nvsa.count": 100.0}),
                   _entry("b", **{"opportunities.nvsa.count": 900.0})]
        assert detect_regressions(entries) == []

    def test_lower_is_worse_direction(self):
        entries = [_entry("a", **{"serve.throughput_rps": 100.0}),
                   _entry("b", **{"serve.throughput_rps": 80.0})]
        overrides = parse_policy_overrides(["serve.=-0.1"])
        regressions = detect_regressions(entries, overrides)
        assert len(regressions) == 1
        assert regressions[0].rel_change == pytest.approx(-0.2)

    def test_first_appearance_passes(self):
        entries = [_entry("a", **{"dispatch.nvsa.ops": 1.0}),
                   _entry("b", **{"dispatch.nvsa.ops": 1.0,
                                  "dispatch.prae.ops": 999.0})]
        assert detect_regressions(entries) == []


class TestEntryFromSources:
    def test_two_seeded_builds_bit_identical(self):
        first = entry_from_sources(workloads=("lnn",), created="",
                                   sha="", seed=0)
        second = entry_from_sources(workloads=("lnn",), created="",
                                    sha="", seed=0)
        assert first.to_dict() == second.to_dict()
        assert first.digest() == second.digest()

    def test_entry_carries_observatory_metrics_and_digests(self):
        entry = entry_from_sources(workloads=("lnn",), created="",
                                   sha="", seed=0)
        for metric in ("dispatch.lnn.ops",
                       "dispatch.lnn.modeled_overhead_ns",
                       "headroom.lnn.pct",
                       "compile.lnn.steps"):
            assert metric in entry.metrics, metric
        digests = entry.meta["digests"]["lnn"]
        assert set(digests) == {"ledger", "counters", "plan"}
        assert 0.0 < entry.metrics["headroom.lnn.pct"] < 100.0

    def test_ingest_results(self, tmp_path):
        (tmp_path / "obs_overhead.json").write_text(json.dumps(
            {"experiment": "obs_overhead", "rows": [],
             "meta": {"overheads": {"nvsa": 0.01, "prae": 0.02}}}))
        (tmp_path / "serve_throughput.json").write_text(json.dumps(
            {"experiment": "serve_throughput", "rows": [],
             "meta": {"throughput_rps": 123.0}}))
        harvested = ingest_results(str(tmp_path))
        assert harvested["bench.obs_overhead.nvsa"] == 0.01
        assert harvested["bench.obs_overhead.prae"] == 0.02
        assert harvested["serve.throughput_rps"] == 123.0
        assert ingest_results(str(tmp_path / "missing")) == {}


class TestRendering:
    def test_render_history_smoke(self):
        entries = [_entry(f"e{i}", **{"dispatch.nvsa.ops": 700.0 + i})
                   for i in range(6)]
        text = render_history(entries)
        assert "perf history" in text
        assert "dispatch.nvsa.ops" in text
        assert render_history([]) == "history: empty"

    def test_sparkline_svg_marks_change_points(self):
        values = [1.0] * 6 + [2.0] * 6
        svg = sparkline_svg(values, change_points=[6])
        assert svg.startswith("<svg")
        assert "stroke-dasharray" in svg       # the change-point line
        assert sparkline_svg([1.0]) == ""


class TestCli:
    def _seed_db(self, tmp_path, bump: float = 1.0) -> str:
        db = str(tmp_path / "history.jsonl")
        base = entry_from_sources(workloads=("lnn",), created="",
                                  sha="", seed=0)
        for label in ("a", "b", "c"):
            base.label = label
            append_entry(base, db)
        candidate = HistoryEntry(
            created="", git_sha="", label="cand",
            metrics={k: (v * bump if k.startswith("dispatch.") else v)
                     for k, v in base.metrics.items()},
            meta=dict(base.meta))
        append_entry(candidate, db)
        return db

    def test_gate_exits_six_on_synthetic_regression(self, tmp_path,
                                                    capsys):
        db = self._seed_db(tmp_path, bump=1.10)
        assert cli_main(["obs", "history", "gate", "--db", db]) \
            == EXIT_TREND_REGRESSION
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_gate_passes_on_identical_runs(self, tmp_path, capsys):
        db = self._seed_db(tmp_path, bump=1.0)
        assert cli_main(["obs", "history", "gate", "--db", db]) == 0
        assert "OK" in capsys.readouterr().out

    def test_gate_warn_only_and_thresholds(self, tmp_path, capsys):
        db = self._seed_db(tmp_path, bump=1.10)
        assert cli_main(["obs", "history", "gate", "--db", db,
                         "--warn-only"]) == 0
        assert cli_main(["obs", "history", "gate", "--db", db,
                         "--threshold", "dispatch.=0.25"]) == 0
        capsys.readouterr()

    def test_record_and_show(self, tmp_path, capsys):
        db = str(tmp_path / "history.jsonl")
        assert cli_main(["obs", "history", "record", "--db", db,
                         "--workloads", "lnn", "--results", "",
                         "--label", "test"]) == 0
        entries = load_history(db)
        assert len(entries) == 1
        assert entries[0].label == "test"
        assert entries[0].created and entries[0].git_sha is not None
        assert cli_main(["obs", "history", "show", "--db", db]) == 0
        assert "dispatch.lnn.ops" in capsys.readouterr().out

    def test_selfprof_and_opportunities_commands(self, capsys):
        assert cli_main(["obs", "selfprof", "lnn"]) == 0
        out = capsys.readouterr().out
        assert "dispatch-overhead ledger" in out
        assert "compiled-tier headroom" in out
        assert cli_main(["obs", "selfprof", "lnn", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deterministic"]["ops"] > 0
        assert "measured" in doc
        with pytest.raises(SystemExit):
            cli_main(["obs", "opportunities", "lnn"])
        capsys.readouterr()

    def test_report_with_history_renders_trends(self, tmp_path,
                                                capsys):
        db = self._seed_db(tmp_path, bump=1.0)
        output = str(tmp_path / "report.html")
        assert cli_main(["report", "lnn", "--history", db,
                         "-o", output]) == 0
        capsys.readouterr()
        html = open(output).read()
        assert "perf trends" in html
        assert "dispatch.lnn.ops" in html
        assert html.count("<svg") >= 2   # roofline + >=1 sparkline
