"""Longitudinal perf history: store, change points, pin gate, CLI, report.

The gate compares exact pins: a changed pin makes ``repro obs history
gate`` exit 6 and print it as ``old → new``, each pin moves under its
own perturbation, two seeded builds of the full-roster entry are
bit-identical, and the committed ``benchmarks/history.jsonl`` is
current for this tree.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.compile import replay
from repro.core.taxonomy import OpCategory
from repro.hwsim.devices import RTX_2080TI
from repro.obs import kstats
from repro.obs import history
from repro.obs.history import (EXIT_PIN_MISMATCH, PIN_ROSTER,
                               PINNED_SERVE, HistoryEntry, HistoryError,
                               append_entry, check_pins,
                               detect_change_points, entry_from_sources,
                               event_facts, ingest_results, load_history,
                               metric_series, model_facts, pin_workload,
                               render_history, serve_pin, sparkline_svg)
from repro.tensor import dispatch, ops
from repro.workloads import create

COMMITTED_HISTORY = Path(__file__).resolve().parents[1] \
    / "benchmarks" / "history.jsonl"

PIN_KINDS = ("counters", "events", "model")


@pytest.fixture(scope="module")
def pinned_entry() -> HistoryEntry:
    """The full-roster entry, built once (six profiles + the serve
    schedule, a few seconds)."""
    return entry_from_sources(created="", sha="")


def _entry(label: str, pins=None, **metrics: float) -> HistoryEntry:
    return HistoryEntry(created="2026-01-01T00:00:00+00:00",
                        git_sha="0" * 12, label=label,
                        metrics=dict(metrics), pins=dict(pins or {}))


def _gate(tmp_path, capsys, *entries: HistoryEntry):
    db = str(tmp_path / "history.jsonl")
    for entry in entries:
        append_entry(entry, db)
    code = cli_main(["obs", "history", "gate", "--db", db])
    return code, capsys.readouterr().out


def _assert_moved(tmp_path, capsys, baseline: HistoryEntry,
                  fresh: dict, moved: set) -> None:
    """Exactly ``moved`` of the ``fresh`` pins differ from
    ``baseline``'s, and the gate exits 6 printing each as old → new."""
    assert {pin for pin in fresh
            if fresh[pin] != baseline.pins[pin]} == moved
    code, out = _gate(tmp_path, capsys, baseline,
                      _entry("candidate", {**baseline.pins, **fresh}))
    assert code == EXIT_PIN_MISMATCH
    for pin in moved:
        assert f"PIN {pin}: {baseline.pins[pin]} → {fresh[pin]}" in out
    assert out.count("PIN ") == len(moved)


class TestStore:
    def test_append_load_round_trip(self, tmp_path):
        db = str(tmp_path / "history.jsonl")
        first = _entry("a", **{"dispatch.nvsa.ops": 793.0})
        second = _entry("b", {"nvsa.counters": "c" * 64},
                        **{"dispatch.nvsa.ops": 793.0,
                           "compile.nvsa.steps": 802.0})
        append_entry(first, db)
        append_entry(second, db)
        loaded = load_history(db)
        assert [e.label for e in loaded] == ["a", "b"]
        assert loaded[0].to_dict() == first.to_dict()
        assert loaded[1].pins == {"nvsa.counters": "c" * 64}
        assert metric_series(loaded, "compile.nvsa.steps") == [802.0]

    def test_digest_excludes_provenance(self):
        base = _entry("x", **{"dispatch.nvsa.ops": 1.0})
        other = HistoryEntry(created="2030-12-31T23:59:59+00:00",
                             git_sha="f" * 12, label="x",
                             metrics={"dispatch.nvsa.ops": 1.0})
        assert base.digest() == other.digest()
        assert base.digest() != _entry(
            "x", **{"dispatch.nvsa.ops": 2.0}).digest()
        assert base.digest() != _entry(
            "x", {"serve": "0"}, **{"dispatch.nvsa.ops": 1.0}).digest()

    @pytest.mark.parametrize("bad_line", [
        '{"created": "x", "metrics": {"a": 1',     # truncated write
        '{"metrics": {"dispatch.nvsa.ops": "fast"}}',
        '["not", "an", "entry"]',
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path,
                                                bad_line):
        db = tmp_path / "history.jsonl"
        append_entry(_entry("good"), str(db))
        with open(db, "a") as handle:
            handle.write(bad_line + "\n")
        with pytest.raises(HistoryError, match=f"{db}:2: malformed"):
            load_history(str(db))


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


class TestRegressionGate:
    def test_first_appearance_passes(self):
        # entries from before pins existed carry none: the first pinned
        # entry has nothing to compare against
        verdict = check_pins([_entry("legacy", **{"x": 1.0}),
                              _entry("first", {"serve": "a"})])
        assert verdict.ok and verdict.baseline is None
        assert "nothing to compare" in verdict.render()
        assert check_pins([]).ok

    def test_ungated_metric_never_regresses(self):
        # measured metrics are trend-only: only pins are compared
        pins = {"nvsa.counters": "a", "serve": "b"}
        verdict = check_pins([
            _entry("a", pins, **{"serve.throughput_rps": 150.0}),
            _entry("b", pins, **{"serve.throughput_rps": 15.0,
                                 "bench.obs_overhead.nvsa": 9.0})])
        assert verdict.ok
        assert "OK — 2 pins match 'a'" in verdict.render()

    def test_mismatch_renders_old_to_new_and_absent_pins(self):
        verdict = check_pins([
            _entry("old", {"a": "1", "b": "2", "gone": "3"}),
            _entry("new", {"a": "1", "b": "20", "added": "4"})])
        assert verdict.mismatches == [("added", "(absent)", "4"),
                                      ("b", "2", "20"),
                                      ("gone", "3", "(absent)")]
        text = verdict.render()
        assert "PIN b: 2 → 20" in text
        assert "PIN added: (absent) → 4" in text
        assert "3 of 4 pins changed since 'old'" in text

    def test_compares_with_the_previous_pinned_entry(self):
        changed = _entry("changed", {"a": "2"})
        # an accepted change: the newest entry matches the one before
        assert check_pins([_entry("orig", {"a": "1"}), changed,
                           _entry("ci", {"a": "2"})]).ok
        # unpinned entries in between are skipped
        assert check_pins([changed, _entry("legacy"),
                           _entry("ci", {"a": "2"})]).ok
        # a newest entry without pins drops every pin
        verdict = check_pins([changed, _entry("bare")])
        assert verdict.mismatches == [("a", "2", "(absent)")]


class TestPinSensitivity:
    def test_device_model_constant_moves_model_only(
            self, pinned_entry, monkeypatch, tmp_path, capsys):
        efficiency = RTX_2080TI.category_efficiency
        monkeypatch.setitem(efficiency, OpCategory.ELEMENTWISE,
                            efficiency[OpCategory.ELEMENTWISE] * 0.5)
        fresh, _ = pin_workload("lnn")
        _assert_moved(tmp_path, capsys, pinned_entry, fresh,
                      {"lnn.model"})

    def test_kernel_counter_model_moves_model_only(
            self, pinned_entry, monkeypatch, tmp_path, capsys):
        # only the synthesized L1 hit rate moves: latency, peak and
        # the op stream are untouched, so the kstats alone move the pin
        mix = kstats.CATEGORY_MIX["elementwise"]
        monkeypatch.setitem(kstats.CATEGORY_MIX, "elementwise",
                            dataclasses.replace(
                                mix, l1_line_reuse=mix.l1_line_reuse
                                * 0.9))
        fresh, _ = pin_workload("lnn")
        _assert_moved(tmp_path, capsys, pinned_entry, fresh,
                      {"lnn.model"})

    def test_flop_formula_moves_counters_events_and_model(
            self, pinned_entry, monkeypatch, tmp_path, capsys):
        # LTN's sigmoid and pow are costed in transcendental FLOPs
        monkeypatch.setattr(ops, "_TRANSCENDENTAL_COST", 5.0)
        fresh, _ = pin_workload("ltn")
        _assert_moved(tmp_path, capsys, pinned_entry, fresh,
                      {"ltn.counters", "ltn.events", "ltn.model"})

    def test_sparsity_only_change_moves_events_only(
            self, pinned_entry, monkeypatch, tmp_path, capsys):
        # per-event sparsity is in no aggregate the counters pin covers
        measure = dispatch._measure_sparsity
        monkeypatch.setattr(dispatch, "_measure_sparsity",
                            lambda arr: 1.0 - measure(arr))
        fresh, _ = pin_workload("lnn")
        _assert_moved(tmp_path, capsys, pinned_entry, fresh,
                      {"lnn.events"})

    def test_max_batch_size_moves_serve(self, pinned_entry, monkeypatch,
                                        tmp_path, capsys):
        monkeypatch.setitem(PINNED_SERVE, "max_batch", 16)
        _assert_moved(tmp_path, capsys, pinned_entry,
                      {"serve": serve_pin()}, {"serve"})

    def test_model_facts_cover_latency_peak_and_kstats(self, nvsa_trace):
        facts = model_facts(nvsa_trace, RTX_2080TI)
        assert facts["projected_latency_s"] > 0
        assert set(facts["phase_latency_s"]) == set(nvsa_trace.phases())
        assert facts["peak_live_bytes"] > 0
        assert sum(len(counters) for counters
                   in facts["category_kstats"].values()) == 35
        assert set(facts["category_kstats"]) <= \
            {c.value for c in OpCategory}


class TestEntryFromSources:
    def test_two_seeded_builds_bit_identical(self, pinned_entry):
        second = entry_from_sources(created="", sha="")
        assert pinned_entry.to_dict() == second.to_dict()
        assert pinned_entry.digest() == second.digest()

    def test_entry_carries_observatory_metrics_and_digests(
            self, pinned_entry):
        assert set(pinned_entry.pins) == {
            f"{name}.{kind}" for name in PIN_ROSTER
            for kind in PIN_KINDS} | {"serve"}
        assert set(pinned_entry.metrics) == {
            f"dispatch.{name}.ops" for name in PIN_ROSTER}
        assert pinned_entry.meta == {"seed": 0,
                                     "device": RTX_2080TI.name}

    def test_pinned_events_are_the_replayed_events(self, pinned_entry):
        # a replay against the workload's own eager trace reproduces
        # every event field the pin covers
        for name in PIN_ROSTER:
            eager = create(name, seed=0).profile()
            replayed = replay(create(name, seed=0), eager)
            assert pinned_entry.pins[f"{name}.events"] \
                == history._sha256(event_facts(replayed)), name

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


class TestCommittedHistory:
    def test_committed_history_is_current(self, pinned_entry):
        committed = load_history(str(COMMITTED_HISTORY))
        verdict = check_pins(committed + [pinned_entry])
        assert verdict.baseline is not None, \
            "benchmarks/history.jsonl holds no pinned entry"
        assert verdict.ok, (
            "this tree's pins differ from the newest pinned entry of "
            "benchmarks/history.jsonl; if the change is intended, "
            "append an entry (repro obs history record):\n"
            + verdict.render())


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
    def _seed_db(self, tmp_path, base: HistoryEntry,
                 changed_pin: str = "") -> str:
        db = str(tmp_path / "history.jsonl")
        for label in ("a", "b", "c"):
            append_entry(dataclasses.replace(base, label=label), db)
        pins = dict(base.pins)
        if changed_pin:
            pins[changed_pin] = "0" * 64
        append_entry(dataclasses.replace(base, label="cand", pins=pins),
                     db)
        return db

    def test_gate_exits_six_on_synthetic_regression(
            self, tmp_path, capsys, pinned_entry):
        db = self._seed_db(tmp_path, pinned_entry,
                           changed_pin="nvsa.events")
        assert cli_main(["obs", "history", "gate", "--db", db]) \
            == EXIT_PIN_MISMATCH
        out = capsys.readouterr().out
        assert (f"PIN nvsa.events: {pinned_entry.pins['nvsa.events']} "
                f"→ {'0' * 64}") in out
        assert "1 of 19 pins changed since 'c'" in out

    def test_gate_passes_on_identical_runs(self, tmp_path, capsys,
                                           pinned_entry):
        db = self._seed_db(tmp_path, pinned_entry)
        assert cli_main(["obs", "history", "gate", "--db", db]) == 0
        assert "OK — 19 pins match 'c'" in capsys.readouterr().out

    def test_gate_warn_only_and_thresholds(self, tmp_path, capsys,
                                           pinned_entry):
        # pins are exact: the gate takes no thresholds and never
        # downgrades a mismatch to a warning
        db = self._seed_db(tmp_path, pinned_entry, changed_pin="serve")
        for option in (["--warn-only"], ["--threshold", "serve=1"]):
            with pytest.raises(SystemExit) as info:
                cli_main(["obs", "history", "gate", "--db", db]
                         + option)
            assert info.value.code == 2     # argparse usage error
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["record", "nvsa"],
        ["compare", "a.json", "b.json"],
        ["obs", "history", "record", "--workloads", "lnn"],
        ["obs", "history", "record", "--device", "rtx"],
        ["obs", "history", "record", "--seed", "1"],
    ])
    def test_removed_commands_and_options_rejected(self, argv, capsys):
        # pins compare at one roster, seed and device
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        assert info.value.code == 2     # argparse usage error
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["obs", "history", "show", "--db"],
        ["obs", "history", "gate", "--db"],
        ["report", "lnn", "-o", os.devnull, "--history"],
    ])
    @pytest.mark.parametrize("bad_line", [
        '{"created": "x", "metrics": {"a": 1',
        '{"metrics": {"dispatch.nvsa.ops": "fast"}}',
    ])
    def test_malformed_history_exits_with_one_line(self, tmp_path,
                                                   command, bad_line):
        db = tmp_path / "history.jsonl"
        append_entry(_entry("good"), str(db))
        with open(db, "a") as handle:
            handle.write(bad_line + "\n")
        with pytest.raises(SystemExit) as info:
            cli_main(command + [str(db)])
        message = info.value.code
        # a string code: printed to stderr, process exit status 1
        assert isinstance(message, str)
        assert f"{db}:2: malformed history entry" in message
        assert "\n" not in message

    def test_record_and_show(self, tmp_path, capsys, monkeypatch):
        # one workload and a stub serve pin keep this CLI test quick;
        # the full roster is built by the ``pinned_entry`` fixture
        monkeypatch.setattr(history, "PIN_ROSTER", ("lnn",))
        monkeypatch.setattr(history, "serve_pin", lambda: "s" * 64)
        db = str(tmp_path / "history.jsonl")
        assert cli_main(["obs", "history", "record", "--db", db,
                         "--results", "", "--label", "test"]) == 0
        entries = load_history(db)
        assert len(entries) == 1
        assert entries[0].label == "test"
        assert entries[0].created and entries[0].git_sha is not None
        assert set(entries[0].pins) == {
            f"lnn.{kind}" for kind in PIN_KINDS} | {"serve"}
        assert cli_main(["obs", "history", "show", "--db", db]) == 0
        assert "dispatch.lnn.ops" in capsys.readouterr().out

    def test_selfprof_and_opportunities_commands(self, capsys):
        assert cli_main(["obs", "selfprof", "lnn"]) == 0
        out = capsys.readouterr().out
        assert "dispatch-overhead ledger" in out
        assert "modeled" not in out
        assert cli_main(["obs", "selfprof", "lnn", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"deterministic", "measured"}
        assert set(doc["deterministic"]) == {"ops", "ops_by_category"}
        assert doc["deterministic"]["ops"] > 0
        # measured components only: nothing left to project a device on
        for argv in (["obs", "opportunities", "lnn"],
                     ["obs", "selfprof", "lnn", "--device", "rtx"]):
            with pytest.raises(SystemExit):
                cli_main(argv)
        capsys.readouterr()

    def test_report_with_history_renders_trends(self, tmp_path,
                                                capsys, pinned_entry):
        db = self._seed_db(tmp_path, pinned_entry,
                           changed_pin="serve")
        output = str(tmp_path / "report.html")
        assert cli_main(["report", "lnn", "--history", db,
                         "-o", output]) == 0
        capsys.readouterr()
        html = open(output).read()
        assert "perf trends" in html
        assert "dispatch.lnn.ops" in html
        # the gate's verdict, as ``obs history gate`` prints it
        assert f"PIN serve: {pinned_entry.pins['serve']} → " in html
        assert "1 of 19 pins changed since" in html
        assert html.count("<svg") >= 2   # roofline + >=1 sparkline
