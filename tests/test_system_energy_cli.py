"""Tests for the heterogeneous system model, energy estimation,
function-level profiling, and the CLI."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from repro import tensor as T
from repro.argtypes import NON_NEGATIVE_INT
from repro.cli import main as cli_main
from repro.core.analysis import latency_breakdown
from repro.core.functions import function_table, render_function_table
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.core.report import format_time
from repro.hwsim import (JETSON_TX2, RTX_2080TI, XEON_4114,
                         HeterogeneousSystem, default_placement,
                         estimate_energy, gpu_only_placement, project_trace)
from repro.core.taxonomy import OpCategory
from repro.obs.jsonl import trace_to_jsonl_lines
from repro.workloads import available
from tests.conftest import cached_trace, fresh_python


class TestHeterogeneousSystem:
    @pytest.fixture(scope="class")
    def system(self):
        return HeterogeneousSystem(XEON_4114, RTX_2080TI)

    def test_default_placement_splits_by_category(self):
        from repro.core.profiler import TraceEvent
        logic = TraceEvent(eid=0, name="rule", category=OpCategory.OTHER)
        gemm = TraceEvent(eid=1, name="matmul",
                          category=OpCategory.MATMUL)
        assert default_placement(logic) == "cpu"
        assert default_placement(gemm) == "gpu"
        assert gpu_only_placement(logic) == "gpu"

    def test_projection_covers_all_events(self, system, nvsa_trace):
        report = system.project(nvsa_trace)
        assert len(report.costs) == len(nvsa_trace)
        assert report.total_time > 0

    def test_cross_device_transfers_charged(self, system, lnn_trace):
        """LNN mixes logic regions (CPU) with tensor ops (GPU), so
        tensors cross the link."""
        report = system.project(lnn_trace)
        assert report.transfer_time >= 0
        devices = {c.device for c in report.costs}
        assert devices == {"cpu", "gpu"}

    def test_gpu_only_has_no_transfers(self, nvsa_trace):
        system = HeterogeneousSystem(XEON_4114, RTX_2080TI,
                                     placement=gpu_only_placement)
        report = system.project(nvsa_trace)
        assert report.transfer_time == 0.0

    def test_time_by_device_partitions(self, system, nvsa_trace):
        report = system.project(nvsa_trace)
        by_device = report.time_by_device()
        assert set(by_device) <= {"cpu", "gpu", "pcie"}
        assert sum(by_device.values()) == pytest.approx(
            report.total_time, rel=1e-6)

    def test_synthetic_pingpong_transfers(self):
        """Alternating CPU/GPU consumers force repeated transfers."""
        with T.profile("pingpong") as prof:
            x = T.tensor(np.ones((256, 256), dtype=np.float32))
            y = T.matmul(x, x)               # gpu (matmul)
            z = T.fuzzy_not(y)               # cpu (other)
            w = T.matmul(z, z)               # gpu again
        system = HeterogeneousSystem(XEON_4114, RTX_2080TI)
        report = system.project(prof.trace)
        moved = sum(c.transfer_bytes for c in report.costs)
        assert moved >= 2 * 256 * 256 * 4


class TestEnergy:
    def test_energy_positive_and_decomposes(self, nvsa_trace):
        report = estimate_energy(nvsa_trace, RTX_2080TI)
        assert report.total_energy > 0
        assert report.static_energy > 0
        assert report.dynamic_energy >= 0
        assert sum(report.energy_by_phase.values()) == pytest.approx(
            report.total_energy, rel=0.05)

    def test_average_power_below_tdp(self, nvsa_trace):
        report = estimate_energy(nvsa_trace, RTX_2080TI)
        assert 0 < report.average_power <= RTX_2080TI.tdp_watts

    def test_edge_lower_power(self, nvsa_trace):
        rtx = estimate_energy(nvsa_trace, RTX_2080TI)
        tx2 = estimate_energy(nvsa_trace, JETSON_TX2)
        assert tx2.average_power < rtx.average_power
        assert tx2.total_time > rtx.total_time

    def test_requires_tdp(self, nvsa_trace):
        no_tdp = dataclasses.replace(RTX_2080TI, tdp_watts=0.0)
        with pytest.raises(ValueError):
            estimate_energy(nvsa_trace, no_tdp)


class TestFunctionTable:
    def test_aggregates_by_name(self, nvsa_trace):
        stats = function_table(nvsa_trace, RTX_2080TI)
        names = [s.name for s in stats]
        assert len(names) == len(set(names))
        total_calls = sum(s.calls for s in stats)
        assert total_calls == len(nvsa_trace)

    def test_sorted_by_total_time(self, nvsa_trace):
        stats = function_table(nvsa_trace, RTX_2080TI)
        times = [s.total_time for s in stats]
        assert times == sorted(times, reverse=True)

    def test_phase_filter(self, nvsa_trace):
        symbolic = function_table(nvsa_trace, RTX_2080TI,
                                  phase=PHASE_SYMBOLIC)
        assert all(s.name != "conv2d" for s in symbolic)

    def test_render_contains_top_op(self, nvsa_trace):
        stats = function_table(nvsa_trace, RTX_2080TI)
        text = render_function_table(stats, top=5)
        assert stats[0].name in text


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "nvsa" in out and "paradigm" in out

    def test_characterize(self, capsys):
        assert cli_main(["characterize", "ltn", "--device", "rtx"]) == 0
        out = capsys.readouterr().out
        assert "latency by phase" in out

    def test_functions(self, capsys):
        assert cli_main(["functions", "ltn", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "function-level statistics" in out

    def test_energy(self, capsys):
        assert cli_main(["energy", "ltn", "--device", "tx2"]) == 0
        out = capsys.readouterr().out
        assert "average power" in out

    @pytest.mark.parametrize("argv", [
        ["characterize", "lnn"], ["functions", "lnn"], ["energy", "lnn"],
        ["analyze-trace", "missing.jsonl"], ["roster"],
        ["faults", "lnn", "--fault", "nan"],
        ["trace", "export", "lnn", "--format", "flame",
         "--weight", "latency"],
        ["report", "lnn"], ["serve", "bench"],
        ["serve", "replay", "missing.jsonl"],
    ], ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("device", ["bogus", "rtx,bogus"])
    def test_unknown_device_is_a_usage_error(self, argv, device, capsys):
        # resolved while parsing: exit 2 naming the bad name and the
        # known devices, before any work and never a traceback
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--device", device])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --device: unknown device: '" in err
        assert "bogus" in err and "Jetson TX2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["characterize", "bogus"], ["functions", "bogus"],
        ["energy", "bogus"], ["faults", "bogus", "--fault", "nan"],
        ["trace", "export", "bogus"], ["metrics", "bogus"],
        ["report", "bogus"], ["obs", "selfprof", "bogus"],
        ["compile", "diff", "bogus"],
    ], ids=lambda argv: " ".join(argv[:argv.index("bogus")]))
    def test_unknown_workload_lists_the_registry(self, argv, capsys):
        # every verb that takes a workload name checks it while
        # parsing: exit 2 with one stderr line naming the registered
        # workloads, never a KeyError traceback
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(": error: argument workload: unknown workload "
                            f"'bogus'; available: {available()}\n")

    @pytest.mark.parametrize("argv", [
        ["roster", "--max-retries", "-2"], ["roster", "--timeout", "-1"],
        ["roster", "--timeout", "0"],
        ["faults", "lnn", "--fault", "raise", "--max-retries", "-1"],
        ["faults", "lnn", "--fault", "raise", "--timeout", "nan"],
    ], ids=" ".join)
    def test_bad_budget_is_a_usage_error(self, argv, capsys):
        # a negative retry count ran no attempt at all and a timeout
        # <= 0 failed every workload; both are refused while parsing
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"error: argument {argv[-2]}: must be " in err

    @pytest.mark.parametrize("argv", [
        ["characterize", "lnn"], ["functions", "lnn"], ["energy", "lnn"],
        ["metrics", "lnn"], ["trace", "export", "lnn"], ["report", "lnn"],
        ["obs", "selfprof", "lnn"], ["compile", "diff", "lnn"],
        ["fuzz", "run"], ["fuzz", "rules"], ["roster"],
        ["faults", "lnn", "--fault", "nan"],
    ], ids=" ".join)
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        # numpy's seeding refused it with a traceback, and roster and
        # faults reported every workload as a deterministic failure
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith("error: argument --seed: must be an integer "
                            ">= 0, got '-1'\n")

    @pytest.mark.parametrize("case", [
        (["fuzz", "run", "--count", "-1"], "an integer >= 0"),
        (["fuzz", "run", "--chaos", "-1"], "an integer >= 0"),
        (["fuzz", "run", "--configs", "-2"], "an integer >= 0"),
        (["fuzz", "run", "--max-ops", "2"], "an integer >= 3"),
        (["fuzz", "run", "--max-ops", "0"], "an integer >= 3"),
        (["functions", "lnn", "--top", "0"], "an integer >= 1"),
        (["functions", "lnn", "--top", "-2"], "an integer >= 1"),
    ], ids=lambda case: " ".join(case[0]))
    def test_count_out_of_range_is_a_usage_error(self, case, capsys):
        # `fuzz run --count -1` reported a clean run of nothing,
        # `--max-ops` below 3 was raised to 3 without a word, and
        # `functions --top -2` printed all but the last two rows
        argv, expected = case
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(f"error: argument {argv[-2]}: must be "
                            f"{expected}, got {argv[-1]!r}\n")

    def test_an_integer_beyond_float_range_parses(self):
        # math.isfinite overflowed on it: an OverflowError traceback
        huge = "1" + "0" * 400
        assert NON_NEGATIVE_INT(huge) == int(huge)
        with pytest.raises(argparse.ArgumentTypeError):
            NON_NEGATIVE_INT("-" + huge)

    @pytest.mark.parametrize("flag, value", [
        ("--rate", "-1"), ("--rate", "1.5"), ("--latency", "-1"),
        ("--latency", "inf"), ("--alloc-bytes", "-5"),
        ("--op-index", "-3"),
    ])
    def test_fault_parameter_out_of_range_is_a_usage_error(
            self, flag, value, capsys):
        # each ran an experiment whose plan never fired (or shrank the
        # live bytes) and reported the run as ok
        with pytest.raises(SystemExit) as exc:
            cli_main(["faults", "lnn", "--fault", "latency", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"error: argument {flag}: must be " in err

    def test_chrome_verb_is_gone(self, capsys):
        # `repro trace export W --format chrome` is the one exporter
        with pytest.raises(SystemExit) as exc:
            cli_main(["chrome", "ltn"])
        assert exc.value.code == 2
        assert "invalid choice: 'chrome'" in capsys.readouterr().err

    def test_roster(self, capsys):
        assert cli_main(["roster", "--device", "rtx"]) == 0
        out = capsys.readouterr().out
        assert "NVSA" in out
        assert "7 ok, 0 degraded, 0 failed" in out
        # the Fig. 2a split rides along each healthy row
        assert "neural %" in out and "symbolic %" in out
        nvsa = next(line for line in out.splitlines()
                    if line.startswith("NVSA"))
        split = latency_breakdown(
            project_trace(cached_trace("nvsa", seed=0), RTX_2080TI))
        assert f"{split.neural_fraction * 100:.1f}%" in nvsa
        assert f"{split.symbolic_fraction * 100:.1f}%" in nvsa

    def test_roster_exits_1_unless_all_healthy(self, monkeypatch, capsys):
        from repro.workloads.nvsa import NVSAWorkload

        def explode(self):
            raise RuntimeError("intentionally broken workload")

        monkeypatch.setattr(NVSAWorkload, "profile", explode)
        assert cli_main(["roster", "--max-retries", "0"]) == 1
        out = capsys.readouterr().out
        assert "6 ok, 0 degraded, 1 failed" in out
        assert "intentionally broken" in out

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["characterize", "hal9000"])


class TestCLITraceArchive:
    """A JSONL log from ``trace export`` is what ``analyze-trace`` reads."""

    def test_save_and_analyze_round_trip(self, tmp_path, capsys):
        target = tmp_path / "ltn.jsonl"
        assert cli_main(["trace", "export", "ltn", "--format", "jsonl",
                         "-o", str(target)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze-trace", str(target)]) == 0
        out = capsys.readouterr().out
        assert "latency by phase" in out
        assert "function-level statistics" in out
        # the same analyses as on the live trace
        trace = cached_trace("ltn", seed=0)
        split = latency_breakdown(project_trace(trace, RTX_2080TI))
        assert f"ltn on RTX 2080 Ti: {format_time(split.total_time)}" in out
        assert render_function_table(function_table(trace, RTX_2080TI),
                                     top=10) in out

    @staticmethod
    def _log(tmp_path, edit=None):
        """ltn's JSONL log, with ``edit(records)`` applied."""
        records = [json.loads(line) for line in
                   trace_to_jsonl_lines(cached_trace("ltn", seed=0))]
        if edit is not None:
            edit(records)
        target = tmp_path / "ltn.jsonl"
        target.write_text("".join(json.dumps(r) + "\n" for r in records))
        return target

    @staticmethod
    def _refused(path, capsys) -> str:
        """analyze-trace's one-line exit message (status 1) for ``path``."""
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze-trace", str(path)])
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro analyze-trace: {path}: ")
        assert capsys.readouterr().out == ""
        return message

    def test_analyze_trace_missing_file(self, tmp_path, capsys):
        message = self._refused(tmp_path / "nope.jsonl", capsys)
        assert message.endswith("No such file or directory")

    def test_analyze_trace_line_not_json(self, tmp_path, capsys):
        path = self._log(tmp_path)
        with open(path, "a") as handle:
            handle.write("{truncated\n")
        assert "not JSON" in self._refused(path, capsys)

    def test_analyze_trace_op_without_eid(self, tmp_path, capsys):
        path = self._log(tmp_path, lambda records: records[1].pop("eid"))
        assert self._refused(path, capsys).endswith(
            "line 2: missing field 'eid'")

    def test_analyze_trace_unsupported_version(self, tmp_path, capsys):
        path = self._log(tmp_path,
                         lambda records: records[0].update(version=99))
        assert "line 1: unsupported JSONL log version: 99" \
            in self._refused(path, capsys)

    def test_analyze_trace_nan_flops(self, tmp_path, capsys):
        path = self._log(tmp_path,
                         lambda records: records[1].update(flops="nan"))
        assert "non-finite flops: nan" in self._refused(path, capsys)

    def test_analyze_trace_huge_byte_count(self, tmp_path, capsys):
        # a counter beyond int64 is analysed, not a traceback
        path = self._log(tmp_path,
                         lambda records: records[1].update(
                             bytes_read=10 ** 30))
        assert cli_main(["analyze-trace", str(path)]) == 0
        assert "latency by phase" in capsys.readouterr().out

    def test_analyze_trace_missing_phase(self, tmp_path, capsys):
        path = self._log(tmp_path, lambda records: [
            r.update(phase="neural") for r in records if r["type"] == "op"])
        assert "missing expected phases: ['symbolic']" \
            in self._refused(path, capsys)

    def test_analyze_trace_failure_is_one_stderr_line(self, tmp_path):
        done = fresh_python(
            "import sys\nfrom repro.cli import main\n"
            "sys.exit(main(['analyze-trace', sys.argv[1]]))",
            str(tmp_path / "nope.jsonl"))
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("repro analyze-trace: ")

    @pytest.mark.parametrize("content, reason", [
        ("not json\n", "line 1: not JSON (Expecting value at column 1)"),
        ('{"type":"op"}\n', "line 1: missing field 'eid'"),
        (None, "No such file or directory"),
    ], ids=["not-json", "op-without-eid", "missing"])
    def test_trace_export_refuses_a_malformed_log(self, tmp_path, capsys,
                                                  content, reason):
        # a .jsonl source is read like analyze-trace reads one: one
        # line naming the path and the bad line (exit 1)
        path = tmp_path / "bad.jsonl"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as info:
            cli_main(["trace", "export", str(path)])
        assert info.value.code == f"repro trace export: {path}: {reason}"
        assert capsys.readouterr().out == ""

    def test_analyze_trace_device_option(self, tmp_path, capsys):
        target = tmp_path / "ltn.jsonl"
        cli_main(["trace", "export", "ltn", "--format", "jsonl",
                  "-o", str(target)])
        capsys.readouterr()
        assert cli_main(["analyze-trace", str(target),
                         "--device", "tx2"]) == 0
        out = capsys.readouterr().out
        assert "Jetson TX2" in out
