"""Tests of the perf benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (about
two minutes: the smoke runs start real workload processes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import (TENSOR_DISPATCH, TENSOR_KERNEL, UNATTRIBUTED, Tracer,
                    attribute, direct_tensor)
from loops import Episode, measure
from stats import TailError, tail_percentile, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/perf/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_metric(tmp_path, trace, kind):
    out = tmp_path / "quick.json"
    proc = bench("--quick", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for workload in BENCH["workloads"]:
        for metric in BENCH[kind]:
            entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert f"{metric['name']} " in proc.stdout
    saved = json.loads(out.read_text())
    assert saved["provenance"]["comparable"] is False
    assert {"nproc", "cpu", "python", "numpy", "git_sha", "seed"} \
        <= set(saved["provenance"])
    if trace:
        for run_result in saved["runs"]:
            metrics = run_result["metrics"]
            parts = sum(value for name, value in metrics.items()
                        if name.startswith("self_share."))
            assert parts == pytest.approx(1.0)
            for metric in BENCH["per_layer"]:   # no time reads a flat 0
                if metric["unit"] == "ms":
                    assert metrics[metric["name"]] > 0, metric["name"]
            spans = HERE / "out" / f"spans-{run_result['workload']}-seed0.jsonl"
            first = json.loads(spans.read_text().splitlines()[0])
            assert {"sid", "parent", "name", "start", "end"} <= set(first)


def test_tampered_expected_digest_fails_the_run(tmp_path):
    perf = tmp_path / "benchmarks" / "perf"
    perf.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, perf / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests = json.loads((perf / "expected_digests.json").read_text())
    digests["digests"]["lnn"] = "0" * 64
    (perf / "expected_digests.json").write_text(json.dumps(digests))
    proc = bench("--quick", "--workload", "char-symbolic", cwd=tmp_path)
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
    assert "lnn seed 0: counters digest" in proc.stdout


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "serve-hot", "--seed", "0", "--seconds", "20",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_rule_needs_ten_samples_beyond():
    assert tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(TailError):
        tail_percentile(list(range(99)), 90)
    with pytest.raises(TailError):
        tail_percentile(list(range(199)), 95)


@pytest.mark.parametrize("base,head,better,expected", [
    ([100, 101, 102, 103, 104], [100, 101, 102, 103, 104], "lower", "ok"),
    ([100, 101, 102, 103, 104], [120, 121, 122, 123, 124], "lower", "regressed"),
    ([100, 101, 102, 103, 104], [105, 106, 107, 108, 109], "lower", "ok"),
    ([100, 101, 102, 103, 104], [80, 81, 82, 83, 84], "higher", "regressed"),
    ([60, 100, 140, 100, 80], [70, 110, 150, 120, 90], "lower", "unresolved"),
    ([60, 100, 140, 100, 80], [20, 30, 40, 50, 55], "lower", "ok"),
])
def test_verdicts(base, head, better, expected):
    assert verdict(base, head, better, 0.10)["verdict"] == expected


def write_set(directory: Path, values, comparable: bool = True) -> list:
    directory.mkdir()
    paths = []
    for index, value in enumerate(values):
        path = directory / f"{index}.json"
        path.write_text(json.dumps({
            "provenance": {"comparable": comparable},
            "runs": [{"workload": "serve-hot",
                      "metrics": {"latency_ms_p50": value,
                                  "throughput_per_s": 30.0 + index * 0.01}}]}))
        paths.append(str(path))
    return paths


def test_compare_exit_codes(tmp_path, capsys):
    base = write_set(tmp_path / "a", [100, 101, 102, 103, 104])
    same = write_set(tmp_path / "b", [101, 102, 100, 104, 103])
    worse = write_set(tmp_path / "c", [130, 131, 132, 133, 134])
    quick = write_set(tmp_path / "d", [100, 101, 102], comparable=False)
    assert run.main(["compare", "--base", *base, "--head", *same]) == 0
    assert "latency_ms_p50" in capsys.readouterr().out
    assert run.main(["compare", "--base", *base, "--head", *worse]) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.main(["compare", "--base", *base, "--head", *quick]) == 2


class FakeProbe:
    def __init__(self, readings):
        self.readings = iter(readings)

    def read(self):
        return next(self.readings)


class FakeLoop:
    """Episodes of 0.2 s, in rounds of three."""

    def __init__(self):
        self.count = 0

    @property
    def at_round_end(self):
        return self.count % 3 == 0

    def episode(self):
        self.count += 1
        return Episode([0.2], 0.2, [])


def test_measure_scales_episodes_and_ends_between_rounds():
    loop = FakeLoop()
    window = measure(loop, FakeProbe([1.0, 3.0, 1.0, 2.0]), 0.0, 0)
    assert loop.count == 3                  # not after the first episode
    assert window["latencies"] == pytest.approx([0.1, 0.1, 0.2 / 1.5])
    assert window["raw_latencies"] == pytest.approx([0.2] * 3)
    assert window["throughput"] == pytest.approx(3 / (0.2 + 0.2 / 1.5))
    assert window["slowness"] == pytest.approx(2.0)


def test_self_times_add_up_to_the_request_wall():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.set_key("r")
    with tracer.span("call", None):
        now[0] = 1.0
        with tracer.span("workloads.profile", "workloads"):
            now[0] = 2.0
            tracer.add_tensor(kernel_ns=300_000_000, dispatch_ns=100_000_000)
            now[0] = 4.0
        with tracer.span("core.characterize_trace", "core"):
            now[0] = 5.0
            with tracer.span("hwsim.latency_breakdown", "hwsim"):
                now[0] = 5.5
        now[0] = 6.0
    spans = tracer.by_key()["r"]
    split = attribute(0.0, 6.0, spans, direct_tensor(spans))
    assert sum(split.values()) == pytest.approx(6.0)
    assert split[UNATTRIBUTED] == pytest.approx(1.5)    # 0-1 and 5.5-6
    assert split["workloads"] == pytest.approx(2.6)     # 1-4 less tensor
    assert split[TENSOR_KERNEL] == pytest.approx(0.3)
    assert split[TENSOR_DISPATCH] == pytest.approx(0.1)
    assert split["core"] == pytest.approx(1.0)          # 4-5
    assert split["hwsim"] == pytest.approx(0.5)         # 5-5.5
