#!/usr/bin/env python3
"""Measured wall-clock benchmark of characterization and live serving.

Measure one workload::

    python3 benchmarks/perf/run.py --workload char-neural --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced, then traced, and prints every
per-layer metric (spans go to ``benchmarks/perf/out/*.jsonl``).  Omit
``--workload`` to run all of them.  The last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the exit code is 0 when every check passed, 1 when a
check failed, and 2 when the run could not produce a result.

Judge a change by comparing two sets of ``--out`` files::

    python3 benchmarks/perf/run.py compare --base a/*.json --head b/*.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from stats import quartiles, verdict  # noqa: E402

#: set-up-only processes per run; with the measured run's own set-up
#: they give the five samples whose median is ``setup_s``
SETUP_PROBES = 4
#: wall budget of one workload, set-up probes and checks included
RUN_BUDGET_S = 170.0
QUICK_SECONDS = 2.0


class BenchError(RuntimeError):
    """A workload process ended without a result."""


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          deadline: float, setup_only: bool = False,
          spans: Optional[Path] = None) -> Dict[str, object]:
    """Run ``child.py`` in a fresh interpreter; its parsed result line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--t0", repr(t0)]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> Dict[str, object]:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [child(name, seed, seconds, trace, quick, deadline,
                    setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    spans = HERE / "out" / f"spans-{name}-seed{seed}.jsonl" if trace else None
    result = child(name, seed, seconds, trace, quick, deadline, spans=spans)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def render(result: Dict[str, object], units: Dict[str, str]) -> str:
    lines = [f"{result['workload']}: seed {result['seed']}, "
             f"{result['attempted']} attempted, {result['failed']} failed, "
             f"correct {'yes' if not result['problems'] else 'NO'}, "
             f"{result['samples']} samples, host slowness "
             f"{result['slowness']:.3f} (median)"]
    lines += [f"  problem: {problem}" for problem in result["problems"]]
    width = max(len(name) for name in units)
    lines += [f"  {name:<{width}}  {result['metrics'][name]:.6g} {unit}"
              for name, unit in units.items()]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Measured wall-clock benchmark (see README.md).")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"measured window (default {bench['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: untraced then traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s windows, smoke only; "
                             f"marked not comparable")
    parser.add_argument("--out", type=Path, help="result JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = QUICK_SECONDS if args.quick else (args.seconds
                                                or bench["run_seconds"])
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    chosen = names if args.workload == "all" else [args.workload]
    (HERE / "out").mkdir(exist_ok=True)
    results = []
    try:
        for name in chosen:
            result = run_workload(name, args.seed, seconds, args.trace,
                                  args.quick)
            missing = sorted(set(units) - set(result["metrics"]))
            if missing:
                raise BenchError(f"{name}: metrics missing: {missing}")
            print(render(result, units), flush=True)
            results.append(result)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    provenance = {"nproc": os.cpu_count(), "cpu": cpu_model(),
                  "python": platform.python_version(),
                  "numpy": results[0]["numpy"], "git_sha": git_sha(),
                  "seed": args.seed, "seconds": seconds, "trace": args.trace,
                  "comparable": not args.quick}
    out = args.out or (HERE / "out" /
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps({"provenance": provenance, "runs": results},
                              indent=1) + "\n")

    def key(result: Dict[str, object], name: str) -> str:
        return name if len(results) == 1 else f"{result['workload']}/{name}"

    correct = all(not r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key(r, name): {"value": r["metrics"][name], "unit": unit}
                    for r in results for name, unit in units.items()}}))
    return 0 if correct else 1


def collect(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values over the result files."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        if not data["provenance"]["comparable"]:
            raise BenchError(f"{path}: a --quick run is not comparable")
        for result in data["runs"]:
            bucket = out.setdefault(result["workload"], {})
            for name, value in result["metrics"].items():
                bucket.setdefault(name, []).append(value)
    return out


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Verdict per workload and end-to-end metric under the "
                    "BENCHMARK.json bounds; exit 1 if any regressed.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        base, head = collect(args.base), collect(args.head)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    regressed = False
    for workload in sorted(set(base) & set(head)):
        print(f"{workload}")
        print(f"  {'metric':<18} {'base median [q1, q3]':>28} "
              f"{'head median [q1, q3]':>28} {'worse':>7} {'spread':>7} "
              f"{'bound':>6}  verdict")
        for metric in load_benchmark()["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in head[workload]:
                continue
            b, h = base[workload][name], head[workload][name]
            judged = verdict(b, h, metric["better"], metric["bound"])
            regressed |= judged["verdict"] == "regressed"
            side = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v))
                    for v in (b, h)]
            print(f"  {name:<18} {side[0]:>28} {side[1]:>28} "
                  f"{judged['worse']:>+7.1%} {judged['spread']:>7.1%} "
                  f"{metric['bound']:>6.0%}  {judged['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
