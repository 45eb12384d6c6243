"""Command-line interface.

Usage (``python -m repro ...``):

    python -m repro list
    python -m repro characterize nvsa --device tx2
    python -m repro functions nvsa --phase symbolic --top 10
    python -m repro roster --device rtx --timeout 60 --max-retries 2
    python -m repro faults nvsa --fault nan --seed 0
    python -m repro energy nvsa
    python -m repro lint --strict --format json
    python -m repro trace export nvsa --format chrome -o nvsa.json
    python -m repro trace export nvsa --format flame --weight flops
    python -m repro trace export ltn --format jsonl -o ltn.jsonl
    python -m repro analyze-trace ltn.jsonl --device tx2
    python -m repro metrics nvsa --format prom
    python -m repro report nvsa --device rtx2080ti -o report.html
    python -m repro obs history record --label local
    python -m repro obs history gate
    python -m repro serve bench --workers 2 --mix nvsa=3,lnn=1 --duration 10
    python -m repro serve replay sched.jsonl --device rtx,xeon
    python -m repro fuzz run --seed 0 --count 50 --chaos 3 --corpus crashes.jsonl
    python -m repro fuzz replay crashes.jsonl
    python -m repro fuzz rules --harvest lnn,nvsa -o rules.json

Everything routes through the same public API the benchmarks use.
``roster`` runs the paper's roster under the resilient runner and
exits 1 unless every workload is healthy; ``faults`` runs an
injection experiment and exits nonzero (2 degraded, 3 failed) with a
quarantine report instead of a traceback; ``obs history gate`` exits
6 when the newest history entry's pins differ from the previous
pinned entry's.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.argtypes import (NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE,
                            POSITIVE_INT, RATIO)
from repro.core.analysis import latency_breakdown
from repro.core.functions import function_table, render_function_table
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace
from repro.core.report import format_time, render_table
from repro.core.suite import characterize
from repro.core.validate import validate_trace
from repro.hwsim.devices import device_arg, get_device
from repro.hwsim.energy import estimate_energy
from repro.hwsim.latency import project_trace
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.workloads import PAPER_ORDER, available, create, workload_arg


class _OneLineErrors(argparse.ArgumentParser):
    """A usage error is one stderr line (exit 2), without the verb's
    long usage block; every verb's parser inherits this class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _OneLineErrors(
        prog="repro",
        description="Neuro-symbolic workload characterization suite")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered workloads")

    for name, help_text in (
            ("characterize", "full characterization of one workload"),
            ("functions", "function-level statistics table"),
            ("energy", "energy estimate on a device"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("workload", type=workload_arg,
                         help="registered workload name")
        cmd.add_argument("--device", default="rtx", type=device_arg,
                         help="device name or alias (default rtx)")
        cmd.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
        if name == "functions":
            cmd.add_argument("--phase", default=None,
                             help="restrict to one phase")
            cmd.add_argument("--top", type=POSITIVE_INT, default=15)

    analyze = sub.add_parser(
        "analyze-trace",
        help="re-run the latency/operator analyses on a JSONL trace log")
    analyze.add_argument("path",
                         help="JSONL trace log (repro trace export W "
                              "--format jsonl -o PATH)")
    analyze.add_argument("--device", default="rtx", type=device_arg)

    roster = sub.add_parser(
        "roster",
        help="latency split of the paper's roster, each workload under "
             "timeouts/retries/health checks (exit 1 unless all are "
             "healthy)")
    roster.add_argument("--device", default="rtx", type=device_arg)
    roster.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    roster.add_argument("--timeout", type=POSITIVE, default=120.0,
                        help="per-workload wall-clock budget in seconds")
    roster.add_argument("--max-retries", type=NON_NEGATIVE_INT, default=2,
                        help="retries per workload on transient errors")

    faults = sub.add_parser(
        "faults",
        help="run one workload under a deterministic fault-injection "
             "plan and report its health")
    faults.add_argument("workload", type=workload_arg,
                        help="registered workload name")
    faults.add_argument("--fault", required=True,
                        choices=list(FAULT_KINDS),
                        help="fault kind to inject")
    faults.add_argument("--device", default="rtx", type=device_arg)
    faults.add_argument("--seed", type=NON_NEGATIVE_INT, default=0,
                        help="fault-plan seed (also the workload seed)")
    faults.add_argument("--rate", type=RATIO, default=1.0,
                        help="per-op injection probability")
    faults.add_argument("--op-name", default=None,
                        help="restrict injection to one op name")
    faults.add_argument("--op-index", type=NON_NEGATIVE_INT, default=None,
                        help="inject at exactly this dispatch index")
    faults.add_argument("--phase", default=None,
                        help="restrict injection to one phase")
    faults.add_argument("--latency", type=NON_NEGATIVE, default=0.05,
                        help="seconds added per latency fault")
    faults.add_argument("--alloc-bytes", type=NON_NEGATIVE_INT,
                        default=1 << 30,
                        help="live bytes added per alloc fault")
    faults.add_argument("--timeout", type=POSITIVE, default=120.0)
    faults.add_argument("--max-retries", type=NON_NEGATIVE_INT, default=0,
                        help="retries (default 0: report first outcome)")

    lint = sub.add_parser(
        "lint",
        help="static soundness checks over the suite's own source — "
             "instrumentation (RL00x) and whole-program concurrency "
             "(RL10x); `lint explain RLxxx` describes one check "
             "(exit 2 on findings, 3 on internal error)")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(lint)

    from repro.obs.cli import add_obs_subcommands
    add_obs_subcommands(sub)

    from repro.serve.cli import add_serve_subcommands
    add_serve_subcommands(sub)

    from repro.fuzz.cli import add_fuzz_subcommands
    add_fuzz_subcommands(sub)

    from repro.compile.cli import add_compile_subcommands
    add_compile_subcommands(sub)
    return parser


def _read_trace_log(path: str) -> Trace:
    """Load and validate a JSONL trace log as ``characterize`` would;
    any failure exits with one line on stderr, never a traceback."""
    from repro.obs.cli import read_trace_log
    trace = read_trace_log(path, "analyze-trace")
    errors = validate_trace(
        trace, expected_phases=(PHASE_NEURAL, PHASE_SYMBOLIC)).errors
    if errors:
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        raise SystemExit(f"repro analyze-trace: {path}: {errors[0]}{more}")
    return trace


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "lint":
        from repro.lint.cli import run_lint_command
        return run_lint_command(args)

    from repro.obs.cli import OBS_COMMANDS, run_obs_command
    if args.command in OBS_COMMANDS:
        result = run_obs_command(args)
        if result is not None:
            return result

    if args.command == "serve":
        from repro.serve.cli import run_serve_command
        result = run_serve_command(args)
        if result is not None:
            return result

    if args.command == "fuzz":
        from repro.fuzz.cli import run_fuzz_command
        return run_fuzz_command(args)

    if args.command == "compile":
        from repro.compile.cli import run_compile_command
        return run_compile_command(args)

    if args.command == "analyze-trace":
        from repro.core.report import render_shares
        device = get_device(args.device)
        trace = _read_trace_log(args.path)
        lb = latency_breakdown(project_trace(trace, device))
        print(f"{trace.workload or args.path} on {device.name}: "
              f"{format_time(lb.total_time)}")
        print(render_shares(
            {phase: t / lb.total_time
             for phase, t in lb.phase_times.items()},
            title="latency by phase"))
        stats = function_table(trace, device)
        print()
        print(render_function_table(stats, top=10))
        return 0

    if args.command == "list":
        rows = []
        for name in available():
            workload = create(name)
            info = workload.info
            rows.append([name, info.paradigm.value,
                         info.application[:48]])
        print(render_table(["name", "paradigm", "application"], rows,
                           title="registered workloads"))
        return 0

    if args.command == "faults":
        from repro.resilience.runner import ResilientRunner
        device = get_device(args.device)
        # every value FaultSpec refuses was refused while parsing
        plan = FaultPlan([FaultSpec(
            kind=args.fault, rate=args.rate, op_name=args.op_name,
            phase=args.phase, op_index=args.op_index,
            latency=args.latency, alloc_bytes=args.alloc_bytes,
        )], seed=args.seed)
        runner = ResilientRunner(device=device, timeout=args.timeout,
                                 max_retries=args.max_retries)
        outcome = runner.run_workload(args.workload, seed=args.seed,
                                      fault_plan=plan)
        print(f"fault-injection experiment: {args.workload} "
              f"under {args.fault!r} (seed {args.seed})")
        print(plan.describe())
        print()
        if outcome.health is not None:
            print(outcome.health.render())
        if outcome.status == "failed":
            print(f"status: failed after {outcome.attempts} attempt(s) "
                  f"[{outcome.error_class}] -> "
                  f"{outcome.error_type}: {outcome.error}")
            return 3
        if outcome.status == "degraded":
            print(f"status: degraded (quarantined) — {outcome.note}")
            return 2
        print("status: ok — the plan did not compromise this run")
        return 0

    if args.command == "roster":
        from repro.resilience.runner import ResilientRunner, run_roster
        device = get_device(args.device)
        runner = ResilientRunner(device=device, timeout=args.timeout,
                                 max_retries=args.max_retries)
        report = run_roster(names=PAPER_ORDER, runner=runner,
                            seed=args.seed)
        print(report.render())
        return 0 if report.healthy else 1

    device = get_device(args.device)

    if args.command == "characterize":
        report = characterize(create(args.workload, seed=args.seed),
                              device)
        print(report.render())
        print()
        print("task result:", report.result)
        return 0

    trace = create(args.workload, seed=args.seed).profile()

    if args.command == "functions":
        stats = function_table(trace, device, phase=args.phase)
        print(render_function_table(stats, top=args.top))
        return 0

    if args.command == "energy":
        report = estimate_energy(trace, device)
        print(f"{args.workload} on {report.device}:")
        print(f"  latency        {format_time(report.total_time)}")
        print(f"  energy         {report.total_energy * 1e3:.3f} mJ")
        print(f"  average power  {report.average_power:.1f} W")
        for phase, joules in report.energy_by_phase.items():
            print(f"  {phase or 'untagged':<12s}   "
                  f"{joules * 1e3:.3f} mJ")
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
