"""``repro compile`` — build, run, and diff compiled plans.

::

    repro compile build nvsa --seed 0 -o nvsa_plan.json
    repro compile run nvsa --plan nvsa_plan.json
    repro compile diff prae --seed 0

``build`` captures one instrumented eager run and writes/prints the
plan.  ``run`` replays a plan (loading it, or capturing one on the
spot) and prints the executor's stats.  ``diff`` is the bit-exactness
gate: one eager run vs one compiled replay, compared on counter
digests, per-event deterministic fields, and result metadata.

Exit codes: 0 clean; **7** when ``diff`` finds a divergence, or when a
plan is refused (:class:`~repro.compile.plan.PlanError`: unreadable,
malformed, another version, or diverging during replay) — reported
in one line, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_PLAN_DIVERGENCE = 7


def add_compile_subcommands(sub: "argparse._SubParsersAction") -> None:
    compile_cmd = sub.add_parser(
        "compile",
        help="capture an op graph once, replay it bit-exactly with "
             "the captured counters")
    inner = compile_cmd.add_subparsers(dest="compile_command",
                                       required=True)

    build = inner.add_parser(
        "build", help="capture one eager run into a plan")
    build.add_argument("workload", help="registered workload name")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("-o", "--output", default=None,
                       help="write the serialized plan JSON here")

    run = inner.add_parser(
        "run", help="execute a workload through a compiled plan")
    run.add_argument("workload", help="registered workload name")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--plan", default=None,
                     help="plan JSON from `compile build` "
                          "(default: capture a fresh plan first)")

    diff = inner.add_parser(
        "diff", help="bit-exactness check: eager vs compiled replay")
    diff.add_argument("workload", help="registered workload name")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--plan", default=None,
                      help="replay this plan JSON instead of capturing")
    diff.add_argument("--json", action="store_true",
                      help="print the comparison as JSON")


def _load_or_capture(args: "argparse.Namespace"):
    from repro.compile.capture import capture_plan
    from repro.compile.plan import CompiledPlan
    from repro.workloads import create
    if args.plan:
        return CompiledPlan.load(args.plan)
    return capture_plan(create(args.workload, seed=args.seed))


def run_compile_command(args: "argparse.Namespace") -> int:
    from repro.compile.plan import PlanError
    try:
        return _run(args)
    except PlanError as exc:
        print(f"repro compile {args.compile_command}: {exc}",
              file=sys.stderr)
        return EXIT_PLAN_DIVERGENCE


def _run(args: "argparse.Namespace") -> int:
    from repro.workloads import create

    if args.compile_command == "build":
        from repro.compile.capture import capture_plan
        plan = capture_plan(create(args.workload, seed=args.seed))
        print(plan.render())
        if args.output:
            plan.save(args.output)
            print(f"plan -> {args.output}", file=sys.stderr)
        return 0

    if args.compile_command == "run":
        from repro.compile.executor import execute
        plan = _load_or_capture(args)
        trace, stats = execute(create(args.workload, seed=args.seed), plan)
        print(f"compiled run: {args.workload} seed {args.seed} — "
              f"{len(trace.events)} events, {stats.steps_replayed} "
              "kernels run against the plan")
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.compile_command == "diff":
        from repro.compile.executor import diff_against_eager, run_compiled
        plan = _load_or_capture(args)
        eager = create(args.workload, seed=args.seed).profile()
        compiled = run_compiled(create(args.workload, seed=args.seed), plan)
        comparison = diff_against_eager(eager, compiled)
        if args.json:
            print(json.dumps(comparison, indent=2, sort_keys=True))
        else:
            verdict = ("bit-exact" if comparison["bit_exact"]
                       else "DIVERGENT")
            print(f"{args.workload} seed {args.seed}: {verdict} — "
                  f"{comparison['events']} events, counters "
                  f"{comparison['eager_counters_digest'][:16]}… vs "
                  f"{comparison['compiled_counters_digest'][:16]}…")
            for mismatch in comparison["mismatches"]:
                print(f"  mismatch: {mismatch}")
        return 0 if comparison["bit_exact"] else EXIT_PLAN_DIVERGENCE

    raise SystemExit(
        f"unhandled compile command {args.compile_command!r}")
