"""``repro compile diff`` — the replay bit-exactness check.

::

    repro compile diff prae --seed 0 [--json]

``diff`` profiles the workload eagerly, replays a fresh instance
against that eager trace, and compares the two on counter digests,
per-event deterministic fields, and result metadata.

Exit codes: 0 bit-exact; **7** on a divergence, or when the replay
refuses the plan (:class:`~repro.compile.plan.PlanError`) — reported
in one line, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.argtypes import NON_NEGATIVE_INT

EXIT_PLAN_DIVERGENCE = 7


def add_compile_subcommands(sub: "argparse._SubParsersAction") -> None:
    compile_cmd = sub.add_parser(
        "compile",
        help="replay a workload against its own eager trace, "
             "bit-exactly")
    inner = compile_cmd.add_subparsers(dest="compile_command",
                                       required=True)
    diff = inner.add_parser(
        "diff", help="bit-exactness check: eager vs replay of its trace")
    from repro.workloads import workload_arg
    diff.add_argument("workload", type=workload_arg,
                      help="registered workload name")
    diff.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    diff.add_argument("--json", action="store_true",
                      help="print the comparison as JSON")


def run_compile_command(args: "argparse.Namespace") -> int:
    from repro.compile.executor import diff_against_eager, replay
    from repro.compile.plan import PlanError
    from repro.workloads import create

    eager = create(args.workload, seed=args.seed).profile()
    try:
        replayed = replay(create(args.workload, seed=args.seed), eager)
    except PlanError as exc:
        print(f"repro compile diff: {exc}", file=sys.stderr)
        return EXIT_PLAN_DIVERGENCE
    comparison = diff_against_eager(eager, replayed)
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    else:
        verdict = "bit-exact" if comparison["bit_exact"] else "DIVERGENT"
        print(f"{args.workload} seed {args.seed}: {verdict} — "
              f"{comparison['events']} events, counters "
              f"{comparison['eager_counters_digest'][:16]}… vs "
              f"{comparison['replayed_counters_digest'][:16]}…")
        for mismatch in comparison["mismatches"]:
            print(f"  mismatch: {mismatch}")
    return 0 if comparison["bit_exact"] else EXIT_PLAN_DIVERGENCE
