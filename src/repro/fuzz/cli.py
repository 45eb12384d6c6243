"""``repro fuzz`` — run campaigns, replay the corpus, inspect rules.

Exit codes:

* ``fuzz run``    — 0 clean, **5** when divergences were found (the
  corpus, if a path was given, holds the repros);
* ``fuzz replay`` — 0 when every corpus entry still reproduces, 1
  when at least one no longer fails (fixed or flaky);
* ``fuzz rules``  — always 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import Tuple

from repro.argtypes import NON_NEGATIVE_INT, checked
from repro.workloads import workload_arg

EXIT_DIVERGENCE = 5

#: ``--max-ops``: a generated program has at least three ops
_MAX_OPS = checked(int, lambda v: v >= 3, "an integer >= 3")


def _harvest_arg(text: str) -> Tuple[str, ...]:
    """The argparse ``type=`` of ``--harvest``: its comma-separated
    names, each a registered workload (:func:`workload_arg`)."""
    return tuple(workload_arg(name.strip()) for name in text.split(",")
                 if name.strip())


def add_fuzz_subcommands(sub: "argparse._SubParsersAction") -> None:
    fuzz = sub.add_parser(
        "fuzz",
        help="operator-rule-inference fuzzing with differential "
             "execution checking")
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    run = fsub.add_parser(
        "run", help="infer rules, then fuzz programs/chaos/configs")
    run.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    run.add_argument("--count", type=NON_NEGATIVE_INT, default=50,
                     help="generated op programs to check (default 50)")
    run.add_argument("--max-ops", type=_MAX_OPS, default=12,
                     help="max ops per generated program")
    run.add_argument("--harvest", type=_harvest_arg, default=None,
                     help="comma-separated workloads to harvest "
                          "(default: lnn,nvsa)")
    run.add_argument("--chaos", type=NON_NEGATIVE_INT, default=0,
                     help="seeded serve chaos schedules to run")
    run.add_argument("--configs", type=NON_NEGATIVE_INT, default=0,
                     help="boundary workload configs to harvest")
    run.add_argument("--rules", default=None,
                     help="load rules from this JSON instead of "
                          "harvesting")
    run.add_argument("--corpus", default=None,
                     help="write failing cases to this JSONL path")
    run.add_argument("--no-minimize", action="store_true",
                     help="skip crash minimization")

    replay = fsub.add_parser(
        "replay", help="re-execute corpus entries; do they still fail?")
    replay.add_argument("corpus", help="crash corpus JSONL path")
    replay.add_argument("--entry", type=int, default=None,
                        help="replay only this entry index")
    replay.add_argument("--rules", default=None,
                        help="rule-set JSON for program entries "
                             "(default: re-infer)")

    rules_cmd = fsub.add_parser(
        "rules", help="infer transfer rules and print/save them")
    rules_cmd.add_argument("--harvest", type=_harvest_arg, default=None,
                           help="comma-separated workloads "
                                "(default: lnn,nvsa)")
    rules_cmd.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    rules_cmd.add_argument("--no-calibrate", action="store_true",
                           help="infer from the workload harvest only")
    rules_cmd.add_argument("--format", choices=("text", "json"),
                           default="text")
    rules_cmd.add_argument("-o", "--output", default=None,
                           help="write the rule set JSON here")


def run_fuzz_command(args: "argparse.Namespace") -> int:
    from repro.fuzz.oracle import build_ruleset
    from repro.fuzz.rules import RuleSet

    if args.fuzz_command == "run":
        from repro.fuzz.corpus import save_corpus
        from repro.fuzz.runner import fuzz_run
        rules = RuleSet.load(args.rules) if args.rules else None
        report = fuzz_run(
            seed=args.seed, count=args.count, max_ops=args.max_ops,
            harvest=args.harvest or None, chaos=args.chaos,
            configs=args.configs, rules=rules,
            minimize=not args.no_minimize)
        print(report.render())
        if args.corpus and report.entries:
            save_corpus(report.entries, args.corpus)
            print(f"wrote {len(report.entries)} repro(s) to "
                  f"{args.corpus}; replay with: "
                  f"python -m repro fuzz replay {args.corpus}")
        return 0 if report.ok else EXIT_DIVERGENCE

    if args.fuzz_command == "replay":
        from repro.fuzz.corpus import KIND_PROGRAM, load_corpus, replay_entry
        try:
            entries = load_corpus(args.corpus)
        except (OSError, ValueError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"repro fuzz replay: error: argument corpus: cannot "
                  f"load {args.corpus!r}: {reason}", file=sys.stderr)
            return 2
        if args.entry is not None:
            if not 0 <= args.entry < len(entries):
                raise SystemExit(
                    f"entry {args.entry} out of range "
                    f"(corpus has {len(entries)})")
            entries = [entries[args.entry]]
        rules = None
        if any(entry.kind == KIND_PROGRAM for entry in entries):
            rules = (RuleSet.load(args.rules) if args.rules
                     else build_ruleset())
        stale = 0
        for index, entry in enumerate(entries):
            result = replay_entry(entry, rules)
            verdict = "REPRODUCED" if result.reproduced else "clean"
            print(f"[{index}] {entry.kind} seed {entry.seed}: "
                  f"{verdict} — {result.detail}")
            if not result.reproduced:
                stale += 1
        print(f"{len(entries) - stale}/{len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'} still reproduce")
        return 0 if stale == 0 else 1

    if args.fuzz_command == "rules":
        ruleset = build_ruleset(args.harvest or None,
                                seed=args.seed,
                                calibrate=not args.no_calibrate)
        if args.output:
            ruleset.save(args.output)
            print(f"wrote {len(ruleset)} rules to {args.output}")
        if args.format == "json":
            print(ruleset.to_json())
        else:
            print(ruleset.render())
        return 0

    raise SystemExit(f"unhandled fuzz command {args.fuzz_command!r}")
