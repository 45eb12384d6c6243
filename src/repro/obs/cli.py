"""CLI subcommands for the observability layer.

Wired into the main ``repro`` parser by :func:`add_obs_subcommands`:

    python -m repro trace export nvsa --format chrome -o nvsa.json
    python -m repro trace export nvsa --format jsonl -o nvsa.jsonl
    python -m repro trace export nvsa --format flame --weight flops
    python -m repro metrics nvsa --format prom
    python -m repro report nvsa --device rtx2080ti -o report.html
    python -m repro report nvsa --history benchmarks/history.jsonl
    python -m repro obs selfprof nvsa --json
    python -m repro obs history record --db benchmarks/history.jsonl
    python -m repro obs history show --db benchmarks/history.jsonl
    python -m repro obs history gate --db benchmarks/history.jsonl

``report`` writes the self-contained HTML run report (span timeline,
kernel-stats matrix, roofline SVG; ``--history`` adds the
longitudinal trend section with the gate's pin verdict); ``trace
export --format flame`` writes collapsed stacks for flamegraph.pl /
speedscope.

The ``obs`` group is the dispatch-overhead observatory: ``selfprof``
prints the measured per-component dispatch ledger of one workload,
and ``history`` maintains the committed regression
store (``record`` appends an entry of exact pins and trend metrics,
``show`` renders trends + change points, ``gate`` exits 6 when the
newest entry's pins differ from the previous pinned entry's).  A
malformed history file exits 1 with a one-line ``file:line`` error.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.argtypes import NON_NEGATIVE_INT
from repro.core.profiler import Trace
from repro.workloads import create, workload_arg

OBS_COMMANDS = ("trace", "metrics", "report", "obs")


def _trace_source(value: str) -> str:
    """``trace export``'s positional: a ``.jsonl`` trace log path (read
    when the verb runs), else a registered workload
    (:func:`workload_arg`)."""
    return value if value.endswith(".jsonl") else workload_arg(value)


def read_trace_log(path: str, verb: str) -> Trace:
    """Load a JSONL trace log for ``repro VERB``: an unreadable or
    malformed log exits 1 with one line naming the path (and the bad
    line), never a traceback."""
    from repro.obs.jsonl import read_jsonl
    try:
        return read_jsonl(path)
    except OSError as exc:
        raise SystemExit(f"repro {verb}: {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise SystemExit(f"repro {verb}: {path}: {exc}")


def add_obs_subcommands(sub: "argparse._SubParsersAction") -> None:
    """Register the observability subcommands on the main parser."""
    trace = sub.add_parser(
        "trace", help="export profiled traces (chrome / jsonl)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="profile a workload (or load a .jsonl trace "
                       "log) and export its timeline")
    from repro.hwsim.devices import device_arg
    from repro.obs.flame import FLAME_WEIGHTS
    export.add_argument("workload", type=_trace_source,
                        help="registered workload name, or a path to "
                             "an existing .jsonl trace log (e.g. from "
                             "repro serve bench --trace-jsonl)")
    export.add_argument("--format", default="chrome",
                        choices=("chrome", "jsonl", "flame"),
                        help="output format (default chrome)")
    export.add_argument("-o", "--output", default=None,
                        help="output path (default stdout)")
    export.add_argument("--weight", default="wall",
                        choices=FLAME_WEIGHTS,
                        help="flame stack weight lens (flame format "
                             "only; default wall)")
    export.add_argument("--device", default="rtx", type=device_arg,
                        help="device for the 'latency' flame weight "
                             "(default rtx)")
    export.add_argument("--group-by-request", action="store_true",
                        help="chrome format: one track per trace id, "
                             "so serving exports read as per-request "
                             "waterfall lanes; jsonl format: spans "
                             "sorted by (trace id, start)")
    export.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)

    metrics = sub.add_parser(
        "metrics",
        help="profile a workload and print the op metrics folded "
             "from its trace")
    metrics.add_argument("workload", type=workload_arg,
                         help="registered workload name")
    metrics.add_argument("--format", default="prom",
                         choices=("prom", "json"),
                         help="Prometheus text or JSON snapshot")
    metrics.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)

    report = sub.add_parser(
        "report",
        help="profile a workload and write a self-contained HTML "
             "run report")
    report.add_argument("workload", type=workload_arg,
                        help="registered workload name")
    report.add_argument("--device", default="rtx", type=device_arg,
                        help="device name or alias (default rtx)")
    report.add_argument("-o", "--output", default=None,
                        help="HTML output path "
                             "(default <workload>_report.html)")
    report.add_argument("--history", default=None,
                        help="history.jsonl to render the longitudinal "
                             "perf-trend section from (pin verdict, "
                             "sparkline per metric, change points "
                             "marked)")
    report.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)

    obs = sub.add_parser(
        "obs",
        help="dispatch-overhead observatory: self-profiling ledger, "
             "longitudinal perf history")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    selfprof = obs_sub.add_parser(
        "selfprof",
        help="profile a workload under the self-profiling ledger and "
             "print the per-component dispatch-overhead rollup")
    selfprof.add_argument("workload", type=workload_arg,
                          help="registered workload name")
    selfprof.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    selfprof.add_argument("--json", action="store_true",
                          help="print the full ledger as JSON "
                               "(deterministic + measured splits)")

    history = obs_sub.add_parser(
        "history",
        help="longitudinal perf history: record / show / gate")
    history_sub = history.add_subparsers(dest="history_command",
                                         required=True)
    from repro.obs.history import DEFAULT_HISTORY

    h_record = history_sub.add_parser(
        "record", help="append an entry: exact pins of the fixed "
                       "roster and serve schedule, plus trend metrics "
                       "(op counts, plan steps, bench results)")
    h_record.add_argument("--db", default=DEFAULT_HISTORY,
                          help=f"history database "
                               f"(default {DEFAULT_HISTORY})")
    h_record.add_argument("--results", default="benchmarks/results",
                          help="structured bench results dir to "
                               "harvest (default benchmarks/results; "
                               "'' to skip)")
    h_record.add_argument("--label", default="local",
                          help="entry label (e.g. ci)")

    h_show = history_sub.add_parser(
        "show", help="render per-metric trends and change points")
    h_show.add_argument("--db", default=DEFAULT_HISTORY)
    h_show.add_argument("--metric", action="append", default=[],
                        help="restrict to these metrics (repeatable)")

    h_gate = history_sub.add_parser(
        "gate", help="compare the newest entry's pins with the "
                     "previous pinned entry; exit 6 on any mismatch")
    h_gate.add_argument("--db", default=DEFAULT_HISTORY)


def _run_trace(args: argparse.Namespace) -> int:
    from repro.hwsim.devices import get_device
    from repro.obs.chrome import trace_to_chrome
    from repro.obs.flame import trace_to_flame
    from repro.obs.jsonl import trace_to_jsonl
    group = getattr(args, "group_by_request", False)
    if args.workload.endswith(".jsonl"):
        # re-export an existing log (e.g. a serving trace) instead of
        # profiling — the path is the trace source
        trace = read_trace_log(args.workload, "trace export")
    else:
        trace = create(args.workload, seed=args.seed).profile()
    if group:
        trace.spans = sorted(
            trace.spans, key=lambda s: (s.trace_id or "", s.start, s.sid))
    if args.format == "chrome":
        payload = trace_to_chrome(trace, group_by_request=group)
        hint = "open in chrome://tracing or Perfetto"
    elif args.format == "jsonl":
        payload = trace_to_jsonl(trace)
        hint = "re-analyze with repro analyze-trace"
    else:
        payload = trace_to_flame(trace, weight=args.weight,
                                 device=get_device(args.device))
        hint = ("collapsed stacks; render with flamegraph.pl or "
                "load into speedscope")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload)
        print(f"wrote {args.output} ({len(trace)} events, "
              f"{len(trace.spans)} spans; {hint})")
    else:
        print(payload, end="")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.hwsim.devices import get_device
    from repro.obs.report import write_report
    device = get_device(args.device)
    history = None
    if args.history:
        from repro.obs.history import HistoryError, load_history
        try:
            history = load_history(args.history)
        except (OSError, HistoryError) as exc:
            raise SystemExit(f"repro report: {exc}")
    trace = create(args.workload, seed=args.seed).profile()
    output = args.output or f"{args.workload}_report.html"
    write_report(trace, output, device=device, history=history)
    print(f"wrote {output} ({len(trace)} events, "
          f"{len(trace.spans)} spans; self-contained HTML — open in "
          "any browser)")
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import fold_trace, render_json, render_prometheus
    render = render_json if args.format == "json" else render_prometheus
    families = fold_trace(create(args.workload, seed=args.seed)
                          .profile())
    print(render(families), end="")
    return 0


def _run_selfprof(args: argparse.Namespace) -> int:
    from repro.obs import selfprof
    with selfprof.scoped_ledger() as ledger:
        create(args.workload, seed=args.seed).profile()
    if args.json:
        print(json.dumps(ledger.to_dict(), indent=1, sort_keys=True))
    else:
        print(ledger.render())
    return 0


def _run_history(args: argparse.Namespace) -> int:
    from repro.obs.history import (EXIT_PIN_MISMATCH, HistoryError,
                                   append_entry, check_pins,
                                   entry_from_sources, load_history,
                                   render_history)
    if args.history_command == "record":
        try:
            open(args.db, "a").close()      # before the pinning work
        except OSError as exc:
            raise SystemExit(f"repro obs history: {exc}")
        entry = entry_from_sources(results_dir=args.results or None,
                                   label=args.label)
        append_entry(entry, args.db)
        print(f"appended entry {entry.digest()[:16]} "
              f"({len(entry.pins)} pins, {len(entry.metrics)} metrics, "
              f"label={entry.label}) to {args.db}")
        return 0
    try:
        entries = load_history(args.db)
    except (OSError, HistoryError) as exc:
        raise SystemExit(f"repro obs history: {exc}")
    if args.history_command == "show":
        print(render_history(entries, args.metric or None))
        return 0
    verdict = check_pins(entries)
    print(verdict.render())
    return 0 if verdict.ok else EXIT_PIN_MISMATCH


def _run_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "selfprof":
        return _run_selfprof(args)
    return _run_history(args)


def run_obs_command(args: argparse.Namespace) -> Optional[int]:
    """Handle an observability subcommand; ``None`` if not ours."""
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "obs":
        return _run_obs(args)
    return None
