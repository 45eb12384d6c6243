"""CLI subcommands for the observability layer.

Wired into the main ``repro`` parser by :func:`add_obs_subcommands`:

    python -m repro trace export nvsa --format chrome -o nvsa.json
    python -m repro trace export nvsa --format jsonl -o nvsa.jsonl
    python -m repro trace export nvsa --format flame --weight flops
    python -m repro metrics nvsa --format prom
    python -m repro record nvsa --db runs.jsonl
    python -m repro compare runs.jsonl --last 2
    python -m repro compare baseline.json candidate.json --warn-only
    python -m repro report nvsa --device rtx2080ti -o report.html
    python -m repro report nvsa --history benchmarks/history.jsonl
    python -m repro obs selfprof nvsa --json
    python -m repro obs history record --db benchmarks/history.jsonl
    python -m repro obs history show --db benchmarks/history.jsonl
    python -m repro obs history gate --db benchmarks/history.jsonl

``compare`` exits 0 when the candidate is within thresholds and 4 on
a regression (``--warn-only`` reports but always exits 0), so CI can
gate on drift between commits.  ``report`` writes the self-contained
HTML run report (span timeline, kernel-stats matrix, roofline SVG;
``--history`` adds the longitudinal trend section); ``trace export
--format flame`` writes collapsed stacks for flamegraph.pl /
speedscope.

The ``obs`` group is the dispatch-overhead observatory: ``selfprof``
prints the per-component dispatch ledger and compiled-tier headroom
for one workload, and ``history`` maintains the committed
longitudinal trajectory
(``record`` appends a structured entry, ``show`` renders trends +
change points, ``gate`` exits 6 on a regression beyond per-metric
thresholds).
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

#: exit code for a regression detected by ``repro compare``
EXIT_REGRESSION = 4

OBS_COMMANDS = ("trace", "metrics", "record", "compare", "report",
                "obs")


def add_obs_subcommands(sub: "argparse._SubParsersAction") -> None:
    """Register the observability subcommands on the main parser."""
    trace = sub.add_parser(
        "trace", help="export profiled traces (chrome / jsonl)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="profile a workload (or load a .jsonl trace "
                       "log) and export its timeline")
    from repro.obs.flame import FLAME_WEIGHTS
    export.add_argument("workload",
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
    export.add_argument("--device", default="rtx",
                        help="device for the 'latency' flame weight "
                             "(default rtx)")
    export.add_argument("--group-by-request", action="store_true",
                        help="chrome format: one track per trace id, "
                             "so serving exports read as per-request "
                             "waterfall lanes; jsonl format: spans "
                             "sorted by (trace id, start)")
    export.add_argument("--seed", type=int, default=0)

    metrics = sub.add_parser(
        "metrics",
        help="profile a workload and print its runtime metrics")
    metrics.add_argument("workload", help="registered workload name")
    metrics.add_argument("--format", default="prom",
                         choices=("prom", "json"),
                         help="Prometheus text or JSON snapshot")
    metrics.add_argument("--seed", type=int, default=0)

    record = sub.add_parser(
        "record",
        help="profile a workload and append a run record to the "
             "run database")
    record.add_argument("workload", help="registered workload name")
    record.add_argument("--db", default=None,
                        help="runs database path (default runs.jsonl); "
                             "with -o, write a standalone baseline "
                             "file instead")
    record.add_argument("-o", "--output", default=None,
                        help="write one standalone record JSON here "
                             "(for CI baselines) instead of appending")
    record.add_argument("--device", default="rtx")
    record.add_argument("--seed", type=int, default=0)

    compare = sub.add_parser(
        "compare",
        help="diff two run records and flag regressions "
             f"(exit {EXIT_REGRESSION})")
    compare.add_argument(
        "paths", nargs="*", default=[],
        help="BASELINE CANDIDATE record files, or one runs.jsonl "
             "database (default runs.jsonl)")
    compare.add_argument("--last", type=int, default=2,
                         help="with a single database: compare the "
                              "last N records' endpoints (default 2)")
    compare.add_argument("--threshold", action="append", default=[],
                         metavar="METRIC=FRACTION",
                         help="override a regression threshold "
                              "(repeatable)")
    compare.add_argument("--warn-only", action="store_true",
                         help="report regressions but exit 0")

    report = sub.add_parser(
        "report",
        help="profile a workload and write a self-contained HTML "
             "run report")
    report.add_argument("workload", help="registered workload name")
    report.add_argument("--device", default="rtx",
                        help="device name or alias (default rtx)")
    report.add_argument("-o", "--output", default=None,
                        help="HTML output path "
                             "(default <workload>_report.html)")
    report.add_argument("--baseline", default=None,
                        help="run-record JSON to diff against "
                             "(adds a comparison section)")
    report.add_argument("--history", default=None,
                        help="history.jsonl to render the longitudinal "
                             "perf-trend section from (sparkline per "
                             "metric, change points marked)")
    report.add_argument("--seed", type=int, default=0)

    obs = sub.add_parser(
        "obs",
        help="dispatch-overhead observatory: self-profiling ledger, "
             "longitudinal perf history")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    selfprof = obs_sub.add_parser(
        "selfprof",
        help="profile a workload under the self-profiling ledger and "
             "print the per-component dispatch-overhead rollup")
    selfprof.add_argument("workload", help="registered workload name")
    selfprof.add_argument("--device", default="rtx",
                          help="device for the analytic headroom "
                               "estimate (default rtx)")
    selfprof.add_argument("--seed", type=int, default=0)
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
        "record", help="append a structured perf entry (ledger, "
                       "headroom, plan facts, bench results)")
    h_record.add_argument("--db", default=DEFAULT_HISTORY,
                          help=f"history database "
                               f"(default {DEFAULT_HISTORY})")
    h_record.add_argument("--workloads", default="nvsa,prae",
                          help="comma list to profile "
                               "(default nvsa,prae)")
    h_record.add_argument("--results", default="benchmarks/results",
                          help="structured bench results dir to "
                               "harvest (default benchmarks/results; "
                               "'' to skip)")
    h_record.add_argument("--device", default="rtx")
    h_record.add_argument("--seed", type=int, default=0)
    h_record.add_argument("--label", default="local",
                          help="entry label (e.g. ci)")

    h_show = history_sub.add_parser(
        "show", help="render per-metric trends and change points")
    h_show.add_argument("--db", default=DEFAULT_HISTORY)
    h_show.add_argument("--metric", action="append", default=[],
                        help="restrict to these metrics (repeatable)")

    h_gate = history_sub.add_parser(
        "gate", help="compare the newest entry against the trailing "
                     "median; exit 6 on a regression beyond "
                     "per-metric thresholds")
    h_gate.add_argument("--db", default=DEFAULT_HISTORY)
    h_gate.add_argument("--threshold", action="append", default=[],
                        metavar="METRIC=FRACTION",
                        help="override/add a gate threshold "
                             "(negative fraction: lower is worse; "
                             "'off' ungates; repeatable)")
    h_gate.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")


def _profile(workload: str, seed: int):
    from repro.workloads import available, create
    if workload not in available():
        raise SystemExit(
            f"unknown workload {workload!r}; available: {available()}")
    return create(workload, seed=seed).profile()


def _run_trace(args: argparse.Namespace) -> int:
    import os
    from repro.hwsim.devices import get_device
    from repro.obs.chrome import trace_to_chrome
    from repro.obs.flame import trace_to_flame
    from repro.obs.jsonl import read_jsonl, trace_to_jsonl
    group = getattr(args, "group_by_request", False)
    if args.workload.endswith(".jsonl") and os.path.exists(args.workload):
        # re-export an existing log (e.g. a serving trace) instead of
        # profiling — the path is the trace source
        trace = read_jsonl(args.workload)
    else:
        trace = _profile(args.workload, args.seed)
    if group:
        trace.spans = sorted(
            trace.spans, key=lambda s: (s.trace_id or "", s.start, s.sid))
    if args.format == "chrome":
        payload = trace_to_chrome(trace, group_by_request=group)
        hint = "open in chrome://tracing or Perfetto"
    elif args.format == "jsonl":
        payload = trace_to_jsonl(trace)
        hint = "re-import with repro.obs.jsonl.read_jsonl"
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
    from repro.obs.runrec import load_record
    device = get_device(args.device)
    baseline = load_record(args.baseline) if args.baseline else None
    history = None
    if getattr(args, "history", None):
        from repro.obs.history import load_history
        try:
            history = load_history(args.history)
        except OSError as exc:
            raise SystemExit(f"repro report: {exc}")
    trace = _profile(args.workload, args.seed)
    output = args.output or f"{args.workload}_report.html"
    write_report(trace, output, device=device, baseline=baseline,
                 history=history)
    print(f"wrote {output} ({len(trace)} events, "
          f"{len(trace.spans)} spans; self-contained HTML — open in "
          "any browser)")
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs.prom import render_runtime
    with obs_metrics.scoped_runtime() as runtime:
        _profile(args.workload, args.seed)
        if args.format == "json":
            print(json.dumps(runtime.registry.snapshot(), indent=1,
                             sort_keys=True))
        else:
            print(render_runtime(runtime), end="")
    return 0


def _run_record(args: argparse.Namespace) -> int:
    from repro.hwsim.devices import get_device
    from repro.obs.runrec import (DEFAULT_DB, append_record,
                                  record_from_trace, save_record)
    device = get_device(args.device)
    trace = _profile(args.workload, args.seed)
    record = record_from_trace(trace, device=device)
    if args.output:
        save_record(record, args.output)
        print(f"wrote baseline record {args.output} ({record.label()})")
    else:
        db = args.db or DEFAULT_DB
        append_record(record, db)
        print(f"appended {record.label()} to {db}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from repro.obs.compare import compare_records, parse_threshold_overrides
    from repro.obs.runrec import DEFAULT_DB, load_record, load_records
    try:
        thresholds = parse_threshold_overrides(args.threshold)
    except ValueError as exc:
        raise SystemExit(f"repro compare: {exc}")
    paths = list(args.paths)
    if len(paths) == 2:
        base = load_record(paths[0])
        cand = load_record(paths[1])
    elif len(paths) <= 1:
        db = paths[0] if paths else DEFAULT_DB
        try:
            records = load_records(db)
        except OSError as exc:
            raise SystemExit(f"repro compare: {exc}")
        window = records[-max(2, args.last):]
        if len(window) < 2:
            raise SystemExit(
                f"repro compare: {db} holds {len(records)} record(s); "
                "need at least 2")
        base, cand = window[0], window[-1]
    else:
        raise SystemExit("repro compare: expected BASELINE CANDIDATE "
                         "or a single runs.jsonl database")
    report = compare_records(base, cand, thresholds)
    print(report.render())
    if report.ok:
        return 0
    if args.warn_only:
        print(f"\nwarn-only: {len(report.regressions)} regression(s) "
              "ignored")
        return 0
    return EXIT_REGRESSION


def _run_selfprof(args: argparse.Namespace) -> int:
    from repro.core.analysis import latency_breakdown
    from repro.hwsim.devices import get_device
    from repro.obs import selfprof
    device = get_device(args.device)
    with selfprof.scoped_ledger() as ledger:
        trace = _profile(args.workload, args.seed)
    projected = latency_breakdown(trace, device).total_time
    if args.json:
        doc = ledger.to_dict()
        doc["deterministic"]["modeled_headroom_pct"] = round(  # type: ignore[index]
            100.0 * ledger.modeled_headroom(projected), 6)
        doc["digest"] = ledger.digest()
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(ledger.render())
        print(f"compiled-tier headroom "
              f"{100.0 * ledger.modeled_headroom(projected):.1f}% of "
              f"projected {device.name} latency (modeled overhead vs "
              f"analytic kernel projection; deterministic)")
        print(f"ledger digest {ledger.digest()[:16]}")
    return 0


def _run_history(args: argparse.Namespace) -> int:
    from repro.obs.history import (EXIT_TREND_REGRESSION, append_entry,
                                   detect_regressions, entry_from_sources,
                                   load_history, parse_policy_overrides,
                                   render_history)
    if args.history_command == "record":
        workloads = tuple(w.strip() for w in args.workloads.split(",")
                          if w.strip())
        from repro.hwsim.devices import get_device
        entry = entry_from_sources(
            workloads=workloads,
            results_dir=args.results or None,
            device=get_device(args.device),
            seed=args.seed, label=args.label)
        append_entry(entry, args.db)
        print(f"appended entry {entry.digest()[:16]} "
              f"({len(entry.metrics)} metrics, label={entry.label}) "
              f"to {args.db}")
        return 0
    try:
        entries = load_history(args.db)
    except OSError as exc:
        raise SystemExit(f"repro obs history: {exc}")
    if args.history_command == "show":
        print(render_history(entries, args.metric or None))
        return 0
    # gate
    try:
        overrides = parse_policy_overrides(args.threshold)
    except ValueError as exc:
        raise SystemExit(f"repro obs history gate: {exc}")
    if len(entries) < 2:
        print(f"history gate: {len(entries)} entry(ies) in {args.db}; "
              "nothing to gate against")
        return 0
    regressions = detect_regressions(entries, overrides)
    gated = sum(1 for m in entries[-1].metrics
                if _gated(m, overrides))
    if not regressions:
        print(f"history gate: OK — newest entry within budget on "
              f"{gated} gated metric(s) "
              f"(vs median of up to {min(len(entries) - 1, 5)} "
              f"prior entries)")
        return 0
    for regression in regressions:
        print(regression.render())
    print(f"\nhistory gate: {len(regressions)} regression(s) "
          f"across {gated} gated metric(s)")
    if args.warn_only:
        print("warn-only: exiting 0")
        return 0
    return EXIT_TREND_REGRESSION


def _gated(metric: str, overrides) -> bool:
    from repro.obs.history import policy_for
    return policy_for(metric, overrides).threshold is not None


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
    if args.command == "record":
        return _run_record(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "obs":
        return _run_obs(args)
    return None
