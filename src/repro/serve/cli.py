"""``repro serve`` — serving benchmark and schedule replay verbs.

::

    repro serve bench --workers 2 --mix nvsa=3,lnn=1 --duration 10
    repro serve bench --rate 200 --queue-depth 64 -o stats.json
    repro serve bench --save-schedule sched.jsonl
    repro serve replay sched.jsonl --workers 4 --device rtx,xeon
    repro serve replay sched.jsonl --realtime

``bench`` generates a seeded open-loop schedule and serves it in the
deterministic virtual-time mode (same seed + flags → identical
``deterministic`` stats section; wall-clock figures live in the
separate ``measured`` section).  ``--loop closed`` instead drives the
live server with synchronous client threads — a concurrency exercise,
not a reproducible measurement.  ``replay`` re-serves a saved
schedule, optionally in live wall-clock mode (``--realtime``).

Exit codes: 0 on success, 2 if any request *failed* (degraded and
rejected requests are expected under load and do not fail the verb).
A bad flag value, an unreadable schedule, or an output a live run
cannot write is a usage error: exit 2 with one stderr line naming the
flag and its value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, Dict, Optional

from repro.hwsim.devices import device_arg, get_device, parse_device_list
from repro.serve.batcher import BatchPolicy
from repro.serve.loadgen import (LoadSpec, load_schedule, open_loop,
                                 parse_mix, run_closed_loop,
                                 save_schedule)
from repro.serve.request import STATUS_FAILED
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.stats import ServerStats
from repro.workloads import available

SERVE_COMMANDS = ("serve",)


class _OneLineErrors(argparse.ArgumentParser):
    """A serve verb's parser: a usage error is one stderr line (exit 2),
    without the verb's long usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(kind: Callable[[str], float], accept: Callable[[float], bool],
             expected: str) -> Callable[[str], float]:
    """An argparse ``type=``: ``kind(text)`` when it is finite and
    ``accept`` holds, else a usage error naming ``expected``."""
    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(
                f"must be {expected}, got {text!r}")
        return value
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_RETRIES = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _checked(float, lambda v: v > 0, "a finite number > 0")
_WAIT = _checked(float, lambda v: v >= 0, "a finite number >= 0")
_RATIO = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _mix_arg(text: str) -> str:
    """The argparse ``type=`` of ``--mix``: ``text`` once
    :func:`parse_mix` accepts it and it names only registered
    workloads."""
    try:
        names = parse_mix(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    unknown = [name for name in names if name not in available()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload {unknown[0]!r}; available: {available()}")
    return text


def _add_server_flags(cmd: "argparse.ArgumentParser") -> None:
    cmd.add_argument("--workers", type=_COUNT, default=2,
                     help="worker threads (default 2)")
    cmd.add_argument("--device", default="rtx",
                     type=functools.partial(device_arg, many=True),
                     help="comma-separated devices, cycled across "
                          "workers (default rtx)")
    cmd.add_argument("--max-batch", type=_COUNT, default=16,
                     help="dynamic batching size cap (default 16)")
    cmd.add_argument("--max-wait-ms", type=_WAIT, default=50.0,
                     help="max ms a planned batch stays open (default "
                          "50); virtual-time planning only (bench "
                          "--loop open, replay without --realtime): "
                          "live workers batch whatever is queued "
                          "when they go idle")
    cmd.add_argument("--queue-depth", type=_COUNT, default=256,
                     help="admission bound; excess load is shed "
                          "(default 256)")
    cmd.add_argument("--cache-capacity", type=_COUNT, default=32,
                     help="artifact cache entries (default 32)")
    cmd.add_argument("--timeout", type=_POSITIVE, default=None,
                     help="per-attempt wall budget in seconds "
                          "(default none)")
    cmd.add_argument("--max-retries", type=_RETRIES, default=1,
                     help="retries per batch on transient errors "
                          "(default 1)")
    cmd.add_argument("-o", "--output", default=None,
                     help="write the stats summary JSON here")
    cmd.add_argument("--report", default=None,
                     help="write an HTML run report (with serving "
                          "spans and per-request waterfalls) here")
    cmd.add_argument("--live-snapshots", default=None,
                     help="attach live telemetry and write its "
                          "snapshots/alerts/tail-samples JSONL here")
    cmd.add_argument("--snapshot-interval", type=_POSITIVE, default=1.0,
                     help="live-telemetry snapshot period in seconds "
                          "(default 1.0)")
    cmd.add_argument("--sample-ratio", type=_RATIO, default=0.05,
                     help="tail-sampling keep ratio for healthy "
                          "requests (default 0.05)")
    cmd.add_argument("--trace-jsonl", default=None,
                     help="export the serving span trees (worker spans "
                          "+ per-request lifecycle trees) as JSONL here")


def add_serve_subcommands(sub: "argparse._SubParsersAction") -> None:
    """Register the ``serve`` verb on the main parser."""
    serve = sub.add_parser(
        "serve",
        help="batched concurrent inference serving: bench a seeded "
             "load or replay a saved schedule")
    inner = serve.add_subparsers(dest="serve_command", required=True,
                                 parser_class=_OneLineErrors)

    bench = inner.add_parser(
        "bench", help="serve a deterministic seeded open-loop load")
    bench.add_argument("--mix", default="nvsa=3,lnn=1", type=_mix_arg,
                       help="workload mix, e.g. nvsa=3,lnn=1 "
                            "(default nvsa=3,lnn=1)")
    bench.add_argument("--rate", type=_POSITIVE, default=100.0,
                       help="mean arrivals/second (default 100)")
    bench.add_argument("--duration", type=_POSITIVE, default=10.0,
                       help="schedule horizon in virtual seconds "
                            "(default 10)")
    bench.add_argument("--seed", type=int, default=0,
                       help="arrival-process seed (default 0)")
    bench.add_argument("--deadline-ms", type=_POSITIVE, default=None,
                       help="per-request SLO budget in ms (default none)")
    bench.add_argument("--seed-pool", type=_COUNT, default=1,
                       help="distinct workload seeds -> batch keys per "
                            "workload (default 1)")
    bench.add_argument("--loop", choices=("open", "closed"),
                       default="open",
                       help="open = deterministic schedule mode; "
                            "closed = live client threads (not "
                            "deterministic)")
    bench.add_argument("--clients", type=_COUNT, default=4,
                       help="closed-loop client threads (default 4)")
    bench.add_argument("--requests-per-client", type=_COUNT, default=8,
                       help="closed-loop requests per client (default 8)")
    bench.add_argument("--save-schedule", default=None,
                       help="also write the generated schedule JSONL")
    _add_server_flags(bench)

    replay = inner.add_parser(
        "replay", help="re-serve a schedule saved by bench")
    replay.add_argument("schedule", help="schedule JSONL path")
    replay.add_argument("--realtime", action="store_true",
                        help="serve on the wall clock through the live "
                             "pipeline instead of virtual time")
    _add_server_flags(replay)


def _config_from_args(args: "argparse.Namespace") -> ServeConfig:
    return ServeConfig(
        workers=args.workers,
        devices=tuple(parse_device_list(args.device)),
        max_depth=args.queue_depth,
        batch=BatchPolicy(max_batch_size=args.max_batch,
                          max_wait=args.max_wait_ms / 1000.0),
        cache_capacity=args.cache_capacity,
        timeout=args.timeout,
        max_retries=args.max_retries,
    )


def _telemetry_from_args(args: "argparse.Namespace"):
    """A LiveTelemetry sink when ``--live-snapshots`` asked for one."""
    if not args.live_snapshots:
        return None
    from repro.obs.live import LiveTelemetry
    return LiveTelemetry(seed=getattr(args, "seed", 0),
                         healthy_ratio=args.sample_ratio,
                         snapshot_interval=args.snapshot_interval)


def _emit_telemetry(args: "argparse.Namespace", telemetry) -> None:
    if telemetry is None or not args.live_snapshots:
        return
    telemetry.write_jsonl(args.live_snapshots)
    print(f"live telemetry ({len(telemetry.snapshots)} snapshots, "
          f"{len(telemetry.samples)} tail samples, "
          f"{len(telemetry.alerts)} alerts) -> {args.live_snapshots}",
          file=sys.stderr)


def _emit_trace_jsonl(args: "argparse.Namespace", result) -> None:
    if not getattr(args, "trace_jsonl", None):
        return
    from repro.obs.jsonl import write_jsonl
    from repro.serve.tracing import serve_trace
    trace = serve_trace(result)
    write_jsonl(trace, args.trace_jsonl)
    print(f"serve trace ({len(trace.spans)} spans) -> {args.trace_jsonl}",
          file=sys.stderr)


def _emit(args: "argparse.Namespace", stats: ServerStats,
          meta: Dict[str, object], report_trace=None) -> None:
    print(stats.render())
    if args.output:
        payload = {"meta": meta}
        payload.update(stats.summary())
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"stats -> {args.output}", file=sys.stderr)
    if args.report:
        if report_trace is None:
            print("no executed batch to report on", file=sys.stderr)
        else:
            from repro.obs.report import write_report
            write_report(report_trace, args.report,
                         device=get_device(args.device.split(",")[0]))
            print(f"report -> {args.report}", file=sys.stderr)


def _exit_code(stats: ServerStats) -> int:
    failed = sum(int(v) for key, v in stats.requests.samples()
                 if key[1] == STATUS_FAILED)
    return 2 if failed else 0


def _usage_error(args: "argparse.Namespace", message: str) -> int:
    """Report a usage error as the verb's parser does: one stderr
    line, exit 2."""
    print(f"repro serve {args.serve_command}: error: {message}",
          file=sys.stderr)
    return 2


def run_serve_command(args: "argparse.Namespace") -> Optional[int]:
    if args.command not in SERVE_COMMANDS:
        return None
    # a live run keeps no batch results to report or trace, and a
    # closed loop has no schedule to save
    live = ("--loop closed" if getattr(args, "loop", "") == "closed" else
            "--realtime" if getattr(args, "realtime", False) else None)
    for dest in ("report", "trace_jsonl", "save_schedule"):
        value = getattr(args, dest, None)
        if live and value:
            return _usage_error(
                args, f"argument --{dest.replace('_', '-')}: nothing to "
                      f"write to {value!r}: a {live} run keeps no batch "
                      f"results or schedule")
    config = _config_from_args(args)

    if args.serve_command == "bench":
        spec = LoadSpec.make(
            parse_mix(args.mix), rate=args.rate, duration=args.duration,
            seed=args.seed,
            deadline=(None if args.deadline_ms is None
                      else args.deadline_ms / 1000.0),
            seed_pool=args.seed_pool)
        telemetry = _telemetry_from_args(args)
        if args.loop == "closed":
            server = InferenceServer(config)
            if telemetry is not None:
                server.attach_telemetry(telemetry)
            server.start()
            t0 = time.perf_counter()
            try:
                report = run_closed_loop(
                    server, spec, clients=args.clients,
                    requests_per_client=args.requests_per_client)
            finally:
                server.stop(drain=True)
            elapsed = time.perf_counter() - t0
            print(f"closed loop: {report.issued} issued, "
                  f"{report.completed} completed "
                  f"({report.rejected} rejected) in {elapsed:.2f}s")
            _emit(args, server.stats,
                  {"mode": "closed", "mix": args.mix,
                   "clients": args.clients})
            _emit_telemetry(args, telemetry)
            return _exit_code(server.stats)
        schedule = open_loop(spec)
        if args.save_schedule:
            with open(args.save_schedule, "w") as fh:
                n = save_schedule(schedule, fh,
                                  meta={"mix": args.mix,
                                        "rate": args.rate,
                                        "duration": args.duration,
                                        "seed": args.seed})
            print(f"schedule ({n} requests) -> {args.save_schedule}",
                  file=sys.stderr)
        server = InferenceServer(config)
        if telemetry is not None:
            server.attach_telemetry(telemetry)
        result = server.run_schedule(schedule)
        _emit(args, result.stats,
              {"mode": "open", "mix": args.mix, "rate": args.rate,
               "duration": args.duration, "seed": args.seed,
               "workers": args.workers, "device": args.device,
               "max_batch": args.max_batch,
               "max_wait_ms": args.max_wait_ms,
               "queue_depth": args.queue_depth},
              report_trace=result.report_trace())
        _emit_telemetry(args, telemetry)
        _emit_trace_jsonl(args, result)
        return _exit_code(result.stats)

    if args.serve_command == "replay":
        try:
            with open(args.schedule) as fh:
                schedule = load_schedule(fh)
        except (OSError, ValueError, KeyError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            return _usage_error(args, f"argument schedule: cannot load "
                                      f"{args.schedule!r}: {reason}")
        if not schedule:
            return _usage_error(args, f"argument schedule: "
                                      f"{args.schedule!r} holds no "
                                      f"requests")
        server = InferenceServer(config)
        telemetry = _telemetry_from_args(args)
        if telemetry is not None:
            server.attach_telemetry(telemetry)
        if args.realtime:
            server.start()
            pendings = []
            for request in sorted(schedule,
                                  key=lambda r: (r.arrival, r.rid)):
                lag = request.arrival - server.clock()
                if lag > 0:
                    time.sleep(lag)
                pendings.append(server.submit(
                    request.workload, seed=request.seed,
                    params=request.param_dict(),
                    priority=request.priority,
                    deadline=request.deadline))
            for pending in pendings:
                pending.result(timeout=120.0)
            server.stop(drain=True)
            _emit(args, server.stats,
                  {"mode": "replay-realtime", "schedule": args.schedule})
            _emit_telemetry(args, telemetry)
            return _exit_code(server.stats)
        result = server.run_schedule(schedule)
        _emit(args, result.stats,
              {"mode": "replay", "schedule": args.schedule,
               "workers": args.workers, "device": args.device},
              report_trace=result.report_trace())
        _emit_telemetry(args, telemetry)
        _emit_trace_jsonl(args, result)
        return _exit_code(result.stats)

    raise SystemExit(f"unhandled serve command {args.serve_command!r}")
