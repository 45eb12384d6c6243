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
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional

from repro.hwsim.devices import get_device, parse_device_list
from repro.obs.clock import perf_s
from repro.serve.batcher import BatchPolicy
from repro.serve.loadgen import (LoadSpec, load_schedule, open_loop,
                                 parse_mix, run_closed_loop,
                                 save_schedule)
from repro.serve.queue import AdmissionPolicy
from repro.serve.request import STATUS_FAILED
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.stats import ServerStats

SERVE_COMMANDS = ("serve",)


def _add_server_flags(cmd: "argparse.ArgumentParser") -> None:
    cmd.add_argument("--workers", type=int, default=2,
                     help="worker threads (default 2)")
    cmd.add_argument("--device", default="rtx",
                     help="comma-separated devices, cycled across "
                          "workers (default rtx)")
    cmd.add_argument("--max-batch", type=int, default=16,
                     help="dynamic batching size cap (default 16)")
    cmd.add_argument("--max-wait-ms", type=float, default=50.0,
                     help="max ms a planned batch stays open (default "
                          "50); virtual-time planning only (bench "
                          "--loop open, replay without --realtime): "
                          "live workers batch whatever is queued "
                          "when they go idle")
    cmd.add_argument("--queue-depth", type=int, default=256,
                     help="admission bound; excess load is shed "
                          "(default 256)")
    cmd.add_argument("--cache-capacity", type=int, default=32,
                     help="artifact cache entries (default 32)")
    cmd.add_argument("--timeout", type=float, default=None,
                     help="per-attempt wall budget in seconds "
                          "(default none)")
    cmd.add_argument("--max-retries", type=int, default=1,
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
    cmd.add_argument("--snapshot-interval", type=float, default=1.0,
                     help="live-telemetry snapshot period in seconds "
                          "(default 1.0)")
    cmd.add_argument("--sample-ratio", type=float, default=0.05,
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
    inner = serve.add_subparsers(dest="serve_command", required=True)

    bench = inner.add_parser(
        "bench", help="serve a deterministic seeded open-loop load")
    bench.add_argument("--mix", default="nvsa=3,lnn=1",
                       help="workload mix, e.g. nvsa=3,lnn=1 "
                            "(default nvsa=3,lnn=1)")
    bench.add_argument("--rate", type=float, default=100.0,
                       help="mean arrivals/second (default 100)")
    bench.add_argument("--duration", type=float, default=10.0,
                       help="schedule horizon in virtual seconds "
                            "(default 10)")
    bench.add_argument("--seed", type=int, default=0,
                       help="arrival-process seed (default 0)")
    bench.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request SLO budget in ms (default none)")
    bench.add_argument("--seed-pool", type=int, default=1,
                       help="distinct workload seeds -> batch keys per "
                            "workload (default 1)")
    bench.add_argument("--loop", choices=("open", "closed"),
                       default="open",
                       help="open = deterministic schedule mode; "
                            "closed = live client threads (not "
                            "deterministic)")
    bench.add_argument("--clients", type=int, default=4,
                       help="closed-loop client threads (default 4)")
    bench.add_argument("--requests-per-client", type=int, default=8,
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
        admission=AdmissionPolicy(max_depth=args.queue_depth),
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
    from repro.obs.live import LiveTelemetry, TailSamplingPolicy
    return LiveTelemetry(
        sampler=TailSamplingPolicy(seed=getattr(args, "seed", 0),
                                   healthy_ratio=args.sample_ratio),
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


def run_serve_command(args: "argparse.Namespace") -> Optional[int]:
    if args.command not in SERVE_COMMANDS:
        return None
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
            t0 = perf_s()
            try:
                report = run_closed_loop(
                    server, spec, clients=args.clients,
                    requests_per_client=args.requests_per_client)
            finally:
                server.stop(drain=True)
            elapsed = perf_s() - t0
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
        with open(args.schedule) as fh:
            schedule = load_schedule(fh)
        if not schedule:
            raise SystemExit(f"empty schedule: {args.schedule!r}")
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
