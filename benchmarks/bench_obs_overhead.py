"""Observability overhead on the healthy profiling path.

The budget: what ``repro metrics`` adds on top of a profile must cost
<5% of the profile.  A profile records nothing for metrics while it
runs; the only added work is one
:func:`repro.obs.metrics.fold_trace`, which folds the closed trace
into the op metric families.

The fold of the workload's real trace is micro-timed (``FOLDS`` folds
per round, best round), and its cost per profile is divided by the
best-of-N plain profiling wall time.  That ratio is the overhead by
construction: the profile itself is the same instructions with or
without a fold after it.
"""

from __future__ import annotations

import time

from repro.core.report import format_time, render_table
from repro.obs.metrics import fold_trace
from repro.workloads import create

from conftest import emit

WORKLOADS = ("nvsa", "prae")
ROUNDS = 5
FOLDS = 40
MICRO_CALLS = 200_000
OVERHEAD_BUDGET = 0.05

#: PR-8 live-telemetry budget: attaching LiveTelemetry to a serving
#: run must stay under the same 5% ceiling, and the off path (no
#: telemetry attached) must leave the deterministic results untouched
TELEMETRY_RECORD_CALLS = 5_000


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _fold_cost(trace) -> float:
    """Seconds per event of folding ``trace`` into the op metrics."""
    start = time.perf_counter()
    for _ in range(FOLDS):
        fold_trace(trace)
    return (time.perf_counter() - start) / (FOLDS * len(trace))


def _attribution_cost() -> float:
    """Per-dispatch cost of span-id attribution, in seconds.

    ``run_op`` reads the innermost span via ``_current_sid()`` on
    every recorded event.  Every profile pays it (any ProfileContext
    opens spans), so it is *context*, not part of the fold budget —
    reported so a regression in the thread-local lookup shows up here
    first.
    """
    from repro.obs.spans import span, SpanCollector
    from repro.tensor.dispatch import _current_sid
    with SpanCollector():
        with span("bench:attribution"):
            start = time.perf_counter()
            for _ in range(MICRO_CALLS):
                _current_sid()
            return (time.perf_counter() - start) / MICRO_CALLS


def measure_overhead():
    per_sid = _attribution_cost()
    rows = []
    overheads = {}
    per_event = {}
    for name in WORKLOADS:
        trace = create(name, seed=0).profile()  # also warms caches

        def plain_run():
            create(name, seed=0).profile()

        # interleave rounds so machine drift hits every timing equally
        plain = fold = float("inf")
        for _ in range(ROUNDS):
            plain = min(plain, _timed(plain_run))
            fold = min(fold, _fold_cost(trace))

        overhead = len(trace) * fold / plain
        overheads[name] = overhead
        per_event[name] = fold * 1e6
        rows.append([name.upper(), len(trace), format_time(plain),
                     f"{fold * 1e6:.2f} us",
                     f"{overhead * 100:+.2f}%"])
    return rows, overheads, per_event, per_sid


def test_obs_overhead(benchmark):
    rows, overheads, per_event, per_sid = benchmark.pedantic(
        measure_overhead, rounds=1, iterations=1)
    emit("obs_overhead", render_table(
        ["workload", "events", "plain profile", "fold per event",
         "fold overhead"], rows,
        title="metrics fold on top of a profile "
              f"(budget {OVERHEAD_BUDGET:.0%}; fold_trace folds the "
              f"closed trace, sid attribution = {per_sid * 1e6:.2f} "
              f"us/op, best of {ROUNDS})"),
        rows=rows,
        columns=["workload", "events", "plain", "fold_us_per_event",
                 "fold_overhead"],
        meta={"budget": OVERHEAD_BUDGET, "rounds": ROUNDS,
              "folds": FOLDS, "fold_us_per_event": per_event,
              "attribution_us": per_sid * 1e6,
              "overheads": overheads})
    for name, overhead in overheads.items():
        assert overhead < OVERHEAD_BUDGET, (
            f"{name}: metrics fold overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget "
            f"(fold_trace {per_event[name]:.2f} us/event)")


# -- live telemetry (PR 8) ---------------------------------------------------

def _telemetry_record_cost() -> float:
    """Per-event cost of LiveTelemetry.record on a realistic stream.

    Events advance 10 ms apart (a ~100 rps service), so the rolling
    aggregator and both burn-rate windows hold realistic populations
    while the cost is micro-timed.
    """
    from repro.obs.live import LiveTelemetry
    telemetry = LiveTelemetry(seed=0, healthy_ratio=0.05)
    events = [{"t": 0.01 * i, "rid": i, "trace_id": f"{i:016x}",
               "status": "ok", "latency": 0.02, "queue_wait": 0.005}
              for i in range(TELEMETRY_RECORD_CALLS)]
    start = time.perf_counter()
    for event in events:
        telemetry.record(event)
    elapsed = time.perf_counter() - start
    telemetry.flush()
    return elapsed / TELEMETRY_RECORD_CALLS


def measure_telemetry_overhead():
    from repro.obs.live import LiveTelemetry
    from repro.serve import (BatchPolicy, InferenceServer, LoadSpec,
                             ServeConfig, open_loop, parse_mix)

    spec = LoadSpec.make(parse_mix("lnn=1"), rate=80.0, duration=1.0,
                         seed=3)
    schedule = open_loop(spec)
    config = ServeConfig(workers=2,
                         batch=BatchPolicy(max_batch_size=8,
                                           max_wait=0.03))

    def run(attach: bool):
        server = InferenceServer(config)
        telemetry = None
        if attach:
            telemetry = LiveTelemetry(seed=0, healthy_ratio=0.05)
            server.attach_telemetry(telemetry)
        start = time.perf_counter()
        result = server.run_schedule(schedule)
        return time.perf_counter() - start, result

    plain = attached = float("inf")
    plain_result = attached_result = None
    for _ in range(ROUNDS):
        wall, result = run(False)
        if wall < plain:
            plain, plain_result = wall, result
        wall, result = run(True)
        if wall < attached:
            attached, attached_result = wall, result

    per_record = _telemetry_record_cost()
    overhead = len(schedule) * per_record / plain
    return (plain, attached, plain_result, attached_result,
            per_record, overhead, len(schedule))


def test_serve_telemetry_overhead(benchmark):
    (plain, attached, plain_result, attached_result, per_record,
     overhead, requests) = benchmark.pedantic(
        measure_telemetry_overhead, rounds=1, iterations=1)
    rows = [["serve lnn=1 1s@80rps", requests, format_time(plain),
             format_time(attached),
             f"{(attached / plain - 1.0) * 100:+.2f}%",
             f"{overhead * 100:+.3f}%"]]
    emit("serve_telemetry_overhead", render_table(
        ["schedule", "requests", "plain serve", "telemetry attached",
         "wall delta (noisy)", "per-record overhead"], rows,
        title="live-telemetry overhead on the serving path "
              f"(budget {OVERHEAD_BUDGET:.0%}; record = "
              f"{per_record * 1e6:.2f} us/event, best of {ROUNDS})"),
        rows=rows,
        columns=["schedule", "requests", "plain", "attached",
                 "wall_delta", "per_record_overhead"],
        meta={"budget": OVERHEAD_BUDGET, "rounds": ROUNDS,
              "record_us": per_record * 1e6, "overhead": overhead})
    # off path unchanged: the deterministic section must be
    # bit-identical whether or not a telemetry sink is attached
    assert plain_result.stats.summary()["deterministic"] \
        == attached_result.stats.summary()["deterministic"]
    # on path within budget (de-noised: per-record microcost scaled
    # by the request count over the best plain wall)
    assert overhead < OVERHEAD_BUDGET, (
        f"live telemetry overhead {overhead:.2%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget "
        f"({per_record * 1e6:.2f} us/event x {requests} requests)")
