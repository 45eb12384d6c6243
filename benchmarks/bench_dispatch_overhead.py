"""Dispatch-overhead self-profiling: cost budget and determinism.

Two budgets guard the selfprof layer (ISSUE 9):

* **off path** — with :data:`repro.obs.selfprof.ENABLED` false the
  dispatcher pays one module-attribute load and branch, then one
  ``None`` test at each of its nine probe points, per op.  That guard
  is micro-timed below and reported; it is unmeasurable against any
  workload wall time, so the off path carries no assertion beyond the
  determinism check.
* **on path** — with a scoped ledger active every op pays nine
  ``perf_counter_ns`` probes plus one ``DispatchLedger.record``.
  Wall-clock A/B deltas of that size are noise-dominated (same
  argument as ``bench_obs_overhead``), so the asserted overhead is
  de-noised: the per-op probe+record cost is micro-timed in one block
  per round, interleaved with the profiling rounds so host drift hits
  both, and the best block times the workload's op count is divided
  by the best-of-N plain profiling wall.  Budget: <5%.

The ledger's op counts are not checked here: the ``counters`` and
``plan`` pins in ``benchmarks/history.jsonl`` already cover every
dispatched op, compared exactly by ``repro obs history gate``.
"""

from __future__ import annotations

import time

from repro.core.report import format_time, render_table
from repro.obs import selfprof
from repro.workloads import create

from conftest import emit

WORKLOADS = ("nvsa", "prae")
ROUNDS = 5
MICRO_CALLS = 200_000
#: probe+record iterations per profiling round
PROBE_CALLS = 40_000
OVERHEAD_BUDGET = 0.05


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _probe_cost(calls: int) -> float:
    """Per-op cost of the instrumented path's additions, in seconds.

    One ledgered op adds exactly nine ``perf_counter_ns`` reads, one
    parts-dict construction, and one ``DispatchLedger.record``;
    everything else is shared with the plain path by construction.
    """
    from time import perf_counter_ns as perf_ns
    ledger = selfprof.DispatchLedger()
    start = time.perf_counter()
    for _ in range(calls):
        p0 = perf_ns(); p1 = perf_ns(); p2 = perf_ns()  # noqa: E702
        p3 = perf_ns(); p4 = perf_ns(); p5 = perf_ns()  # noqa: E702
        p6 = perf_ns(); p7 = perf_ns(); p8 = perf_ns()  # noqa: E702
        ledger.record("elementwise", {
            "taxonomy": p1 - p0, "inputs": p2 - p1, "fault": p3 - p2,
            "kernel": p4 - p3, "counters": p5 - p4, "span": p6 - p5,
            "record": p7 - p6, "observer": p8 - p7})
    return (time.perf_counter() - start) / calls


def _guard_cost() -> float:
    """Per-op cost of the disabled-path guard, in seconds.

    The instructions the plain dispatch path pays: one module attribute
    load plus a falsy branch, then a ``None`` test at each of the nine
    probe points.
    """
    module = selfprof
    start = time.perf_counter()
    for _ in range(MICRO_CALLS):
        ledger = module.active_ledger() if module.ENABLED else None
        if (ledger is not None or ledger is not None or ledger is not None
                or ledger is not None or ledger is not None
                or ledger is not None or ledger is not None
                or ledger is not None or ledger is not None):
            raise AssertionError("selfprof unexpectedly enabled")
    return (time.perf_counter() - start) / MICRO_CALLS


def measure_dispatch_overhead():
    per_guard = _guard_cost()
    rows = []
    on_path_overheads = {}
    per_probe = {}
    ledgers = {}
    for name in WORKLOADS:
        with selfprof.scoped_ledger() as ledger:
            create(name, seed=0).profile()  # also warms caches
        ledgers[name] = ledger

        def plain_run():
            create(name, seed=0).profile()

        def ledgered_run():
            with selfprof.scoped_ledger() as inner:
                create(name, seed=0).profile()
                assert inner.ops > 0

        plain = ledgered = probe = float("inf")
        for _ in range(ROUNDS):
            plain = min(plain, _timed(plain_run))
            ledgered = min(ledgered, _timed(ledgered_run))
            probe = min(probe, _probe_cost(PROBE_CALLS))

        overhead = ledger.ops * probe / plain
        on_path_overheads[name] = overhead
        per_probe[name] = probe
        rows.append([name.upper(), ledger.ops, format_time(plain),
                     format_time(ledgered),
                     f"{(ledgered / plain - 1.0) * 100:+.2f}%",
                     f"{probe * 1e6:.2f} us",
                     f"{overhead * 100:+.2f}%"])
    return (rows, on_path_overheads, ledgers, per_probe, per_guard)


def test_dispatch_overhead(benchmark):
    (rows, on_path_overheads, ledgers, per_probe,
     per_guard) = benchmark.pedantic(measure_dispatch_overhead,
                                     rounds=1, iterations=1)
    emit("dispatch_overhead", render_table(
        ["workload", "ops", "plain profile", "ledgered",
         "wall delta (noisy)", "probes+record per op",
         "on-path overhead"], rows,
        title="self-profiling dispatch overhead "
              f"(budget {OVERHEAD_BUDGET:.0%}; off-path guard = "
              f"{per_guard * 1e9:.1f} ns/op, best of {ROUNDS})"),
        rows=rows,
        columns=["workload", "ops", "plain", "ledgered", "wall_delta",
                 "probe_record_us", "on_path_overhead"],
        meta={"budget": OVERHEAD_BUDGET, "rounds": ROUNDS,
              "probe_record_us": {name: seconds * 1e6
                                  for name, seconds in per_probe.items()},
              "guard_ns": per_guard * 1e9,
              "on_path_overheads": on_path_overheads})
    # off path: the guard is a module-attribute load + branches —
    # tens of ns; just confirm it stays under the probes
    assert per_guard < min(per_probe.values())
    # on path: de-noised per-op probe cost scaled by op count must
    # stay within the budget
    for name, overhead in on_path_overheads.items():
        assert overhead < OVERHEAD_BUDGET, (
            f"{name}: self-profiling overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget "
            f"(probes+record {per_probe[name] * 1e6:.2f} us/op)")

