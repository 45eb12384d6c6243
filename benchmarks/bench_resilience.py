"""Resilient-runner overhead on the healthy path.

The ISSUE-1 budget: wrapping a workload in :class:`ResilientRunner`
(worker thread, health checks, breaker bookkeeping) must cost <5% over
calling ``characterize`` directly when nothing goes wrong.  Measured on
the two trace-heaviest roster members (NVSA, PrAE).

One run takes 70–90 ms, and a shared host's speed drifts by more than
the budget between runs, so the best run of each path compares two
different moments of the host.  The paths instead run in ``PAIRS``
back-to-back pairs, alternating which goes first, and the overhead is
the median over pairs of ``resilient / direct - 1``: each ratio
compares two runs made at nearly the same moment, and the median
drops the pairs a scheduler hiccup hit.
"""

from __future__ import annotations

import statistics
import time

from repro.core.report import format_time, render_table
from repro.core.suite import characterize
from repro.hwsim import RTX_2080TI
from repro.resilience.runner import ResilientRunner
from repro.workloads import create

from conftest import emit

WORKLOADS = ("nvsa", "prae")
PAIRS = 15
OVERHEAD_BUDGET = 0.05


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_overhead():
    runner = ResilientRunner(device=RTX_2080TI, timeout=300.0,
                             max_retries=0)
    rows = []
    overheads = {}
    for name in WORKLOADS:
        characterize(create(name, seed=0), RTX_2080TI)  # warm caches

        def direct_run():
            characterize(create(name, seed=0), RTX_2080TI)

        def resilient_run():
            outcome = runner.run_workload(name, seed=0)
            assert outcome.status == "ok", outcome.status

        directs, resilients = [], []
        for pair in range(PAIRS):
            if pair % 2:
                resilients.append(_timed(resilient_run))
                directs.append(_timed(direct_run))
            else:
                directs.append(_timed(direct_run))
                resilients.append(_timed(resilient_run))

        overhead = statistics.median(
            r / d for r, d in zip(resilients, directs)) - 1.0
        overheads[name] = overhead
        rows.append([name.upper(), format_time(statistics.median(directs)),
                     format_time(statistics.median(resilients)),
                     f"{overhead * 100:+.2f}%"])
    return rows, overheads


def test_resilient_runner_overhead(benchmark):
    rows, overheads = benchmark.pedantic(measure_overhead, rounds=1,
                                         iterations=1)
    emit("resilience_overhead", render_table(
        ["workload", "direct (median)", "resilient runner (median)",
         "overhead (median pair ratio)"], rows,
        title="resilient-runner overhead on the healthy path "
              f"(budget {OVERHEAD_BUDGET:.0%}, {PAIRS} alternating "
              "pairs)"),
        rows=rows,
        columns=["workload", "direct", "resilient_runner", "overhead"],
        meta={"budget": OVERHEAD_BUDGET, "pairs": PAIRS,
              "overheads": overheads})
    for name, overhead in overheads.items():
        assert overhead < OVERHEAD_BUDGET, (
            f"{name}: runner overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget")
