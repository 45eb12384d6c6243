"""Replay speedup, measured: eager vs replayed ``profile()`` wall.

For each workload one instance is built, and every timed run gets a
fresh deep copy of it (workloads mutate state while profiling, so
copies make every run start from identical state, as
``ArtifactCache.checkout`` does).  The plan is the trace of one eager
run, as a repeated serve key keeps it.  Eager ``profile()`` and
``replay()`` against that trace are interleaved for ``ROUNDS`` rounds,
alternating which goes first, and the table reports each one's median
wall time and the saving.  Every run's counters digest must equal the
plan's, so both did the same work.  The savings are reported, not
asserted: on a shared host their run-to-run spread is a few points.

Event facts are not checked here: each workload's events digest is a
pin in ``benchmarks/history.jsonl``, compared exactly by
``repro obs history gate``.
"""

from __future__ import annotations

import copy
import statistics
import time

from repro.compile import replay
from repro.core.report import format_time, render_table
from repro.obs.runrec import counters_digest
from repro.workloads import create

from conftest import emit

WORKLOADS = ("nvsa", "prae", "lnn", "nlm", "ltn", "mcts")
ROUNDS = 15


def _timed(run, built, expected_digest: str) -> float:
    workload = copy.deepcopy(built)
    start = time.perf_counter()
    trace = run(workload)
    elapsed = time.perf_counter() - start
    assert counters_digest(trace) == expected_digest
    return elapsed


def measure_compile_speedup():
    rows = []
    medians = {}
    savings = {}
    for name in WORKLOADS:
        built = create(name, seed=0)
        built.build()
        plan = copy.deepcopy(built).profile()  # also warms caches
        expected = counters_digest(plan)
        modes = {
            "eager": lambda w: w.profile(),
            "replay": lambda w: replay(w, plan),
        }
        walls = {mode: [] for mode in modes}
        for round_index in range(ROUNDS):
            order = ("eager", "replay") if round_index % 2 == 0 \
                else ("replay", "eager")
            for mode in order:
                walls[mode].append(_timed(modes[mode], built, expected))
        eager = statistics.median(walls["eager"])
        replayed = statistics.median(walls["replay"])
        medians[name] = {"eager_s": eager, "replay_s": replayed}
        savings[name] = 1.0 - replayed / eager
        rows.append([name.upper(), len(plan.events), format_time(eager),
                     format_time(replayed), f"{savings[name] * 100:.1f}%"])
    return rows, medians, savings


def test_compile_speedup(benchmark):
    rows, medians, savings = benchmark.pedantic(
        measure_compile_speedup, rounds=1, iterations=1)
    emit("compile_speedup", render_table(
        ["workload", "events", "eager median", "replay median",
         "saving"], rows,
        title="replay of the eager trace vs eager: profile() wall time "
              f"(median of {ROUNDS} interleaved rounds, fresh deep "
              "copy per run)"),
        rows=rows,
        columns=["workload", "events", "eager_median", "replay_median",
                 "saving"],
        meta={"rounds": ROUNDS, "medians": medians, "savings": savings})
