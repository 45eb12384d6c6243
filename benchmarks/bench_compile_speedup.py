"""Compiled-tier speedup, measured: eager vs compiled ``profile()`` wall.

For each workload one instance is built, and every timed run gets a
fresh deep copy of it (workloads mutate state while profiling, so
copies make every run start from identical state, as
``ArtifactCache.checkout`` does).  Eager ``profile()`` and compiled
``execute()`` runs are interleaved for ``ROUNDS`` rounds, alternating
which tier goes first, and the table reports each tier's median wall
time and the saving.  Every run's counters digest must equal the
capture's, so both tiers did the same work.  The savings are reported,
not asserted: on a shared host their run-to-run spread is a few points.

Plan facts are not checked here: each workload's plan digest (which
covers its steps) is a pin in ``benchmarks/history.jsonl``, compared
exactly by ``repro obs history gate``.
"""

from __future__ import annotations

import copy
import statistics
import time

from repro.compile import capture_plan, execute
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
        plan = capture_plan(copy.deepcopy(built))  # also warms caches
        tiers = {
            "eager": lambda w: w.profile(),
            "compiled": lambda w: execute(w, plan)[0],
        }
        walls = {tier: [] for tier in tiers}
        for round_index in range(ROUNDS):
            order = ("eager", "compiled") if round_index % 2 == 0 \
                else ("compiled", "eager")
            for tier in order:
                walls[tier].append(
                    _timed(tiers[tier], built, plan.counters_digest))
        eager = statistics.median(walls["eager"])
        compiled = statistics.median(walls["compiled"])
        medians[name] = {"eager_s": eager, "compiled_s": compiled}
        savings[name] = 1.0 - compiled / eager
        rows.append([name.upper(), len(plan.steps), format_time(eager),
                     format_time(compiled), f"{savings[name] * 100:.1f}%"])
    return rows, medians, savings


def test_compile_speedup(benchmark):
    rows, medians, savings = benchmark.pedantic(
        measure_compile_speedup, rounds=1, iterations=1)
    emit("compile_speedup", render_table(
        ["workload", "steps", "eager median", "compiled median",
         "saving"], rows,
        title="compiled tier vs eager: profile() wall time "
              f"(median of {ROUNDS} interleaved rounds, fresh deep "
              "copy per run)"),
        rows=rows,
        columns=["workload", "steps", "eager_median", "compiled_median",
                 "saving"],
        meta={"rounds": ROUNDS, "medians": medians, "savings": savings})

