"""Serving throughput benchmark over the pinned serve schedule.

Serves :data:`repro.obs.history.PINNED_SERVE` — a seeded open-loop
mix (NVSA-heavy, the paper's flagship workload, cut with LNN) —
through the full stack: admission, dynamic batching, pooled
execution, virtual dispatch.  It emits measured throughput, tail
latency on the virtual clock (the ``deterministic`` section's modeled
dispatch, labelled as such), and the batch-size histogram to
``results/serve_throughput.json``.

Batching, admission, and modeled latency are pure functions of the
seeded schedule, so its ``deterministic`` stats section is not
checked here: its digest is the ``serve`` pin in
``benchmarks/history.jsonl``, compared exactly by ``repro obs history
gate``.  This benchmark asserts only that measured throughput clears
``MIN_THROUGHPUT_RPS`` — far below what this stack does on any
CI-grade machine, so it only fires on real regressions (e.g. batching
silently disabled).
"""

from __future__ import annotations

from repro.core.report import format_time, render_table
from repro.obs.history import PINNED_SERVE, run_pinned_serve

from conftest import emit

MIN_THROUGHPUT_RPS = 50.0


def test_serve_throughput(benchmark):
    report = benchmark.pedantic(run_pinned_serve, rounds=1, iterations=1)
    summary = report.summary()
    det, meas = summary["deterministic"], summary["measured"]

    rows = [
        ["submitted", det["requests"]],
        ["served ok", det["statuses"]["ok"]],
        ["batches", det["batches"]],
        ["mean batch", f"{det['mean_batch_size']:.2f}"],
        ["p50 latency (virtual clock)", format_time(det["latency"]["p50"])],
        ["p99 latency (virtual clock)", format_time(det["latency"]["p99"])],
        ["throughput", f"{meas['throughput_rps']:.1f} req/s"],
        ["wall", f"{meas['wall_elapsed']:.2f} s"],
    ]
    emit("serve_throughput", render_table(
        ["metric", "value"], rows,
        title=f"serving throughput ({PINNED_SERVE['mix']} @ "
              f"{PINNED_SERVE['rate']:g}/s for "
              f"{PINNED_SERVE['duration']:g}s virtual, "
              f"{PINNED_SERVE['workers']} workers)"),
        rows=rows, columns=["metric", "value"],
        meta={**PINNED_SERVE,
              "batch_size_hist": det["batch_size_hist"],
              "throughput_rps": meas["throughput_rps"],
              "p99_latency": det["latency"]["p99"],
              "deterministic": det})

    assert meas["throughput_rps"] >= MIN_THROUGHPUT_RPS, (
        f"throughput {meas['throughput_rps']:.1f} req/s below the "
        f"{MIN_THROUGHPUT_RPS:g} req/s floor")
