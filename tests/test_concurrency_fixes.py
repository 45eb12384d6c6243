"""Regression tests for the races the RL100 analyzer surfaced.

Each test hammers one of the fixed sites (`ServerStats` aggregation
counters, `RuntimeMetrics` trace folds, `MetricsRegistry`
registration) from many threads and asserts
exact totals — the lost-update symptom each fix removed.  A barrier
lines the threads up so the window is as hot as a unit test can make
it; the static analyzer, not this timing, is the soundness guarantee.
"""

import sys
import threading

import pytest

from repro.core.profiler import TraceEvent
from repro.core.taxonomy import OpCategory
from repro.obs.metrics import Counter, MetricsRegistry, RuntimeMetrics
from repro.serve.batcher import Batch
from repro.serve.pool import BatchResult
from repro.serve.request import STATUS_OK, Response
from repro.serve.stats import ServerStats

THREADS = 8
ROUNDS = 400


def hammer(worker):
    """Run ``worker(index)`` on THREADS threads behind one barrier."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def body(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


class TestServerStatsAggregation:
    def test_response_count_is_exact(self):
        stats = ServerStats()

        def worker(index):
            for i in range(ROUNDS):
                stats.record_response(Response(
                    rid=index * ROUNDS + i, workload="sudoku",
                    status=STATUS_OK))

        hammer(worker)
        summary = stats.summary()
        assert summary["deterministic"]["requests"] == THREADS * ROUNDS

    def test_batch_size_histogram_is_exact(self):
        stats = ServerStats()

        def worker(index):
            for i in range(ROUNDS):
                size = (i % 3) + 1
                batch = Batch(bid=index * ROUNDS + i,
                              key=("sudoku", 0, ()))
                batch.requests = [None] * size
                stats.record_batch(BatchResult(batch=batch,
                                               status=STATUS_OK))

        hammer(worker)
        hist = stats.summary()["deterministic"]["batch_size_hist"]
        assert sum(hist.values()) == THREADS * ROUNDS
        expected = {}
        for i in range(ROUNDS):
            size = str((i % 3) + 1)
            expected[size] = expected.get(size, 0) + THREADS
        assert hist == expected


class TestRuntimeMetricsFold:
    def test_concurrent_folds_totals_are_exact(self):
        metrics = RuntimeMetrics()
        categories = (OpCategory.MATMUL, OpCategory.ELEMENTWISE,
                      OpCategory.TRANSFORM)
        events = [TraceEvent(eid, "op", categories[eid % 3], flops=2.0,
                             bytes_read=8, bytes_written=4,
                             wall_time=1e-4, live_bytes=64 * (eid % 7))
                  for eid in range(30)]
        folds = ROUNDS // 10

        def worker(index):
            for _ in range(folds):
                metrics.observe_trace(events)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        total = THREADS * folds * len(events)
        assert metrics.ops_total.total() == total
        assert metrics.flops_total.value() == 2.0 * total
        assert metrics.bytes_total.value() == 12.0 * total
        assert metrics.live_bytes.value() == events[-1].live_bytes
        assert metrics.peak_live_bytes.value() == 64 * 6
        for category in categories:
            assert metrics.ops_total.value(category=category.value) \
                == total // 3
            assert metrics.op_latency.count(category=category.value) \
                == total // 3


class TestRegistryRegistration:
    def test_duplicate_has_exactly_one_winner(self):
        registry = MetricsRegistry()
        outcomes = []

        def worker(index):
            metric = Counter("repro_test_total")
            try:
                registry.register(metric)
                outcomes.append(("won", metric))
            except ValueError:
                outcomes.append(("lost", metric))

        hammer(worker)
        winners = [m for verdict, m in outcomes if verdict == "won"]
        assert len(winners) == 1
        assert registry.get("repro_test_total") is winners[0]
        assert len(outcomes) == THREADS

    def test_distinct_names_all_register(self):
        registry = MetricsRegistry()

        def worker(index):
            for i in range(ROUNDS // 10):
                registry.counter(f"repro_test_{index}_{i}_total")

        hammer(worker)
        assert len(registry.metrics()) == THREADS * (ROUNDS // 10)
