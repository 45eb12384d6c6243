"""Regression tests for the races the RL100 analyzer surfaced.

Each test hammers one of the fixed sites (`ServerStats` aggregation
counters and latency distributions) from many threads and asserts
exact totals — the lost-update symptom each fix removed.  A barrier
lines the threads up so the window is as hot as a unit test can make
it; the static analyzer, not this timing, is the soundness guarantee.
"""

import sys
import threading

import pytest

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


class TestServerStatsDistributions:
    def test_per_workload_distributions_are_exact(self):
        # every response lands in its workload's distributions, and a
        # batch in its execute-wall distribution, under the one lock
        stats = ServerStats()
        workloads = ("lnn", "nvsa")

        def worker(index):
            for i in range(ROUNDS):
                workload = workloads[i % 2]
                stats.record_response(Response(
                    rid=index * ROUNDS + i, workload=workload,
                    status=STATUS_OK, completion=0.001 * (i % 5 + 1),
                    queue_wait=0.0005))
                batch = Batch(bid=index * ROUNDS + i,
                              key=(workload, 0, ()))
                batch.requests = [None]
                stats.record_batch(BatchResult(batch=batch,
                                               status=STATUS_OK,
                                               wall=0.002))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        summary = stats.summary()
        det = summary["deterministic"]
        total = THREADS * ROUNDS
        assert det["latency"]["count"] == det["queue_wait"]["count"] \
            == summary["measured"]["execute_wall"]["count"] == total
        assert det["batches"] == total
        for workload in workloads:
            info = det["per_workload"][workload]
            assert info["requests"] == info["batches"] == total // 2
            assert info["latency"]["count"] == total // 2
