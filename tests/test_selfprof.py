"""Self-profiling ledger: the dispatch-overhead observatory's
invariants.

* attribution exactness — the ledgered dispatcher places probes at
  shared segment boundaries, so one op's component deltas telescope:
  they tile the instrumented wall time exactly (asserted with an
  injected deterministic clock);
* zero interference — the traced events are bit-identical with and
  without the ledger (counters digest equality), and the scoped flag
  always restores;
* determinism — the deterministic ledger view (op counts per
  category) is bit-identical across two seeded runs.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest

from repro.obs import selfprof
from repro.obs.runrec import counters_digest
from repro.tensor import dispatch
from repro.workloads import create


def _profile_with_ledger(name="lnn", seed=0):
    with selfprof.scoped_ledger() as ledger:
        trace = create(name, seed=seed).profile()
    return trace, ledger


class TestLedgerAttribution:
    def test_components_tile_op_wall_time_exactly(self, monkeypatch):
        """With a deterministic injected clock, every op's recorded
        components sum to exactly its probe-bracketed wall time."""
        ticker = itertools.count(step=7)
        monkeypatch.setattr(dispatch, "_perf_ns",
                            lambda: next(ticker))
        per_op_sums = []
        original_record = selfprof.DispatchLedger.record

        def capturing_record(self, category, parts):
            per_op_sums.append(sum(parts.values()))
            original_record(self, category, parts)

        monkeypatch.setattr(selfprof.DispatchLedger, "record",
                            capturing_record)
        trace, ledger = _profile_with_ledger()
        assert per_op_sums
        # nine probes, step 7: the telescoped deltas must sum to
        # exactly p8 - p0 = 8 * 7 for every single op
        assert set(per_op_sums) == {8 * 7}
        assert ledger.total_ns == len(per_op_sums) * 8 * 7

    def test_measured_totals_tile_by_construction(self):
        _, ledger = _profile_with_ledger()
        totals = ledger.component_ns()
        assert sum(totals.values()) == ledger.total_ns
        assert ledger.kernel_ns + ledger.overhead_ns == ledger.total_ns
        # per-category buckets partition the totals
        by_category = {
            c: ledger.component_ns(c) for c in ledger.ops_by_category()}
        for component, ns in totals.items():
            assert ns == sum(bucket.get(component, 0)
                             for bucket in by_category.values())

    def test_ops_match_dispatched_events(self):
        trace, ledger = _profile_with_ledger()
        dispatched = [e for e in trace.events
                      if e.name not in ("host_region",)]
        by_category = {}
        for event in dispatched:
            key = event.category.value
            by_category[key] = by_category.get(key, 0) + 1
        ledger_by_category = ledger.ops_by_category()
        for category, count in ledger_by_category.items():
            assert by_category.get(category, 0) >= count
        assert ledger.ops <= len(trace.events)
        # the overwhelming majority of events are real dispatches
        assert ledger.ops >= len(trace.events) - 5

    def test_headroom_bounds(self):
        _, ledger = _profile_with_ledger()
        assert 0.0 < ledger.measured_headroom < 1.0
        assert set(ledger.component_ns()) == set(selfprof.COMPONENTS)

    def test_concurrent_records_and_folds_lose_nothing(self):
        """Recording queues without a lock and folds in batches: with
        more threads than cores, a tiny switch interval and a reader
        folding concurrently, every op and every ns still lands, for
        dicts whose keys come in different orders and subsets."""
        ledger = selfprof.DispatchLedger()
        shapes = ({"kernel": 1, "record": 2}, {"record": 2, "kernel": 1},
                  {"kernel": 1})
        per_thread, writers = 3000, 6
        done = threading.Event()

        def write(offset):
            for i in range(per_thread):
                ledger.record("elementwise", dict(shapes[(i + offset) % 3]))

        def read():
            while not done.is_set():
                ledger.ops_by_category()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=write, args=(n,))
                       for n in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        ops = per_thread * writers
        assert ledger.ops == ops
        assert ledger.component_ns() == {"kernel": ops,
                                         "record": 2 * ops * 2 // 3}


class TestZeroInterference:
    def test_counters_digest_identical_with_and_without_ledger(self):
        plain = create("lnn", seed=0).profile()
        ledgered, _ = _profile_with_ledger()
        assert counters_digest(plain) == counters_digest(ledgered)

    def test_flag_restores_after_scope(self):
        assert selfprof.ENABLED is False
        with selfprof.scoped_ledger():
            assert selfprof.ENABLED is True
            assert selfprof.active_ledger() is not None
        assert selfprof.ENABLED is False
        assert selfprof.active_ledger() is None

    def test_flag_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with selfprof.scoped_ledger():
                raise RuntimeError("boom")
        assert selfprof.ENABLED is False

    def test_scopes_do_not_nest(self):
        with selfprof.scoped_ledger():
            with pytest.raises(RuntimeError, match="nest"):
                with selfprof.scoped_ledger():
                    pass
        assert selfprof.ENABLED is False

    def test_enabled_outside_profile_context(self):
        """Dispatch outside any profile context still computes, and
        the ledger skips it (nothing is traced either)."""
        from repro import tensor as T
        with selfprof.scoped_ledger() as ledger:
            result = T.add(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]))
        assert result.numpy().tolist() == [4.0, 6.0]
        assert ledger.ops == 0


class TestDeterminism:
    def test_deterministic_view_bit_identical_across_runs(self):
        _, first = _profile_with_ledger("nvsa")
        _, second = _profile_with_ledger("nvsa")
        assert first.deterministic_dict() == second.deterministic_dict()

    def test_render_smoke(self):
        _, ledger = _profile_with_ledger("nvsa")
        assert "dispatch-overhead ledger" in ledger.render()
