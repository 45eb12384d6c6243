"""Tests for profiling contexts: phases, stages, nesting, live-memory
tracking, and the trace data model."""

import gc

import numpy as np
import pytest

from repro import tensor as T
from repro.core.profiler import Trace, TraceEvent, merge_traces
from repro.core.taxonomy import OpCategory


class TestPhasesAndStages:
    def test_phase_tagging(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                T.add(T.tensor(np.ones(2)), 1.0)
            with T.phase("symbolic"):
                T.mul(T.tensor(np.ones(2)), 2.0)
        assert prof.trace.events[0].phase == "neural"
        assert prof.trace.events[1].phase == "symbolic"
        assert prof.trace.phases() == ["neural", "symbolic"]

    def test_stage_nesting_restores(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                with T.stage("a"):
                    T.add(T.tensor(np.ones(2)), 1.0)
                    with T.stage("b"):
                        T.add(T.tensor(np.ones(2)), 1.0)
                    T.add(T.tensor(np.ones(2)), 1.0)
        stages = [e.stage for e in prof.trace]
        assert stages == ["a", "b", "a"]

    def test_phase_without_context_is_noop(self):
        with T.phase("neural"):
            out = T.add(T.tensor(np.ones(2)), 1.0)
        np.testing.assert_allclose(out.numpy(), [2, 2])

    def test_untagged_events_have_empty_phase(self):
        with T.profile("w") as prof:
            T.add(T.tensor(np.ones(2)), 1.0)
        assert prof.trace.events[0].phase == ""

    def test_nested_contexts_record_to_innermost(self):
        with T.profile("outer") as outer:
            T.add(T.tensor(np.ones(2)), 1.0)
            with T.profile("inner") as inner:
                T.add(T.tensor(np.ones(2)), 1.0)
            T.add(T.tensor(np.ones(2)), 1.0)
        assert len(inner.trace) == 1
        assert len(outer.trace) == 2


class TestLiveMemory:
    def test_allocation_tracked(self):
        with T.profile("w") as prof:
            x = T.tensor(np.ones(1024, dtype=np.float32))
            assert prof.live_bytes >= 4096
            assert prof.peak_live_bytes >= 4096

    def test_release_on_gc(self):
        with T.profile("w") as prof:
            x = T.tensor(np.ones(1024, dtype=np.float32))
            before = prof.live_bytes
            del x
            gc.collect()
            assert prof.live_bytes < before

    def test_events_snapshot_live_bytes(self):
        with T.profile("w") as prof:
            big = T.tensor(np.ones((256, 256), dtype=np.float32))
            T.add(big, 1.0)
        assert prof.trace.events[-1].live_bytes >= big.nbytes


class TestRecordRegion:
    def test_region_records_one_event(self):
        with T.profile("w") as prof:
            with T.record_region("logic_loop", OpCategory.OTHER,
                                 flops=123.0, bytes_read=456):
                total = sum(range(1000))
        assert len(prof.trace) == 1
        event = prof.trace.events[0]
        assert event.name == "logic_loop"
        assert event.flops == 123.0
        assert event.bytes_read == 456
        assert event.wall_time > 0

    def test_region_counters_set_by_the_body_are_recorded(self):
        with T.profile("w") as prof:
            with T.record_region("logic_loop", flops=1.0) as region:
                region.flops = 7.0
                region.bytes_written = 24
        event = prof.trace.events[0]
        assert (event.flops, event.bytes_read, event.bytes_written) \
            == (7.0, 0, 24)

    def test_region_without_context(self):
        with T.record_region("x") as region:
            region.flops = 1.0  # must not raise

    def test_record_event_returns_eid(self):
        with T.profile("w") as prof:
            eid = T.record_event("marker", OpCategory.OTHER, flops=1.0)
        assert eid == 0
        assert prof.trace.events[0].name == "marker"

    def test_record_event_without_context_returns_none(self):
        assert T.record_event("marker", OpCategory.OTHER) is None


class TestTraceModel:
    def _simple_trace(self) -> Trace:
        with T.profile("w") as prof:
            with T.phase("neural"):
                a = T.tensor(np.ones(4, dtype=np.float32))
                b = T.add(a, 1.0)
            with T.phase("symbolic"):
                T.mul(b, 2.0)
        return prof.trace

    def test_selection_helpers(self):
        trace = self._simple_trace()
        assert len(trace.by_phase("neural")) == 1
        assert len(trace.by_phase("symbolic")) == 1
        assert len(trace.by_category(OpCategory.ELEMENTWISE)) == 2

    def test_aggregates(self):
        trace = self._simple_trace()
        assert trace.total_flops == pytest.approx(8.0)
        assert trace.total_bytes > 0
        shares = trace.flops_by_phase()
        assert shares["neural"] == pytest.approx(4.0)

    def test_count_by_name(self):
        trace = self._simple_trace()
        counts = trace.count_by_name()
        assert counts == {"add": 1, "mul": 1}

    def test_summary_fields(self):
        summary = self._simple_trace().summary()
        assert summary["workload"] == "w"
        assert summary["events"] == 2
        assert summary["phases"] == ["neural", "symbolic"]

    def test_merge_traces_renumbers(self):
        t1 = self._simple_trace()
        t2 = self._simple_trace()
        merged = merge_traces([t1, t2], workload="merged")
        assert len(merged) == 4
        eids = [e.eid for e in merged]
        assert eids == sorted(set(eids))
        # parent links stay internally consistent
        for event in merged:
            for parent in event.parents:
                assert parent < event.eid

    def test_event_properties(self):
        event = TraceEvent(eid=0, name="x", category=OpCategory.MATMUL,
                           flops=100.0, bytes_read=40, bytes_written=10)
        assert event.total_bytes == 50
        assert event.operational_intensity == pytest.approx(2.0)
        zero = TraceEvent(eid=1, name="y", category=OpCategory.OTHER)
        assert zero.operational_intensity == 0.0
