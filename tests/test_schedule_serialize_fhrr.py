"""Tests for the schedule simulator, trace serialization (the JSONL
event log), and the FHRR hypervector space."""

import json

import numpy as np
import pytest

from repro import tensor as T
from repro.core.analysis import phase_compute_utilization
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace, TraceEvent
from repro.core.taxonomy import OpCategory
from repro.core.validate import validate_trace
from repro.hwsim import RTX_2080TI
from repro.hwsim.schedule import simulate_schedule
from repro.obs.jsonl import (event_from_dict, read_jsonl,
                             trace_from_jsonl_lines, trace_to_jsonl,
                             write_jsonl)
from repro.vsa import FHRRSpace, make_space
from tests.conftest import cached_trace


class TestScheduleSimulator:
    def test_serial_chain_no_speedup(self):
        with T.profile("chain") as prof:
            x = T.tensor(np.ones(1024, dtype=np.float32))
            for _ in range(10):
                x = T.add(x, 1.0)
        result = simulate_schedule(prof.trace, RTX_2080TI,
                                   max_concurrency=8)
        assert result.speedup == pytest.approx(1.0, rel=1e-6)

    def test_independent_ops_parallelize(self):
        with T.profile("fanout") as prof:
            base = T.tensor(np.ones(1024, dtype=np.float32))
            for _ in range(8):
                T.add(base, 1.0)   # eight independent consumers
        result = simulate_schedule(prof.trace, RTX_2080TI,
                                   max_concurrency=4)
        assert result.speedup > 3.0

    def test_concurrency_bound_respected(self):
        with T.profile("fanout") as prof:
            base = T.tensor(np.ones(1024, dtype=np.float32))
            for _ in range(8):
                T.add(base, 1.0)
        result = simulate_schedule(prof.trace, RTX_2080TI,
                                   max_concurrency=2)
        # never more than 2 events overlap
        for a in result.events:
            overlapping = sum(
                1 for b in result.events
                if b.start < a.finish and a.start < b.finish)
            assert overlapping <= 2

    def test_dependencies_respected(self, nvsa_trace):
        result = simulate_schedule(nvsa_trace, RTX_2080TI)
        finish_of = {e.eid: e.finish for e in result.events}
        start_of = {e.eid: e.start for e in result.events}
        for event in nvsa_trace:
            for parent in event.parents:
                if parent in finish_of:
                    assert start_of[event.eid] >= \
                        finish_of[parent] - 1e-12

    def test_all_events_scheduled(self, nvsa_trace):
        result = simulate_schedule(nvsa_trace, RTX_2080TI)
        assert len(result.events) == len(nvsa_trace)
        assert result.makespan <= result.serial_time + 1e-12

    def test_utilization_timeline_bounds(self, nvsa_trace):
        result = simulate_schedule(nvsa_trace, RTX_2080TI)
        timeline = result.utilization_timeline(windows=20)
        assert len(timeline) == 20
        for _, utilization in timeline:
            assert 0.0 <= utilization <= 1.0 + 1e-9

    def test_validation(self, nvsa_trace):
        with pytest.raises(ValueError):
            simulate_schedule(nvsa_trace, RTX_2080TI, max_concurrency=0)

    def test_phase_compute_utilization_contrast(self, nvsa_trace):
        utilization = phase_compute_utilization(nvsa_trace, RTX_2080TI)
        assert utilization[PHASE_NEURAL] > utilization[PHASE_SYMBOLIC]


def _round_trip(trace: Trace) -> Trace:
    return trace_from_jsonl_lines(trace_to_jsonl(trace).splitlines())


class TestTraceSerialization:
    """The JSONL log stores every event field losslessly."""

    def test_round_trip_preserves_everything(self, ltn_trace):
        restored = _round_trip(ltn_trace)
        assert len(restored) == len(ltn_trace)
        assert restored.workload == ltn_trace.workload
        for before, after in zip(ltn_trace, restored):
            for name in before._fields:
                assert getattr(after, name) == getattr(before, name), name
            assert after.category is before.category

    def test_round_trip_is_json_safe(self, ltn_trace):
        for line in trace_to_jsonl(ltn_trace).splitlines():
            json.loads(line)  # one JSON document per line

    def test_restored_trace_validates_and_analyzes(self, ltn_trace):
        restored = _round_trip(ltn_trace)
        assert validate_trace(restored).ok
        from repro.core.analysis import latency_breakdown
        from repro.hwsim import project_trace
        lb_a = latency_breakdown(project_trace(ltn_trace, RTX_2080TI))
        lb_b = latency_breakdown(project_trace(restored, RTX_2080TI))
        assert lb_b.total_time == lb_a.total_time

    def test_file_round_trip(self, tmp_path, ltn_trace):
        target = tmp_path / "trace.jsonl"
        write_jsonl(ltn_trace, str(target))
        restored = read_jsonl(str(target))
        assert len(restored) == len(ltn_trace)

    def test_round_trip_preserves_sid(self, nvsa_trace):
        restored = _round_trip(nvsa_trace)
        assert [e.sid for e in restored] == [e.sid for e in nvsa_trace]
        assert any(e.sid is not None for e in restored)

    def test_v1_archive_loads_with_sid_none(self):
        # events written before per-span attribution carry no "sid"
        event = event_from_dict({"eid": 0, "name": "add",
                                 "category": "elementwise"})
        assert event.sid is None

    def test_non_json_metadata_stringified(self):
        trace = Trace("t")
        trace.metadata["obj"] = object()
        trace.append(TraceEvent(eid=0, name="x",
                                category=OpCategory.OTHER))
        meta = json.loads(trace_to_jsonl(trace).splitlines()[0])
        assert isinstance(meta["metadata"]["obj"], str)
        assert _round_trip(trace).metadata["obj"] == \
            repr(trace.metadata["obj"])


class TestFHRRSpace:
    space = FHRRSpace(1024)
    rng = np.random.default_rng(5)

    def test_unit_magnitude(self):
        vec = self.space.random(self.rng, 2).numpy()
        np.testing.assert_allclose(np.abs(vec), 1.0, rtol=1e-5)

    def test_exact_unbinding(self):
        a = self.space.random(self.rng, 1)
        b = self.space.random(self.rng, 1)
        recovered = self.space.unbind(a, self.space.bind(a, b))
        sim = self.space.similarity(recovered, b).item()
        assert sim == pytest.approx(1.0, abs=1e-5)

    def test_quasi_orthogonal(self):
        a = self.space.random(self.rng, 1)
        b = self.space.random(self.rng, 1)
        assert abs(self.space.similarity(a, b).item()) < 0.15

    def test_bundle_similar_to_members(self):
        members = self.space.random(self.rng, 4)
        bundled = self.space.bundle(members)
        for i in range(4):
            member = T.index(members, i)
            assert self.space.similarity(bundled, member).item() > 0.25

    def test_bundle_output_is_phasor(self):
        members = self.space.random(self.rng, 3)
        bundled = self.space.bundle(members).numpy()
        np.testing.assert_allclose(np.abs(bundled), 1.0, rtol=1e-4)

    def test_factory(self):
        assert isinstance(make_space("fhrr", 64), FHRRSpace)
