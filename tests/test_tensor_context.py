"""Tests for profiling contexts: phases, stages, nesting, live-memory
tracking, the heap policy, and the trace data model."""

import gc
import platform
import sys
import types
import weakref
from unittest import mock

import numpy as np
import pytest

from repro import tensor as T
from repro.core.columns import sums_by
from repro.core.profiler import Trace, TraceEvent, merge_traces
from repro.core.suite import characterize_trace
from repro.core.taxonomy import CATEGORY_ORDER, OpCategory
from repro.tensor import dispatch, heap
from repro.tensor.dispatch import run_op
from tests.conftest import fresh_python


class TestPhasesAndStages:
    def test_phase_tagging(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                T.add(T.tensor(np.ones(2)), 1.0)
            with T.phase("symbolic"):
                T.mul(T.tensor(np.ones(2)), 2.0)
        assert prof.trace[0].phase == "neural"
        assert prof.trace[1].phase == "symbolic"
        assert prof.trace.columns.phases == ["neural", "symbolic"]

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
        assert prof.trace[0].phase == ""

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

    def test_finished_context_is_freed_without_the_collector(self):
        gc.disable()
        try:
            with T.profile("w") as prof:
                with T.profile("inner"):
                    T.add(T.tensor(np.ones(8)), 1.0)
            gone = weakref.ref(prof)
            del prof
            assert gone() is None        # in no reference cycle
        finally:
            gc.enable()

    def test_events_snapshot_live_bytes(self):
        with T.profile("w") as prof:
            big = T.tensor(np.ones((256, 256), dtype=np.float32))
            T.add(big, 1.0)
        assert prof.trace[-1].live_bytes >= big.nbytes


def _vec(n):
    return np.ones(n, dtype=np.float32)


def _live(trace):
    return [event.live_bytes for event in trace]


class TestLiveBytesPinned:
    """Per-event live bytes and peaks of small runs, pinned as literals:
    nesting, a tensor outliving its profile, a collected cycle, copies
    that must release nothing, and a sparse matrix."""

    def test_nested_profiles(self):
        x = T.tensor(_vec(64))                  # made outside: untracked
        with T.profile("outer") as outer:
            a = T.add(x, 1.0)
            with T.profile("inner") as inner:
                b = T.mul(a, 2.0)
                c = T.add(b, b)
                del b
                T.sub(c, 1.0)                   # dropped at once
            mid = (outer.live_bytes, inner.live_bytes)
            del c
            T.add(a, T.tensor(_vec(64)))
        assert _live(outer.trace) == [256, 768]
        assert _live(inner.trace) == [256, 512, 512]
        assert mid == (512, 256)
        assert (outer.peak_live_bytes, inner.peak_live_bytes) == (768, 512)
        assert (outer.live_bytes, inner.live_bytes) == (256, 0)

    def test_tensor_outlives_its_profile(self):
        x = T.tensor(_vec(32))
        with T.profile("a") as a:
            kept = T.add(x, 1.0)
            T.mul(kept, 3.0)
        assert a.live_bytes == 128
        del kept
        assert a.live_bytes == 0
        with T.profile("b") as b:
            T.add(x, 2.0)
        assert _live(a.trace) == [128, 256] and _live(b.trace) == [128]
        assert (a.peak_live_bytes, b.peak_live_bytes) == (256, 128)

    def test_cycle_freed_by_the_collector(self):
        x = T.tensor(_vec(128))
        gc.collect()
        gc.disable()
        try:
            with T.profile("c") as c:
                t = T.add(x, 1.0)
                holder = [t]
                holder.append(holder)
                del t, holder                   # alive in the cycle
                T.mul(x, 2.0)
                assert gc.collect() > 0
                T.mul(x, 3.0)
        finally:
            gc.enable()
        assert _live(c.trace) == [512, 1024, 512]
        assert (c.peak_live_bytes, c.live_bytes) == (1024, 0)

    def test_copies_are_untracked(self):
        import copy
        import pickle
        x = T.tensor(_vec(48))
        with T.profile("d") as d:
            t = T.add(x, 1.0)
            twin, dup = copy.deepcopy(t), copy.copy(t)
            thawed = pickle.loads(pickle.dumps(t))
            np.testing.assert_array_equal(thawed.numpy(), t.numpy())
            assert thawed.producer == t.producer
            T.mul(twin, 2.0)
            del twin, dup, thawed               # must not release t's bytes
            T.mul(t, 3.0)
            del t
            T.mul(x, 4.0)
        assert _live(d.trace) == [192, 384, 384, 192]
        assert (d.peak_live_bytes, d.live_bytes) == (384, 0)

    def test_csr_matrix(self):
        import copy

        import scipy.sparse as sp

        from repro.tensor.sparse import CSRMatrix, spmm
        dense = np.zeros((8, 8), dtype=np.float32)
        dense[np.arange(8), np.arange(8)] = 1.0
        with T.profile("s") as s:
            m = CSRMatrix(sp.csr_matrix(dense))
            y = spmm(m, T.tensor(np.ones((8, 4), dtype=np.float32)))
            held = s.live_bytes
            twin = copy.deepcopy(m)
            assert s.live_bytes == held         # a copy counts nothing
            del twin, m
            T.add(T.tensor(_vec(4)), 1.0)
        assert y.shape == (8, 4)
        assert held == 228
        assert _live(s.trace) == [356, 160]
        assert (s.peak_live_bytes, s.live_bytes) == (356, 128)


class TestHeapPolicy:
    @pytest.mark.skipif(sys.platform != "linux"
                        or platform.libc_ver()[0] != "glibc",
                        reason="glibc's mallopt only")
    def test_warm_profiles_stop_faulting_in_their_temporaries(self):
        # a fresh process: this one's heap history would hide the faults
        done = fresh_python(
            "import resource\n"
            "from repro.workloads import create\n"
            "ltn = create('ltn', seed=0)\n"
            "for _ in range(2): ltn.profile()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(3): ltn.profile()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)")
        assert done.returncode == 0, done.stderr
        # about 10,000 when glibc trims the freed heap top after each
        assert int(done.stdout) < 100

    @pytest.mark.parametrize("libc", [
        mock.Mock(side_effect=OSError("no libc")),
        # Windows' CDLL refuses None as a library name
        mock.Mock(side_effect=TypeError("argument of type 'NoneType' "
                                        "is not iterable")),
        mock.Mock(return_value=types.SimpleNamespace()),
        mock.Mock(return_value=types.SimpleNamespace(
            mallopt=mock.Mock(return_value=0))),
    ], ids=["no-library", "windows", "no-mallopt", "refused"])
    def test_without_mallopt_it_does_nothing(self, libc):
        with mock.patch.object(heap.ctypes, "CDLL", libc):
            assert heap.keep_freed_memory_mapped() is False


class TestRecordRegion:
    def test_region_records_one_event(self):
        with T.profile("w") as prof:
            with T.record_region("logic_loop", flops=123.0,
                                 bytes_read=456):
                total = sum(range(1000))
        assert len(prof.trace) == 1
        event = prof.trace[0]
        assert event.name == "logic_loop"
        assert event.category is OpCategory.OTHER
        assert event.flops == 123.0
        assert event.bytes_read == 456
        assert event.wall_time > 0

    def test_region_counters_set_by_the_body_are_recorded(self):
        with T.profile("w") as prof:
            with T.record_region("logic_loop", flops=1.0) as region:
                region.flops = 7.0
                region.bytes_written = 24
        event = prof.trace[0]
        assert (event.flops, event.bytes_read, event.bytes_written) \
            == (7.0, 0, 24)

    def test_region_without_context(self):
        with T.record_region("x") as region:
            region.flops = 1.0  # must not raise


class TestOpCategory:
    def test_the_registry_decides_an_ops_category(self):
        with T.profile("w") as prof:
            x = T.tensor(_vec(4))
            T.matmul(x, x)
            T.to_device(x, "tx2")
            T.to_device(x, "tx2")
            with T.record_region("logic_loop"):
                pass
        assert [e.category for e in prof.trace] == [
            OpCategory.MATMUL, OpCategory.MOVEMENT, OpCategory.MOVEMENT,
            OpCategory.OTHER]

    def test_each_op_name_resolves_once(self, monkeypatch):
        # a wildcard name costs a scan of the registry; later ops of
        # that name read the memo
        resolved = []
        resolve = dispatch.category_for
        monkeypatch.setattr(dispatch, "category_for",
                            lambda name: resolved.append(name)
                            or resolve(name))
        monkeypatch.delitem(dispatch._CATEGORIES, "to_probe",
                            raising=False)
        with T.profile("w") as prof:
            for _ in range(3):
                T.to_device(T.tensor(_vec(2)), "probe")
        assert resolved == ["to_probe"]
        assert {e.category for e in prof.trace} == {OpCategory.MOVEMENT}

    def test_an_unregistered_op_fails_only_when_traced(self):
        # untraced, there is no event to classify
        out = run_op("not_registered", lambda a: a + 1.0, [_vec(2)])
        assert out.numpy().tolist() == [2.0, 2.0]
        with T.profile("w"):
            with pytest.raises(KeyError, match="not_registered"):
                run_op("not_registered", lambda a: a, [_vec(2)])


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
        cols = self._simple_trace().columns
        assert cols.in_phase("neural").sum() == 1
        assert cols.in_phase("symbolic").sum() == 1
        elementwise = CATEGORY_ORDER.index(OpCategory.ELEMENTWISE)
        assert (cols.category == elementwise).sum() == 2

    def test_aggregates(self):
        cols = self._simple_trace().columns
        assert sum(cols.flops.tolist()) == pytest.approx(8.0)
        assert sum(cols.total_bytes.tolist()) > 0
        flops = dict(zip(cols.phases, sums_by(cols.phase, cols.flops,
                                              len(cols.phases))))
        assert flops["neural"] == pytest.approx(4.0)

    def test_columns_are_kept_until_an_append(self):
        trace = self._simple_trace()
        columns = trace.columns
        assert trace.columns is columns and columns.n == 2
        trace.append(TraceEvent(eid=2, name="add",
                                category=OpCategory.ELEMENTWISE,
                                phase="other", flops=3.0))
        assert trace.columns is not columns
        assert trace.columns.n == 3
        assert trace.columns.flops.tolist()[-1] == 3.0
        assert trace.columns.phases == ["neural", "symbolic", "other"]

    def test_trace_with_read_columns_is_freed_without_the_collector(self):
        # a trace and its columns form no reference cycle: with the
        # cycle collector off, dropping the last reference frees it
        gc.disable()
        try:
            trace = self._simple_trace()
            characterize_trace(trace)
            assert trace.columns.n == 2
            alive = weakref.ref(trace)
            del trace
            assert alive() is None
        finally:
            gc.enable()

    def test_summary_fields(self):
        trace = self._simple_trace()
        assert trace.workload == "w"
        assert trace.columns.n == 2
        assert trace.columns.phases == ["neural", "symbolic"]

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

    def test_merge_keeps_every_field_but_ids_and_spans(self):
        t1 = self._simple_trace()
        t2 = self._simple_trace()
        merged = merge_traces([t1, t2], workload="merged")
        assert all(event.sid is not None for event in t1)
        for source, event in zip([*t1, *t2], merged):
            assert event.sid is None
            assert event._replace(eid=source.eid, parents=source.parents,
                                  sid=source.sid) == source

    def test_recorded_events_are_immutable(self):
        event = self._simple_trace()[1]
        for name in TraceEvent._fields:
            with pytest.raises(AttributeError):
                setattr(event, name, getattr(event, name))

    def test_facts_are_every_field_but_the_measured_ones(self):
        event = self._simple_trace()[1]
        facts = event.facts()
        assert list(facts) == [
            name for name in TraceEvent._fields
            if name not in ("wall_time", "t_start", "sid")]
        assert facts["category"] == "elementwise"
        for name, value in facts.items():
            if name != "category":
                assert value == getattr(event, name), name

    def test_event_properties(self):
        event = TraceEvent(eid=0, name="x", category=OpCategory.MATMUL,
                           flops=100.0, bytes_read=40, bytes_written=10)
        assert event.total_bytes == 50
