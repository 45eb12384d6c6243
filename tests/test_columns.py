"""The columnar analyses against the per-event reference.

Every view, the projection, ``validate_trace``, ``check_trace_health``
and ``counters_digest`` read a trace's
:class:`~repro.core.columns.TraceColumns`.  The
per-event formulation they replace lives on in
:mod:`tests.reference_analysis`; here both run on random traces, healthy
and broken, on all four devices, and must agree with exact floats and
the same dict orders.
"""

import builtins
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (flops_breakdown, latency_breakdown,
                                 operator_breakdown)
from repro.core.columns import TraceColumns, seq_sum, sums_by
from repro.core.inefficiency import InefficiencyReport
from repro.core.memory import memory_profile
from repro.core.opgraph import OpGraphReport, analyze_graph
from repro.core.profiler import Trace, TraceEvent
from repro.core.rooflineplot import phase_boundedness
from repro.core.sparsity import stage_sparsity
from repro.core.taxonomy import OpCategory
from repro.core.validate import validate_trace
from repro.hwsim import ALL_DEVICES, RTX_2080TI, XEON_4114, project_trace
from repro.hwsim.latency import ProjectedTrace
from repro.hwsim.schedule import simulate_schedule
from repro.hwsim.system import HeterogeneousSystem
from repro.obs.runrec import counters_digest
from repro.resilience.health import check_trace_health
from repro.serve import ArtifactCache, make_request
from repro.serve.batcher import Batch
from repro.serve.pool import Worker
from repro.workloads import available, create
from tests import reference_analysis as ref
from tests.conftest import cached_trace


def canon(value):
    """``value`` with every float as its exact hex (NaN as "nan") and
    every dict as its item list, so == compares bits and order."""
    if isinstance(value, float):
        return ("nan",) if math.isnan(value) else ("f", value.hex())
    if isinstance(value, (np.floating, np.integer)):
        return ("numpy", type(value).__name__)
    if isinstance(value, dict):
        return ("d", [(canon(k), canon(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(v) for v in value])
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__,
                [(name, canon(getattr(value, name)))
                 for name in value.__dataclass_fields__ if name != "trace"])
    return value


def outcome(fn, *args):
    """``fn(*args)`` canonicalized, or the error it raised."""
    try:
        return canon(fn(*args))
    except ValueError as exc:
        return ("raised", str(exc))


NAMES = ("add", "matmul", "to_gpu", "to_host", "to_device_copy", "copy",
         "conv2d", "kb_forward_chain")
FLOPS = st.one_of(st.floats(0.0, 1e12), st.just(0.0), st.just(math.nan),
                  st.just(math.inf), st.floats(-1e6, -1e-3),
                  st.sampled_from([1e7, 5e7, 1e6]))
BYTES = st.one_of(st.just(0), st.integers(-64, 10**10))
WALL = st.one_of(st.floats(0.0, 1e-2), st.just(0.0), st.just(math.nan),
                 st.just(math.inf), st.floats(-1e-3, 0.0))
SPARSITY = st.one_of(st.floats(0.0, 1.0), st.just(math.nan),
                     st.floats(-0.5, 1.5))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        eids = list(range(n))          # as the profiler numbers them
    else:                              # repeated or decreasing ids
        eids = draw(st.lists(st.integers(-2, 30), min_size=n, max_size=n))
    trace = Trace(draw(st.sampled_from(["w", "lnn"])))
    for i, eid in enumerate(eids):
        earlier = eids[:i] or [0]
        parents = draw(st.lists(st.one_of(
            st.sampled_from(earlier),   # real, and repeats of them
            st.integers(-3, 40),        # missing or non-causal
            st.just(eid)), max_size=3))
        trace.append(TraceEvent(
            eid=eid,
            name=draw(st.sampled_from(NAMES)),
            category=draw(st.sampled_from(list(OpCategory))),
            phase=draw(st.sampled_from(["neural", "symbolic", "", "x"])),
            stage=draw(st.sampled_from(["a", "b", "", "<untagged>"])),
            flops=draw(FLOPS),
            bytes_read=draw(BYTES),
            bytes_written=draw(BYTES),
            output_shape=tuple(draw(st.lists(st.integers(0, 5),
                                             max_size=3))),
            output_sparsity=draw(SPARSITY),
            wall_time=draw(WALL),
            parents=tuple(parents),
            live_bytes=draw(st.integers(-64, 10**9))))
    if draw(st.booleans()):
        trace.metadata["peak_live_bytes"] = draw(st.integers(0, 10**9))
    return trace


class TestAgainstPerEventReference:
    @settings(max_examples=150, deadline=None)
    @given(trace=traces())
    def test_views_and_checks_match(self, trace):
        for device in ALL_DEVICES:
            projected = project_trace(trace, device)
            reference = ref.ProjectedTrace(trace, device)
            assert canon([(c.compute_time, c.memory_time, c.total)
                          for c in reference.costs]) == canon(list(zip(
                              projected.compute.tolist(),
                              projected.memory.tolist(),
                              projected.total.tolist())))
            assert projected.memory_bound.tolist() == [
                c.bound == "memory" for c in reference.costs]
            for phase in (None, "neural", "symbolic", "", "absent"):
                assert canon(projected.time_by_category(phase)) == \
                    canon(reference.time_by_category(phase))
                assert canon(projected.memory_bound_fraction(phase)) == \
                    canon(reference.memory_bound_fraction(phase))
            for view, oracle in ((latency_breakdown, ref.latency_breakdown),
                                 (operator_breakdown,
                                  ref.operator_breakdown),
                                 (phase_boundedness, ref.phase_boundedness),
                                 (analyze_graph, ref.analyze_graph)):
                assert outcome(view, projected) == outcome(oracle, reference)
        assert canon(memory_profile(trace)) == \
            canon(ref.memory_profile(trace))
        assert canon(flops_breakdown(trace)) == \
            canon(ref.flops_breakdown(trace))
        for min_elements in (1, 2):
            assert canon(stage_sparsity(trace, min_elements=min_elements)) \
                == canon(ref.stage_sparsity(trace, min_elements=min_elements))
        for phases in (None, ("neural", "symbolic")):
            for require_flops in (True, False):
                assert validate_trace(trace, phases, require_flops).errors \
                    == ref.validate_errors(trace, phases, require_flops)
            assert canon(check_trace_health(trace, phases)) == \
                canon(ref.check_trace_health(trace, phases))
        assert counters_digest(trace) == ref.counters_digest(trace)


def _poisoned(source, how):
    """A new trace of ``source``'s events, broken in one of six ways:
    each broken event is a new event with the broken fields."""
    events = list(source)
    metadata = dict(source.metadata)
    n = len(events)

    def edit(i, **fields):
        events[i] = events[i]._replace(**fields)

    if how == 0:
        edit(n // 3, flops=math.nan)
        edit(n // 2, output_sparsity=math.inf)
    elif how == 1:
        edit(1, bytes_read=math.inf)
        edit(2, live_bytes=-5)
        edit(3, wall_time=-1.0)
        edit(4, bytes_written=math.nan)
    elif how == 2:
        edit(4, eid=events[3].eid)
        edit(5, parents=(10 ** 6, events[5].eid, 0))
    elif how == 3:
        edit(0, live_bytes=math.nan)
        metadata["peak_live_bytes"] = 1
        for i in range(0, n, 7):
            edit(i, flops=-1.0)
    elif how == 4:
        for i, event in enumerate(events):
            edit(i, phase="neural" if event.phase == "symbolic" else "")
    else:
        events.reverse()
    trace = Trace(source.workload, events)
    trace.metadata = metadata
    return trace


@pytest.mark.parametrize("how", range(6))
def test_poisoned_workload_trace_checks_match(lnn_trace, how):
    trace = _poisoned(lnn_trace, how)
    for phases in (None, ("neural", "symbolic")):
        assert validate_trace(trace, phases).errors == \
            ref.validate_errors(trace, phases)
        assert canon(check_trace_health(trace, phases)) == \
            canon(ref.check_trace_health(trace, phases))
    for device in ALL_DEVICES:
        projected = project_trace(trace, device)
        reference = ref.ProjectedTrace(trace, device)
        assert canon(projected.total.tolist()) == \
            canon([c.total for c in reference.costs])
        assert outcome(analyze_graph, projected) == \
            outcome(ref.analyze_graph, reference)


class TestColumns:
    def test_nan_memory_roof_keeps_the_compute_roof(self):
        # max(compute, nan) is compute for the builtin, nan for np.maximum
        event = TraceEvent(eid=0, name="to_gpu", category=OpCategory.MOVEMENT,
                           flops=1e6, bytes_read=math.nan)
        for device in ALL_DEVICES:
            total = project_trace(Trace("w", [event]), device).total[0]
            assert canon(float(total)) == \
                canon(ref.project_event(event, device).total)

    def test_sums_stay_sequential(self):
        # one at a time, each 1.0 is lost against 1e16; np.sum adds
        # them pairwise and keeps 14 of them
        values = np.array([1e16] + [1.0] * 15 + [-1e16])
        codes = np.zeros(len(values), dtype=np.intp)
        assert sums_by(codes, values, 1) == [0.0]
        assert seq_sum(values) == ref.running_total(values.tolist()) == 0.0
        assert np.sum(values) == 14.0
        # an integer column adds as integers: 2**53 + 1 survives
        assert sums_by(np.array([0, 1, 0]), np.array([2**53, 7, 1]), 2) \
            == [2**53 + 1, 7]

    def test_seq_sum_is_a_running_total_from_zero(self):
        empty = seq_sum(np.array([]))
        assert empty == 0.0 and isinstance(empty, float)
        assert math.copysign(1.0, seq_sum(np.array([-0.0, -0.0]))) == 1.0
        values = np.array([0.1, -0.0, 1e16, 3.0, -1e16, 0.2])
        assert canon(seq_sum(values)) == \
            canon(ref.running_total(values.tolist()))

    def test_float_totals_are_running_totals(self, monkeypatch):
        # added one at a time from 0.0, each 1.0 is lost against 1e16;
        # a compensated sum (the builtin from Python 3.12, here fsum)
        # keeps them, and a total taken with it, with every pin that
        # digests one, would depend on the Python version
        values = [1e16] + [1.0] * 15 + [-1e16]
        monkeypatch.setattr(builtins, "sum", math.fsum)
        assert sum(values) == 15.0 and ref.running_total(values) == 0.0
        categories = ([OpCategory.MATMUL] + [OpCategory.ELEMENTWISE] * 15
                      + [OpCategory.MOVEMENT])
        events = [TraceEvent(eid=i, name="add", category=category,
                             phase="neural", flops=value, wall_time=value)
                  for i, (value, category)
                  in enumerate(zip(values, categories))]
        trace = Trace("w", events)
        totals = np.array(values)
        projected = ProjectedTrace(trace, ALL_DEVICES[0],
                                   totals, totals, totals)
        assert canon(projected.total_time) == canon(0.0)
        # by category 1e16, 15.0 and -1e16: 16.0 added in order
        breakdown, = operator_breakdown(projected)
        assert canon(breakdown.total_time) == canon(16.0)
        errors = validate_trace(trace).errors
        assert "trace performed no floating-point work" in errors
        assert errors == ref.validate_errors(trace)
        health = check_trace_health(trace)
        latency, = [c for c in health.checks if c.name == "nonzero_latency"]
        assert latency.detail == "total wall time is 0.0"
        assert canon(health) == canon(ref.check_trace_health(trace))

    def test_report_totals_are_running_totals(self, monkeypatch):
        # 1e16, 1.0, -1e16 add to 0.0 one at a time and to 1.0 compensated
        monkeypatch.setattr(builtins, "sum", math.fsum)
        graph = OpGraphReport(
            workload="w", num_nodes=3, num_edges=0, cross_phase_edges=0,
            symbolic_depends_on_neural=False,
            neural_depends_on_symbolic=False, critical_path_time=1.0,
            critical_path_length=3,
            critical_path_phase_times={"neural": 1e16, "symbolic": 1.0,
                                       "": -1e16},
            total_time=1.0, max_width=1)
        assert graph.symbolic_on_critical_path == 0.0
        kernels = [SimpleNamespace(kind="symbolic", alu_utilization_pct=value)
                   for value in (1e16, 1.0, -1e16)]
        report = InefficiencyReport(device="d", counters=kernels)
        assert canon(report._mean("symbolic", "alu_utilization_pct")) == \
            canon(0.0)

    def test_integer_counters_fall_back_to_float(self):
        trace = Trace("w", [
            TraceEvent(eid=0, name="add", category=OpCategory.ELEMENTWISE,
                       bytes_read=8, live_bytes=8),
            TraceEvent(eid=1, name="add", category=OpCategory.ELEMENTWISE,
                       bytes_read=math.inf, live_bytes=math.nan)])
        columns = trace.columns
        assert columns.bytes_written.dtype == np.int64
        assert columns.bytes_read.dtype == np.float64
        assert math.isnan(columns.live_bytes[1])

    def test_counters_beyond_int64_fall_back_to_float(self):
        # a log may hold any integer: too large for int64, or only
        # representable as uint64, the column is float64 and every
        # check and view still runs as the per-event code did
        events = [TraceEvent(eid=i, name="add",
                             category=OpCategory.ELEMENTWISE,
                             phase=phase, stage="a", flops=1e6,
                             bytes_read=10 ** 30 if i else 8,
                             live_bytes=2 ** 63, wall_time=1e-6,
                             output_shape=(10 ** 10, 10 ** 10 + i),
                             parents=(i - 1,) if i else ())
                  for i, phase in enumerate(("neural", "symbolic"))]
        trace = Trace("w", events)
        columns = trace.columns
        assert {columns.bytes_read.dtype, columns.live_bytes.dtype,
                columns.elements.dtype} == {np.dtype(np.float64)}
        assert validate_trace(trace).errors == ref.validate_errors(trace)
        assert canon(check_trace_health(trace)) == \
            canon(ref.check_trace_health(trace))
        assert canon(stage_sparsity(trace, min_elements=1)) == \
            canon(ref.stage_sparsity(trace, min_elements=1))
        for device in ALL_DEVICES:
            projected = project_trace(trace, device)
            reference = ref.ProjectedTrace(trace, device)
            assert canon(projected.total.tolist()) == \
                canon([c.total for c in reference.costs])
            assert outcome(latency_breakdown, projected) == \
                outcome(ref.latency_breakdown, reference)
        # each byte count fits in int64, their sum does not
        wide = Trace("w", [TraceEvent(
            eid=0, name="add", category=OpCategory.ELEMENTWISE,
            phase="neural", flops=1e6, bytes_read=2 ** 62,
            bytes_written=2 ** 62)])
        assert wide.columns.total_bytes.tolist() == [2.0 ** 63]
        assert counters_digest(wide) == ref.counters_digest(wide)
        for device in ALL_DEVICES:
            assert canon(project_trace(wide, device).total.tolist()) == \
                canon([c.total for c in ref.ProjectedTrace(wide, device).costs])


@pytest.mark.parametrize("name", available())
def test_counters_digest_matches_per_event_digest(name):
    trace = cached_trace(name, seed=0)
    assert counters_digest(trace) == ref.counters_digest(trace)
    for how in range(6):
        poisoned = _poisoned(trace, how)
        assert counters_digest(poisoned) == ref.counters_digest(poisoned)


def test_no_event_is_edited_after_the_columns_are_read():
    # the columns are cached on the event count alone: an event
    # replaced or removed in place would leave them stale
    trace = create("ltn", seed=0).profile()
    columns = trace.columns
    first = trace[0]
    edited = first._replace(flops=first.flops + 1_000_000)
    with pytest.raises(AttributeError):
        trace.events[0] = edited
    with pytest.raises(TypeError):
        trace[0] = edited
    with pytest.raises(TypeError):
        del trace[0]
    assert trace[0] is first and len(trace) == columns.n
    assert trace.columns is columns
    assert columns.flops.tolist() == [e.flops for e in trace]
    assert counters_digest(trace) == ref.counters_digest(trace)


@pytest.mark.parametrize("name", ["ltn", "mcts"])
def test_model_totals_are_running_totals(name, monkeypatch):
    # each of these totals moves in its low bits when a compensated sum
    # (the builtin from Python 3.12, here fsum) takes it
    trace = cached_trace(name, seed=0)

    def totals():
        system = HeterogeneousSystem(XEON_4114, RTX_2080TI).project(trace)
        return canon((system.total_time, system.transfer_time,
                      simulate_schedule(trace, RTX_2080TI).serial_time))

    expected = totals()
    monkeypatch.setattr(builtins, "sum", math.fsum)
    assert totals() == expected


def test_served_batch_extracts_its_columns_once(monkeypatch):
    # the runner's health check, its characterization and the digest
    # a caller takes afterwards all read the one extraction
    extractions = []
    extract = TraceColumns.__init__

    def counted_extract(self, events):
        extractions.append(len(events))
        extract(self, events)

    monkeypatch.setattr(TraceColumns, "__init__", counted_extract)
    worker = Worker(0, RTX_2080TI, ArtifactCache(capacity=4))
    request = make_request(0, "lnn", seed=0)
    result = worker.execute_batch(
        Batch(bid=0, key=request.key, requests=[request]))
    assert result.status == "ok"
    assert counters_digest(result.trace) == ref.counters_digest(result.trace)
    assert extractions == [len(result.trace)]
