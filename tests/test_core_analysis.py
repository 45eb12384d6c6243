"""Tests for the characterization analyses: latency/operator breakdowns,
memory, opgraph, sparsity, scaling, inefficiency, validation, suite."""

import numpy as np
import pytest

from repro import tensor as T
from repro.core import (CATEGORY_ORDER, OpCategory, analyze_graph,
                        analyze_inefficiency, flops_breakdown,
                        latency_breakdown, memory_profile,
                        operator_breakdown, overall_sparsity,
                        phase_boundedness, roofline_figure, stage_sparsity,
                        validate_trace)
from repro.core.profiler import (PHASE_NEURAL, PHASE_SYMBOLIC, Trace,
                                 TraceEvent)
from repro.core.scaling import nvsa_task_size_study, sweep
from repro.core.suite import characterize, characterize_trace
from repro.hwsim import RTX_2080TI, project_trace
from repro.core.columns import TraceColumns
from repro.hwsim.latency import ProjectedTrace
from repro.workloads import create
from tests.conftest import cached_trace, fresh_python


class TestLatencyBreakdown:
    def test_fractions_sum_to_one(self, nvsa_trace):
        lb = latency_breakdown(project_trace(nvsa_trace, RTX_2080TI))
        assert lb.neural_fraction + lb.symbolic_fraction == \
            pytest.approx(1.0, abs=1e-6)

    def test_nvsa_symbolic_dominant(self, nvsa_trace):
        lb = latency_breakdown(project_trace(nvsa_trace, RTX_2080TI))
        assert lb.symbolic_fraction > 0.8

    def test_stage_times_cover_total(self, nvsa_trace):
        lb = latency_breakdown(project_trace(nvsa_trace, RTX_2080TI))
        assert sum(lb.stage_times.values()) == pytest.approx(
            lb.total_time, rel=1e-6)

    def test_event_counts(self, nvsa_trace):
        lb = latency_breakdown(project_trace(nvsa_trace, RTX_2080TI))
        assert sum(lb.event_counts.values()) == len(nvsa_trace)


class TestOperatorBreakdown:
    def test_shares_sum_to_one(self, nvsa_trace):
        for ob in operator_breakdown(project_trace(nvsa_trace, RTX_2080TI)):
            assert sum(ob.shares().values()) == pytest.approx(1.0,
                                                              abs=1e-6)

    def test_neural_has_convolution(self, nvsa_trace):
        projected = project_trace(nvsa_trace, RTX_2080TI)
        obs = {ob.phase: ob for ob in operator_breakdown(projected)}
        assert obs[PHASE_NEURAL].share(OpCategory.CONVOLUTION) > 0.05
        assert obs[PHASE_SYMBOLIC].share(OpCategory.CONVOLUTION) == 0.0

    def test_symbolic_dominated_by_vector_ops(self, nvsa_trace):
        projected = project_trace(nvsa_trace, RTX_2080TI)
        obs = {ob.phase: ob for ob in operator_breakdown(projected)}
        symbolic = obs[PHASE_SYMBOLIC]
        assert symbolic.dominant_category in (
            OpCategory.ELEMENTWISE, OpCategory.TRANSFORM)

    def test_ltn_symbolic_has_others(self, ltn_trace):
        projected = project_trace(ltn_trace, RTX_2080TI)
        obs = {ob.phase: ob for ob in operator_breakdown(projected)}
        assert obs[PHASE_SYMBOLIC].share(OpCategory.OTHER) > 0.0

    def test_flops_breakdown_nvsa(self, nvsa_trace):
        shares = flops_breakdown(nvsa_trace)
        # time-dominant symbolic phase is the FLOPs minority (Takeaway 1)
        assert shares[PHASE_SYMBOLIC] < 0.5


class TestMemoryProfile:
    def test_basic_fields(self, nvsa_trace):
        profile = memory_profile(nvsa_trace)
        assert profile.peak_live_bytes > 0
        assert profile.parameter_bytes > 0
        assert profile.codebook_bytes > profile.parameter_bytes

    def test_phase_peaks(self, prae_trace):
        profile = memory_profile(prae_trace)
        assert PHASE_SYMBOLIC in profile.peak_live_by_phase
        assert profile.phase_peak_fraction(PHASE_SYMBOLIC) > 0

    def test_zeroc_neural_memory_heavy(self, zeroc_trace):
        profile = memory_profile(zeroc_trace)
        assert profile.traffic_by_phase[PHASE_NEURAL] > \
            profile.traffic_by_phase[PHASE_SYMBOLIC]


class TestBoundedness:
    def test_nvsa_phases(self, nvsa_trace):
        bounds = phase_boundedness(project_trace(nvsa_trace, RTX_2080TI))
        assert bounds[PHASE_NEURAL] == "compute"
        assert bounds[PHASE_SYMBOLIC] == "memory"

    def test_roofline_figure_points(self, all_traces):
        fig = roofline_figure(list(all_traces.values()), RTX_2080TI)
        assert len(fig.points) == 14  # 7 workloads x 2 phases
        assert fig.ridge_point == pytest.approx(RTX_2080TI.ridge_point)


class TestOpGraph:
    def test_graph_structure(self, nvsa_trace):
        report = analyze_graph(project_trace(nvsa_trace, RTX_2080TI))
        assert report.num_nodes == len(nvsa_trace)
        assert report.num_edges > 0

    def test_nvsa_symbolic_depends_on_neural(self, nvsa_trace):
        report = analyze_graph(project_trace(nvsa_trace, RTX_2080TI))
        assert report.symbolic_depends_on_neural

    def test_nlm_compiles_symbolic_into_neural(self, nlm_trace):
        """NLM interleaves: symbolic wiring feeds neural MLPs."""
        report = analyze_graph(project_trace(nlm_trace, RTX_2080TI))
        assert report.neural_depends_on_symbolic

    def test_critical_path_bounded_by_total(self, nvsa_trace):
        report = analyze_graph(project_trace(nvsa_trace, RTX_2080TI))
        assert 0 < report.critical_path_time <= report.total_time
        assert 0 < report.serialization <= 1.0

    def test_symbolic_on_critical_path(self, nvsa_trace):
        report = analyze_graph(project_trace(nvsa_trace, RTX_2080TI))
        assert report.symbolic_on_critical_path > 0.2

    def test_phase_sub_trace_skips_absent_parents(self, nvsa_trace):
        symbolic = Trace(nvsa_trace.workload, [
            e for e in nvsa_trace if e.phase == PHASE_SYMBOLIC])
        report = analyze_graph(project_trace(symbolic, RTX_2080TI))
        assert report.num_nodes == len(symbolic)
        assert report.cross_phase_edges == 0


def _projected(*events):
    """A hand-built projection: (eid, phase, parents, latency) tuples,
    each event's latency exact as its compute time."""
    trace = Trace("hand")
    latencies = []
    for eid, phase, parents, latency in events:
        trace.append(TraceEvent(eid=eid, name=f"op{eid}", phase=phase,
                                category=OpCategory.OTHER, parents=parents))
        latencies.append(latency)
    compute = np.array(latencies, dtype=np.float64)
    return ProjectedTrace(trace, RTX_2080TI, compute,
                          np.zeros_like(compute), compute.copy())


class TestOpGraphSweep:
    """``analyze_graph`` on hand-built traces with known answers."""

    def test_known_dag(self):
        report = analyze_graph(_projected(
            (0, PHASE_NEURAL, (), 1.0),
            (1, PHASE_NEURAL, (0, 0), 2.0),          # duplicated parent
            (2, PHASE_NEURAL, (), 4.0),
            (3, PHASE_SYMBOLIC, (1, 2, 99), 1.0),    # 99 is absent
            (4, PHASE_SYMBOLIC, (3,), 1.0)))
        assert report.num_nodes == 5
        assert report.num_edges == 4                  # 0-1, 1-3, 2-3, 3-4
        assert report.cross_phase_edges == 2
        assert report.symbolic_depends_on_neural
        assert not report.neural_depends_on_symbolic
        # critical path 2 -> 3 -> 4 (4 + 1 + 1), not 0 -> 1 -> 3 -> 4
        assert report.critical_path_time == 6.0
        assert report.critical_path_length == 3
        assert report.critical_path_phase_times == {PHASE_NEURAL: 4.0,
                                                    PHASE_SYMBOLIC: 2.0}
        assert report.total_time == 9.0
        # generations {0, 2}, {1}, {3}, {4}
        assert report.max_width == 2

    def test_ties(self):
        report = analyze_graph(_projected(
            (0, PHASE_SYMBOLIC, (), 1.0),
            (1, PHASE_NEURAL, (), 1.0),
            (2, PHASE_NEURAL, (0, 1), 1.0),   # tied parents: larger eid
            (3, PHASE_NEURAL, (), 2.0)))      # tied end: first in order
        # 1 -> 2: neither 0 -> 2 nor 3 alone
        assert report.critical_path_time == 2.0
        assert report.critical_path_length == 2
        assert report.critical_path_phase_times == {PHASE_NEURAL: 2.0}
        assert report.max_width == 3

    @pytest.mark.parametrize("parents", [(1,), (0,)])
    def test_parent_at_or_after_its_child_raises(self, parents):
        with pytest.raises(ValueError, match="event 0 "):
            analyze_graph(_projected((0, PHASE_NEURAL, parents, 1.0),
                                     (1, PHASE_NEURAL, (), 1.0)))

    def test_empty_trace(self):
        report = analyze_graph(_projected())
        assert (report.num_nodes, report.critical_path_length,
                report.critical_path_time, report.max_width) == (0, 0, 0.0, 0)


class TestOneProjection:
    """``characterize_trace`` projects once; the four views never do.

    Every projection, however its module imported ``project_trace``,
    builds a ``ProjectedTrace`` and every extraction a ``TraceColumns``,
    so the tests count and refuse those two constructors.
    """

    def test_characterize_projects_once(self, nvsa_trace, monkeypatch):
        projections, extractions = [], []
        project = ProjectedTrace.__init__
        extract = TraceColumns.__init__

        def counted_project(self, trace, device, *arrays):
            projections.append(device.name)
            project(self, trace, device, *arrays)

        def counted_extract(self, events):
            extractions.append(len(events))
            extract(self, events)

        monkeypatch.setattr(ProjectedTrace, "__init__", counted_project)
        monkeypatch.setattr(TraceColumns, "__init__", counted_extract)
        # a new trace of the same events, whose columns nobody read yet
        trace = Trace(nvsa_trace.workload, nvsa_trace)
        characterize_trace(trace, RTX_2080TI)
        assert projections == [RTX_2080TI.name]
        assert extractions == [len(trace)]

    def test_views_do_not_project(self, nvsa_trace, monkeypatch):
        projected = project_trace(nvsa_trace, RTX_2080TI)

        def refuse(*args, **kwargs):
            raise AssertionError("a view projected the trace again")

        monkeypatch.setattr(ProjectedTrace, "__init__", refuse)
        monkeypatch.setattr(TraceColumns, "__init__", refuse)
        latency_breakdown(projected)
        operator_breakdown(projected)
        phase_boundedness(projected)
        analyze_graph(projected)

    def test_suite_does_not_import_networkx(self):
        done = fresh_python("import sys, repro.core.suite; "
                            "assert 'networkx' not in sys.modules")
        assert done.returncode == 0, done.stderr


class TestSparsity:
    def test_stage_sparsity_selects_stages(self, nvsa_trace):
        stats = stage_sparsity(nvsa_trace, ["pmf_to_vsa"])
        assert len(stats) == 1
        assert stats[0].num_events > 0

    def test_pmf_filter_finds_sparse_tensors(self, nvsa_trace):
        stats = stage_sparsity(nvsa_trace, ["pmf_to_vsa"],
                               last_dim_in=[5, 6, 10])
        assert stats[0].maximum > 0.7

    def test_overall_sparsity_in_range(self, nvsa_trace):
        value = overall_sparsity(nvsa_trace)
        assert 0.0 <= value <= 1.0

    def test_missing_stage_yields_nothing(self, nvsa_trace):
        assert stage_sparsity(nvsa_trace, ["nonexistent"]) == []

    @pytest.mark.parametrize("last_dim_in", [None, [5, 6, 10, 300]])
    def test_one_pass_equals_a_rescan_per_stage(self, nvsa_trace,
                                                last_dim_in):
        """Each stage aggregates its events in trace order, exactly as
        a rescan of the whole trace per stage would."""
        stages = [s for s in nvsa_trace.columns.stages if s] \
            + ["pmf_to_vsa", "nonexistent"]
        want = []
        for stage in stages:
            kept = [e for e in nvsa_trace if e.stage == stage
                    and int(np.prod(e.output_shape)) >= 2
                    and (last_dim_in is None or (
                        e.output_shape and e.output_shape[-1] in last_dim_in))]
            if not kept:
                continue
            values = np.asarray([e.output_sparsity for e in kept])
            weights = np.asarray([float(np.prod(e.output_shape))
                                  for e in kept])
            want.append((stage, float(values.mean()), float(values.max()),
                         float(values.min()),
                         float((values * weights).sum() / weights.sum()),
                         len(kept)))
        got = [(s.stage, s.mean, s.maximum, s.minimum, s.weighted_mean,
                s.num_events)
               for s in stage_sparsity(nvsa_trace, stages,
                                       last_dim_in=last_dim_in)]
        assert got == want


class TestScaling:
    def test_nvsa_scaling_study(self):
        study = nvsa_task_size_study(RTX_2080TI, sizes=(2, 3))
        assert len(study.points) == 2
        assert study.growth_factor() > 1.5
        assert study.symbolic_fraction_range() < 0.15

    def test_generic_sweep(self):
        study = sweep("nlm", "depth", [2, 4], RTX_2080TI,
                      fixed_params={"seed": 0})
        assert study.points[1].num_events > study.points[0].num_events


class TestInefficiency:
    def test_report_shape(self):
        report = analyze_inefficiency(RTX_2080TI)
        matrix = report.matrix()
        assert len(matrix) == 7
        for row in matrix.values():
            assert set(row) == {"sgemm_nn", "relu_nn",
                                "vectorized_elem", "elementwise"}

    def test_paper_observations_hold(self):
        report = analyze_inefficiency(RTX_2080TI)
        assert report.symbolic_alu_below_10pct
        assert report.symbolic_dram_saturated
        assert report.neural_compute_dominant

    def test_contrast_summary(self):
        summary = analyze_inefficiency(RTX_2080TI).contrast_summary
        assert summary["neural_compute_mean"] > \
            summary["symbolic_compute_mean"]
        assert summary["symbolic_dram_mean"] > summary["neural_dram_mean"]


class TestValidation:
    def test_valid_trace_passes(self, nvsa_trace):
        result = validate_trace(nvsa_trace,
                                expected_phases=(PHASE_NEURAL,
                                                 PHASE_SYMBOLIC))
        assert result.ok

    def test_empty_trace_fails(self):
        result = validate_trace(Trace("empty"))
        assert not result.ok
        with pytest.raises(ValueError):
            result.raise_if_invalid()

    def test_non_causal_parent_detected(self):
        trace = Trace("bad")
        trace.append(TraceEvent(eid=0, name="a",
                                category=OpCategory.OTHER, flops=1.0,
                                parents=(5,)))
        result = validate_trace(trace, require_flops=False)
        assert any("parent" in e for e in result.errors)

    def test_missing_phase_detected(self, nvsa_trace):
        result = validate_trace(nvsa_trace,
                                expected_phases=("quantum",))
        assert not result.ok

    def test_negative_flops_detected(self):
        trace = Trace("bad")
        trace.append(TraceEvent(eid=0, name="a",
                                category=OpCategory.OTHER, flops=-1.0))
        result = validate_trace(trace, require_flops=False)
        assert any("negative flops" in e for e in result.errors)


class TestSuite:
    def test_characterize_produces_all_views(self):
        report = characterize(create("ltn", seed=0))
        assert report.latency.total_time > 0
        assert report.operators
        assert report.memory.peak_live_bytes > 0
        assert report.opgraph.num_nodes > 0
        assert report.boundedness
        assert report.result

    def test_render_is_textual(self):
        report = characterize(create("ltn", seed=0))
        text = report.render()
        assert "ltn" in text
        assert "latency by phase" in text
        assert "operator-category" in text
