"""Tests for the extension workloads: GNN+attention, NSVQA, ABL, plus
the scene/program substrate."""

from collections import Counter

import numpy as np
import pytest

from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.core.taxonomy import NSParadigm
from repro.core.validate import validate_trace
from repro.datasets import rpm, scenes
from tests.conftest import cached_trace


class TestScenesSubstrate:
    def test_scene_generation(self):
        scene = scenes.generate_scene(3, 5, seed=0)
        assert scene.num_objects == 5
        assert len(set(scene.cells)) == 5
        with pytest.raises(ValueError):
            scenes.generate_scene(2, 9)

    def test_render_cells(self):
        scene = scenes.generate_scene(3, 4, seed=1)
        cells = scenes.render_scene_cells(scene, 32)
        assert cells.shape == (9, 1, 32, 32)
        occupied = cells.reshape(9, -1).max(axis=1) > 0
        assert occupied.sum() == 4

    def test_program_filter_count(self):
        objs = [rpm.Panel(0, 1, 2), rpm.Panel(0, 3, 4),
                rpm.Panel(1, 1, 2)]
        program = (("filter", "shape", 0), ("count",))
        assert scenes.run_program(program, objs) == 2

    def test_program_exists(self):
        objs = [rpm.Panel(2, 1, 2)]
        assert scenes.run_program(
            (("filter", "color", 2), ("exists",)), objs) is True
        assert scenes.run_program(
            (("filter", "color", 3), ("exists",)), objs) is False

    def test_program_query_requires_unique(self):
        objs = [rpm.Panel(0, 1, 2), rpm.Panel(0, 3, 4)]
        with pytest.raises(ValueError):
            scenes.run_program((("query", "color"),), objs)
        assert scenes.run_program(
            (("filter", "size", 1), ("query", "color")), objs) == 2

    def test_equal_integer_program(self):
        objs = [rpm.Panel(0, 1, 2), rpm.Panel(1, 1, 3)]
        program = (("filter", "shape", 0), ("count",),
                   ("equal_integer", (("filter", "shape", 1),
                                      ("count",))))
        assert scenes.run_program(program, objs) is True

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            scenes.run_program((("teleport",),), [])

    def test_generated_questions_consistent(self):
        scene = scenes.generate_scene(3, 5, seed=2)
        for question in scenes.generate_questions(scene, 10, seed=3):
            assert scenes.run_program(question.program,
                                      scene.objects) == question.answer


class TestGNNWorkload:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("gnn", seed=0)

    def test_classification_accuracy(self, trace):
        assert trace.metadata["result"]["accuracy"] > 0.9

    def test_sparse_kernels_present(self, trace):
        names = Counter(event.name for event in trace)
        assert names["spmm"] == 2
        assert names["sddmm"] == 2
        assert names["csr_row_softmax"] == 2
        assert names["csr_mask"] == 2

    def test_mask_is_symbolic(self, trace):
        for event in trace:
            if event.name == "csr_mask":
                assert event.phase == PHASE_SYMBOLIC
            if event.name in ("spmm", "sddmm"):
                assert event.phase == PHASE_NEURAL

    def test_rule_licensing_restricts_edges(self, trace):
        fraction = trace.metadata["result"]["licensed_edge_fraction"]
        assert 0.0 < fraction < 1.0

    def test_trace_validates(self, trace):
        assert validate_trace(trace).ok


class TestNSVQAWorkload:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("nsvqa", seed=0)

    def test_all_questions_answered_correctly(self, trace):
        assert trace.metadata["result"]["accuracy"] == 1.0

    def test_scene_fully_parsed(self, trace):
        result = trace.metadata["result"]
        assert result["parsed_objects"] == result["true_objects"]

    def test_accuracy_across_seeds(self):
        total = 0.0
        for seed in range(4):
            total += cached_trace("nsvqa", seed=seed).metadata[
                "result"]["accuracy"]
        assert total / 4 > 0.9

    def test_symbolic_is_nonvector(self, trace):
        """NSVQA's symbolic phase is control flow, not tensor algebra:
        its recorded regions carry zero tensor output."""
        for event in trace:
            if event.name == "program_exec":
                assert event.output_shape == ()
                assert event.phase == PHASE_SYMBOLIC

    def test_neural_dominates(self, trace):
        from repro.hwsim import RTX_2080TI, project_trace
        phases = project_trace(trace, RTX_2080TI).time_by_phase()
        assert phases[PHASE_NEURAL] > phases[PHASE_SYMBOLIC]


class TestABLWorkload:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("abl", seed=0)

    def test_abduction_repairs_perception(self, trace):
        result = trace.metadata["result"]
        assert result["abduced_accuracy"] >= result["raw_accuracy"]

    def test_full_consistency_restored(self, trace):
        result = trace.metadata["result"]
        assert result["consistent_after"] == result["num_equations"]

    def test_repairs_match_violations(self, trace):
        result = trace.metadata["result"]
        assert result["repairs"] == result["violations"]

    def test_improvement_across_seeds(self):
        improved = 0
        for seed in range(4):
            result = cached_trace("abl", seed=seed).metadata["result"]
            improved += int(result["abduced_accuracy"]
                            > result["raw_accuracy"])
        assert improved >= 2  # abduction usually helps

    def test_zero_error_rate_needs_no_repairs(self):
        trace = cached_trace("abl", perception_error_rate=0.0, seed=0)
        result = trace.metadata["result"]
        assert result["violations"] == 0
        assert result["raw_accuracy"] == 1.0


class TestParadigmCoverage:
    def test_all_five_paradigms_have_runnable_workloads(self):
        from repro.workloads import available, create
        covered = set()
        for name in available():
            covered.add(create(name).info.paradigm)
        assert covered == set(NSParadigm)
