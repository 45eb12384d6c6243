"""Tests for the extension layer: the Symbolic[Neuro] MCTS workload and
the recommendation what-if models."""

import numpy as np
import pytest

from repro.core.analysis import latency_breakdown
from repro.core.opgraph import analyze_graph
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.core.taxonomy import NSParadigm, OpCategory
from repro.hwsim import RTX_2080TI, project_trace
from repro.hwsim.whatif import (SYMBOLIC_CATEGORIES, compute_in_memory,
                                parallel_schedule_bound, prune_trace,
                                quantize_trace, scale_bandwidth,
                                symbolic_accelerator)
from repro.workloads.mcts_sn import (MCTSWorkload, apply_move, legal_moves,
                                     winner)
from tests.conftest import cached_trace


def _total(trace, column):
    """The builtin sum of one of ``trace``'s columns."""
    return sum(getattr(trace.columns, column).tolist())


class TestGameRules:
    def test_winner_detection(self):
        assert winner((1, 1, 1, 0, 0, 0, 0, 0, 0)) == 1
        assert winner((-1, 0, 0, -1, 0, 0, -1, 0, 0)) == -1
        assert winner((1, 0, 0, 0, 1, 0, 0, 0, 1)) == 1
        assert winner((0,) * 9) == 0

    def test_legal_moves(self):
        assert legal_moves((1, -1, 0, 0, 1, -1, 0, 0, 0)) == [2, 3, 6, 7, 8]

    def test_apply_move_validates(self):
        board = apply_move((0,) * 9, 4, 1)
        assert board[4] == 1
        with pytest.raises(ValueError):
            apply_move(board, 4, -1)


class TestMCTSWorkload:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("mcts", seed=0)

    def test_finds_forced_win(self, trace):
        result = trace.metadata["result"]
        assert result["best_move"] == 2
        assert result["is_winning_move"]

    def test_policy_concentrates_on_win(self, trace):
        policy = trace.metadata["result"]["policy"]
        assert max(policy) == policy[0]  # move 2 is the first legal move

    def test_paradigm_is_symbolic_neuro(self):
        assert MCTSWorkload.info.paradigm is NSParadigm.SYMBOLIC_NEURO

    def test_bidirectional_phase_dependencies(self, trace):
        """The Symbolic[Neuro] call structure: neural depends on
        symbolic search state AND backprop depends on neural values."""
        report = analyze_graph(project_trace(trace, RTX_2080TI))
        assert report.neural_depends_on_symbolic
        assert report.symbolic_depends_on_neural
        assert report.cross_phase_edges > 10

    def test_search_is_fully_serial(self, trace):
        report = analyze_graph(project_trace(trace, RTX_2080TI))
        assert report.serialization > 0.9

    def test_simulations_scale_events(self):
        small = cached_trace("mcts", simulations=16, seed=0)
        large = cached_trace("mcts", simulations=64, seed=0)
        assert len(large) > len(small)

    def test_evaluations_counted(self, trace):
        result = trace.metadata["result"]
        assert result["evaluations"] >= result["simulations"]


class TestWhatIf:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("vsait", seed=0)

    def test_symbolic_accelerator_speeds_up(self, trace):
        base = latency_breakdown(project_trace(trace, RTX_2080TI)).total_time
        fast = latency_breakdown(
            project_trace(trace, symbolic_accelerator(RTX_2080TI))).total_time
        assert fast < base

    def test_accelerator_rebalances_nvsa(self):
        trace = cached_trace("nvsa", seed=0)
        base = latency_breakdown(project_trace(trace, RTX_2080TI))
        accel = latency_breakdown(
            project_trace(trace, symbolic_accelerator(RTX_2080TI)))
        assert accel.symbolic_fraction < base.symbolic_fraction
        assert base.total_time / accel.total_time > 2.0

    def test_accelerator_validates_args(self):
        with pytest.raises(ValueError):
            symbolic_accelerator(RTX_2080TI, compute_boost=0.5)

    def test_quantization_scales_bytes_only(self, trace):
        q = quantize_trace(trace, 8)
        assert _total(q, "total_bytes") == pytest.approx(
            _total(trace, "total_bytes") / 4, rel=0.01)
        assert _total(q, "flops") == _total(trace, "flops")
        assert len(q) == len(trace)

    def test_quantization_validates_bits(self, trace):
        with pytest.raises(ValueError):
            quantize_trace(trace, 0)
        with pytest.raises(ValueError):
            quantize_trace(trace, 64)

    def test_quantization_speeds_up_memory_bound(self, trace):
        base = latency_breakdown(project_trace(trace, RTX_2080TI)).total_time
        fast = latency_breakdown(
            project_trace(quantize_trace(trace, 8), RTX_2080TI)).total_time
        assert fast < base

    def test_prune_reduces_sparse_event_work(self):
        trace = cached_trace("nvsa", seed=0)
        pruned = prune_trace(trace, 0.5)
        assert _total(pruned, "flops") < _total(trace, "flops")
        # dense events untouched: bytes_read never changes
        for before, after in zip(trace, pruned):
            assert after.bytes_read == before.bytes_read

    def test_prune_validates(self, trace):
        with pytest.raises(ValueError):
            prune_trace(trace, 1.5)

    def test_cim_targets_symbolic_categories(self):
        cim = compute_in_memory(RTX_2080TI, 8.0)
        for category in SYMBOLIC_CATEGORIES:
            assert cim.memory_efficiency[category] > \
                RTX_2080TI.memory_efficiency[category]
        assert cim.memory_efficiency[OpCategory.MATMUL] == \
            RTX_2080TI.memory_efficiency[OpCategory.MATMUL]

    def test_bandwidth_scaling(self, trace):
        double = scale_bandwidth(RTX_2080TI, 2.0)
        assert double.dram_bandwidth == RTX_2080TI.dram_bandwidth * 2
        base = latency_breakdown(project_trace(trace, RTX_2080TI)).total_time
        fast = latency_breakdown(project_trace(trace, double)).total_time
        assert fast < base
        with pytest.raises(ValueError):
            scale_bandwidth(RTX_2080TI, 0)

    def test_parallel_bound_at_least_one(self, trace):
        assert parallel_schedule_bound(trace, RTX_2080TI) >= 1.0

    def test_whatif_devices_are_new_objects(self):
        accel = symbolic_accelerator(RTX_2080TI)
        assert accel is not RTX_2080TI
        assert RTX_2080TI.category_efficiency[OpCategory.OTHER] == \
            pytest.approx(0.02)  # original untouched
