"""Tests for the vision-centric workloads: VSAIT and ZeroC."""

import numpy as np
import pytest

from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.datasets.concepts import Segment
from repro.workloads.zeroc import (ZeroCWorkload, _graphs_match,
                                   _segments_intersect, extract_segments)
from tests.conftest import cached_trace


class TestVSAIT:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("vsait", seed=0)

    def test_round_trip_is_exact(self, trace):
        """Bipolar binding is self-inverse: unbind(bind(x,k),k) == x."""
        assert trace.metadata["result"]["round_trip_similarity"] == \
            pytest.approx(1.0)

    def test_alignment_in_range(self, trace):
        assert -1.0 <= trace.metadata["result"]["target_alignment"] <= 1.0

    def test_consistency_loss_finite(self, trace):
        loss = trace.metadata["result"]["consistency_loss"]
        assert 0.0 <= loss <= 2.0

    def test_locations_match_feature_grid(self, trace):
        result = trace.metadata["result"]
        # 64x64 input, two stride-2 stages -> 16x16 per image, batch 2
        assert result["locations"] == 2 * 16 * 16

    def test_symbolic_dominates_traffic(self, trace):
        traffic = {}
        for event in trace:
            traffic[event.phase] = traffic.get(event.phase, 0) \
                + event.total_bytes
        assert traffic[PHASE_SYMBOLIC] > traffic[PHASE_NEURAL]

    def test_stage_structure(self, trace):
        stages = set(trace.columns.stages)
        for stage in ("translation", "feature_extraction",
                      "hyperspace_encoding", "binding", "similarity"):
            assert stage in stages


class TestSegmentExtraction:
    def test_single_hline(self):
        from repro.datasets.concepts import render_segments
        img = render_segments([Segment("h", 4, 2, 6)], 16)
        segs = extract_segments(img)
        assert len(segs) == 1
        assert segs[0].orientation == "h"
        assert segs[0].length == 6

    def test_lshape_yields_two_segments(self):
        from repro.datasets.concepts import render_segments
        img = render_segments([Segment("h", 8, 2, 5),
                               Segment("v", 4, 2, 5)], 16)
        segs = extract_segments(img)
        orientations = sorted(s.orientation for s in segs)
        assert orientations == ["h", "v"]

    def test_short_runs_ignored(self):
        from repro.datasets.concepts import render_segments
        img = render_segments([Segment("h", 0, 0, 2)], 16)
        assert extract_segments(img, min_length=3) == []

    def test_intersection_detection(self):
        h = Segment("h", 5, 0, 8)
        v = Segment("v", 2, 4, 8)
        assert _segments_intersect(h, v)
        far = Segment("v", 10, 14, 4)
        assert not _segments_intersect(Segment("h", 0, 0, 4), far)


class TestZeroC:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("zeroc", seed=0)

    def test_zero_shot_accuracy(self, trace):
        assert trace.metadata["result"]["accuracy"] > 0.75

    def test_acquired_concept_recognized(self, trace):
        result = trace.metadata["result"]
        assert result["acquired_is_known"]
        assert result["acquired_concept_nodes"] == 2

    def test_neural_dominates(self, trace):
        """ZeroC is the one workload where neural EBM ensembles dwarf
        the symbolic composition (paper: 73.2% neural)."""
        from repro.hwsim import RTX_2080TI, project_trace
        projected = project_trace(trace, RTX_2080TI)
        phases = projected.time_by_phase()
        assert phases[PHASE_NEURAL] > phases[PHASE_SYMBOLIC]

    def test_graph_matching(self):
        from repro.datasets.concepts import concept_graph
        assert _graphs_match(concept_graph("Lshape"),
                             concept_graph("Lshape"))
        assert not _graphs_match(concept_graph("Lshape"),
                                 concept_graph("rect"))

    def test_grounding_respects_relations(self):
        """parallel_pair never grounds onto an Lshape's segments."""
        w = ZeroCWorkload(seed=0)
        w.build()
        lshape_segs = [Segment("h", 8, 2, 5), Segment("v", 4, 2, 5)]
        energies = {"hline": 0.0, "vline": 0.0}
        assert w._ground(lshape_segs, "parallel_pair", energies, {}) is None
        assert w._ground(lshape_segs, "Lshape", energies, {}) is not None

    def test_too_few_segments_returns_none(self):
        w = ZeroCWorkload(seed=0)
        w.build()
        assert w._ground([Segment("h", 0, 0, 4)], "Lshape",
                         {"hline": 0.0, "vline": 0.0}, {}) is None

    def test_ensemble_size_scales_neural_flops(self):
        small = cached_trace("zeroc", ensemble_size=4, seed=0)
        large = cached_trace("zeroc", ensemble_size=12, seed=0)
        def neural_flops(trace):
            cols = trace.columns
            return sum(cols.flops[cols.in_phase(PHASE_NEURAL)].tolist())
        assert neural_flops(large) > neural_flops(small)
