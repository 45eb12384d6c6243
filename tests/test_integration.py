"""Integration tests: the whole roster through the full pipeline, and
the paper's headline takeaways checked end-to-end."""

import pytest

from repro.core import (PHASE_NEURAL, PHASE_SYMBOLIC, analyze_graph,
                        latency_breakdown, memory_profile,
                        phase_boundedness, validate_trace)
from repro.core.sparsity import nvsa_attribute_sweep
from repro.hwsim import JETSON_TX2, RTX_2080TI, XAVIER_NX, project_trace
from repro.workloads import PAPER_ORDER, all_infos, available, create


class TestRoster:
    def test_all_seven_registered(self):
        assert set(PAPER_ORDER) <= set(available())

    def test_table3_metadata_complete(self):
        infos = {info.name: info for info in all_infos()}
        for name in PAPER_ORDER:
            info = infos[name]
            assert info.full_name
            assert info.application
            assert info.datasets
            assert info.neural_workload and info.symbolic_workload

    def test_every_trace_validates(self, all_traces):
        for name, trace in all_traces.items():
            result = validate_trace(
                trace, expected_phases=(PHASE_NEURAL, PHASE_SYMBOLIC))
            assert result.ok, f"{name}: {result.errors}"

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            create("alphago9000")


class TestTakeaway1_LatencySplits:
    """Fig. 2a shape: per-workload symbolic share bands."""

    # paper values with generous tolerance bands (ours vs theirs)
    BANDS = {
        "lnn": (0.30, 0.70), "ltn": (0.35, 0.70),
        "nvsa": (0.85, 0.99), "nlm": (0.40, 0.75),
        "vsait": (0.65, 0.95), "zeroc": (0.05, 0.45),
        "prae": (0.70, 0.98),
    }

    @pytest.mark.parametrize("name", list(BANDS))
    def test_symbolic_share_band(self, name, all_traces):
        lb = latency_breakdown(project_trace(all_traces[name], RTX_2080TI))
        lo, hi = self.BANDS[name]
        assert lo <= lb.symbolic_fraction <= hi, (
            f"{name}: symbolic {lb.symbolic_fraction:.2f} outside "
            f"[{lo}, {hi}]")

    def test_nvsa_symbolic_is_largest(self, all_traces):
        shares = {name: latency_breakdown(
                      project_trace(t, RTX_2080TI)).symbolic_fraction
                  for name, t in all_traces.items()}
        assert max(shares, key=shares.get) in ("nvsa", "prae")
        assert min(shares, key=shares.get) == "zeroc"


class TestTakeaway2_Scaling:
    def test_latency_grows_superlinearly_ratio_stable(self):
        from repro.core.scaling import nvsa_task_size_study
        study = nvsa_task_size_study(RTX_2080TI, sizes=(2, 3))
        assert study.growth_factor() > 1.5
        assert study.symbolic_fraction_range() < 0.15


class TestTakeaway4_Boundedness:
    @pytest.mark.parametrize("name", ["nvsa", "prae", "vsait"])
    def test_symbolic_memory_bound(self, name, all_traces):
        bounds = phase_boundedness(project_trace(all_traces[name], RTX_2080TI))
        assert bounds[PHASE_SYMBOLIC] == "memory"

    @pytest.mark.parametrize("name", ["nvsa", "prae", "zeroc", "vsait"])
    def test_neural_compute_bound(self, name, all_traces):
        bounds = phase_boundedness(project_trace(all_traces[name], RTX_2080TI))
        assert bounds[PHASE_NEURAL] == "compute"


class TestTakeaway5_CriticalPath:
    @pytest.mark.parametrize("name", ["nvsa", "prae", "vsait"])
    def test_pipelined_symbolic_depends_on_neural(self, name, all_traces):
        report = analyze_graph(project_trace(all_traces[name], RTX_2080TI))
        assert report.symbolic_depends_on_neural

    @pytest.mark.parametrize("name", ["nlm", "lnn"])
    def test_compiled_systems_feed_neural(self, name, all_traces):
        report = analyze_graph(project_trace(all_traces[name], RTX_2080TI))
        assert report.neural_depends_on_symbolic or \
            report.symbolic_depends_on_neural


class TestTakeaway7_Sparsity:
    def test_nvsa_stages_highly_sparse(self):
        sweep = nvsa_attribute_sweep(seed=0)
        for attr, stages in sweep.items():
            for stage, sparsity in stages.items():
                assert sparsity > 0.7, (attr, stage, sparsity)

    def test_sparsity_varies_by_attribute(self):
        sweep = nvsa_attribute_sweep(seed=0)
        values = [stages["PMF-to-VSA transform"]
                  for stages in sweep.values()]
        assert max(values) != min(values)


class TestCrossDevice:
    """Fig. 2b shape: edge SoCs are strictly slower, RTX fastest."""

    @pytest.mark.parametrize("name", ["nvsa", "nlm"])
    def test_device_ordering(self, name, all_traces):
        trace = all_traces[name]
        times = {dev.name: project_trace(trace, dev).total_time
                 for dev in (RTX_2080TI, XAVIER_NX, JETSON_TX2)}
        assert times["RTX 2080 Ti"] < times["Xavier NX"]
        assert times["Xavier NX"] < times["Jetson TX2"] * 1.5

    def test_tx2_much_slower_than_rtx(self, all_traces):
        trace = all_traces["nvsa"]
        rtx = project_trace(trace, RTX_2080TI).total_time
        tx2 = project_trace(trace, JETSON_TX2).total_time
        assert tx2 / rtx > 2.0


class TestMemoryObservations:
    def test_nvsa_codebook_majority_of_static(self, all_traces):
        profile = memory_profile(all_traces["nvsa"])
        assert profile.codebook_fraction > 0.5

    def test_prae_symbolic_memory_heavy_among_symbolic(self, all_traces):
        """PrAE's exhaustive joint-space planning holds more live
        symbolic intermediates than the fuzzy-logic workloads (the
        paper's absolute ratios need RAVEN-scale joint spaces; see
        EXPERIMENTS.md)."""
        prae = memory_profile(all_traces["prae"])
        ltn = memory_profile(all_traces["ltn"])
        assert prae.peak_live_by_phase[PHASE_SYMBOLIC] > \
            ltn.peak_live_by_phase[PHASE_SYMBOLIC] * 1.5

    def test_all_workloads_track_live_memory(self, all_traces):
        for name, trace in all_traces.items():
            assert memory_profile(trace).peak_live_bytes > 0, name
