"""Tests for the RPM-based workloads: NVSA and PrAE."""

import numpy as np
import pytest

from repro.core.analysis import flops_breakdown
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.datasets import rpm
from repro.vsa.hypervector import HolographicSpace
from repro.workloads.nvsa import NVSAWorkload, fpe_codebook
from repro.workloads.perception import decode_panel_templates, template_decode
from repro.workloads.prae import PrAEWorkload
from tests.conftest import cached_trace


class TestFPECodebook:
    def test_powers_compose_modularly(self):
        space = HolographicSpace(1024)
        cb = fpe_codebook(space, 10, seed=0)
        import repro.tensor as T
        v2, v3 = cb.vector("v2"), cb.vector("v3")
        bound = T.circular_conv(v2, v3)
        sims = cb.similarities(bound).numpy()
        assert int(np.argmax(sims)) == 5  # 2 + 3

    def test_modular_wraparound(self):
        space = HolographicSpace(1024)
        cb = fpe_codebook(space, 6, seed=1)
        import repro.tensor as T
        bound = T.circular_conv(cb.vector("v4"), cb.vector("v3"))
        sims = cb.similarities(bound).numpy()
        assert int(np.argmax(sims)) == 1  # (4 + 3) mod 6

    def test_rows_quasi_orthogonal(self):
        space = HolographicSpace(2048)
        cb = fpe_codebook(space, 10, seed=2)
        gram = cb.cross_correlation().numpy()
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() < 0.35
        np.testing.assert_allclose(np.diag(gram), np.ones(10), atol=0.01)


def _drawn_then_overwritten_fpe(space, num_values, seed):
    """Reference FPE codebook: draw random rows, then overwrite them."""
    import repro.tensor as T
    from repro.vsa.codebook import Codebook
    d = space.dim
    rng = np.random.default_rng(seed)
    half = d // 2 + 1
    phases = (2.0 * np.pi / num_values) * rng.integers(0, num_values, half)
    phases[0] = 0.0
    if d % 2 == 0:
        phases[-1] = 0.0
    spectra = T.exp(T.mul(1j, T.outer(np.arange(num_values), phases)))
    rows = T.irfft(spectra, n=d)
    matrix = T.astype(T.div(T.mul(rows, d), np.sqrt(d)), np.float32)
    matrix = T.div(matrix, T.norm(matrix, axis=1, keepdims=True))
    codebook = Codebook(space, [f"v{v}" for v in range(num_values)],
                        rng=rng)
    codebook.matrix.data[:] = T.mul(matrix, np.sqrt(d)).numpy()
    return codebook


def _drawn_then_overwritten_combination(workload):
    """Reference combination codebook: draw random rows, then overwrite
    them with the bound (shape, size, color) triples."""
    import repro.tensor as T
    from repro.vsa.codebook import Codebook
    attrs = list(rpm.ATTRIBUTES)
    domains = [rpm.ATTRIBUTES[a] for a in attrs]
    combos = [f"{s}|{z}|{c}" for s in range(domains[0])
              for z in range(domains[1]) for c in range(domains[2])]
    codebook = Codebook(workload.space, combos,
                        rng=np.random.default_rng(workload.seed + 99))
    mats = [workload.codebooks[a].matrix.numpy() for a in attrs]
    half = workload.dim // 2 + 1
    fs = T.reshape(T.rfft(mats[0]), (domains[0], 1, 1, half))
    fz = T.reshape(T.rfft(mats[1]), (1, domains[1], 1, half))
    fc = T.reshape(T.rfft(mats[2]), (1, 1, domains[2], half))
    spectra = T.reshape(T.mul(T.mul(fs, fz), fc), (len(combos), half))
    bound = T.astype(T.irfft(spectra, n=workload.dim), np.float32)
    norms = T.norm(bound, axis=1, keepdims=True)
    codebook.matrix.data[:] = T.mul(T.div(bound, norms),
                                    np.sqrt(workload.dim)).numpy()
    return codebook


class TestNVSABuild:
    """The NVSA build draws no random rows that it then overwrites."""

    def test_build_draws_no_random_rows(self, monkeypatch):
        draws = []
        draw = HolographicSpace.random

        def counted(self, rng, n=1):
            draws.append(n)
            return draw(self, rng, n)

        monkeypatch.setattr(HolographicSpace, "random", counted)
        NVSAWorkload(seed=0).build()
        assert draws == []

    @pytest.mark.parametrize("seed", range(3))
    def test_codebooks_equal_draw_then_overwrite(self, seed):
        w = NVSAWorkload(seed=seed)
        w.build()
        for i, (attr, domain) in enumerate(rpm.ATTRIBUTES.items()):
            want = _drawn_then_overwritten_fpe(w.space, domain,
                                               seed + 13 * i)
            got = w.codebooks[attr]
            assert got.symbols == want.symbols
            assert got.matrix.dtype == np.float32
            assert got.matrix.numpy().tobytes() == \
                want.matrix.numpy().tobytes()
        want = _drawn_then_overwritten_combination(w)
        got = w.combination_codebook
        assert got.symbols == want.symbols
        assert got.matrix.dtype == np.float32
        assert got.matrix.numpy().tobytes() == want.matrix.numpy().tobytes()


class TestTemplateDecoder:
    def test_exact_decode(self):
        templates = decode_panel_templates(32)
        for shape in range(5):
            for size in (0, 3, 5):
                for color in (0, 4, 9):
                    img = rpm.render_panel(rpm.Panel(shape, size, color), 32)
                    decoded = template_decode(img, templates)
                    assert decoded == (shape, size, color)


def _stage_events(trace, stage):
    """How many of ``trace``'s events belong to ``stage``."""
    cols = trace.columns
    return int((cols.stage == cols.stages.index(stage)).sum())


class TestNVSA:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("nvsa", seed=0)

    def test_phases_present(self, trace):
        assert set(p for p in trace.columns.phases if p) == \
            {PHASE_NEURAL, PHASE_SYMBOLIC}

    def test_stages_cover_pipeline(self, trace):
        stages = set(trace.columns.stages)
        for stage in ("perception", "pmf_to_vsa", "rule_detection",
                      "rule_execution", "vsa_to_pmf", "answer_selection"):
            assert stage in stages

    def test_answer_correct(self, trace):
        result = trace.metadata["result"]
        assert result["correct"]

    def test_accuracy_across_seeds(self):
        correct = sum(cached_trace("nvsa", seed=s).metadata["result"]
                      ["correct"] for s in range(6))
        assert correct >= 4  # well above the 1/8 random baseline

    def test_rule_detection_accuracy(self):
        hits = sum(cached_trace("nvsa", seed=s).metadata["result"]
                   ["rule_name_hits"] for s in range(6))
        assert hits >= 12  # out of 18

    def test_matrix_size_2_runs(self):
        trace = cached_trace("nvsa", matrix_size=2, seed=0)
        assert trace.metadata["result"]["predicted_index"] in range(8)
        assert len(trace) < len(cached_trace("nvsa", seed=0))

    def test_codebook_dominates_static_memory(self, trace):
        assert trace.metadata["codebook_bytes"] > \
            trace.metadata["parameter_bytes"]

    def test_symbolic_flops_minority(self, trace):
        """Paper: NVSA symbolic is ~92% of time but only ~19% of FLOPs."""
        assert flops_breakdown(trace)[PHASE_SYMBOLIC] < 0.5

    def test_invalid_rule_raises(self):
        w = NVSAWorkload(seed=0)
        w.build()
        with pytest.raises(ValueError):
            w._predict_last(("fibonacci", 0), [], None, None)


class TestPrAE:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("prae", seed=0)

    def test_answer_correct_across_seeds(self):
        correct = sum(cached_trace("prae", seed=s).metadata["result"]
                      ["correct"] for s in range(6))
        assert correct >= 5

    def test_stages_cover_pipeline(self, trace):
        stages = set(trace.columns.stages)
        for stage in ("scene_inference", "abduction", "execution",
                      "answer_selection"):
            assert stage in stages

    def test_scene_is_exhaustive_joint(self, trace):
        result = trace.metadata["result"]
        joint = 1
        for domain in rpm.ATTRIBUTES.values():
            joint *= domain
        assert result["scene_entries"] == joint * 8

    def test_symbolic_dominates_events(self, trace):
        counts = {}
        for event in trace:
            counts[event.phase] = counts.get(event.phase, 0) + 1
        assert counts[PHASE_SYMBOLIC] > counts[PHASE_NEURAL]

    def test_rule_posterior_mixture_normalized(self):
        """Execution emits normalized predicted PMFs."""
        w = PrAEWorkload(seed=3)
        w.build()
        import repro.tensor as T
        with T.profile("t"):
            result = w.run()
        assert result["predicted_index"] in range(8)

    def test_probability_rule_prediction(self):
        """P-space arithmetic: conv of one-hots adds values mod domain."""
        w = PrAEWorkload(seed=0)
        w.build()
        import repro.tensor as T
        p1 = T.tensor(np.eye(10, dtype=np.float32)[2])
        p2 = T.tensor(np.eye(10, dtype=np.float32)[9])
        out = w._rule_predict(("arithmetic", 1), [p1, p2], 10,
                              p1).numpy()
        assert int(np.argmax(out)) == 1  # (2 + 9) mod 10

    def test_progression_prediction_is_shift(self):
        w = PrAEWorkload(seed=0)
        w.build()
        import repro.tensor as T
        p = T.tensor(np.eye(6, dtype=np.float32)[1])
        out = w._rule_predict(("progression", 2), [p], 6, p).numpy()
        assert int(np.argmax(out)) == 3


class TestMixedOrientation:
    """PGM-style problems: rules along rows or columns, solver must
    detect the orientation."""

    def test_generator_produces_column_rules(self):
        found_col = False
        for seed in range(10):
            p = rpm.generate_problem(3, seed=seed,
                                     orientation_mode="mixed")
            if any(r.orientation == "col" for r in p.rules.values()):
                found_col = True
                break
        assert found_col

    def test_column_rule_consistency(self):
        p = rpm.generate_problem(
            3, seed=4, rules={a: "progression" for a in rpm.ATTRIBUTES},
            orientation_mode="mixed")
        full = [list(row) for row in p.context]
        full[-1].append(p.answer)
        for attr in rpm.ATTRIBUTES:
            rule = p.rules[attr]
            step = rule.parameter
            domain = rpm.ATTRIBUTES[attr]
            for line in range(3):
                if rule.orientation == "row":
                    vals = [full[line][c].attribute(attr)
                            for c in range(3)]
                else:
                    vals = [full[r][line].attribute(attr)
                            for r in range(3)]
                for i in range(2):
                    assert vals[i + 1] == (vals[i] + step) % domain, \
                        (attr, rule, line)

    def test_bad_orientation_mode_rejected(self):
        with pytest.raises(ValueError):
            rpm.generate_problem(3, orientation_mode="diagonal")

    def test_nvsa_solves_mixed_problems(self):
        correct = sum(
            cached_trace("nvsa", orientation_mode="mixed",
                         seed=s).metadata["result"]["correct"]
            for s in range(6))
        assert correct >= 4

    def test_nvsa_detects_orientations(self):
        hits = sum(
            cached_trace("nvsa", orientation_mode="mixed",
                         seed=s).metadata["result"]["orientation_hits"]
            for s in range(6))
        assert hits >= 12  # of 18

    def test_prae_solves_mixed_problems(self):
        correct = sum(
            cached_trace("prae", orientation_mode="mixed",
                         seed=s).metadata["result"]["correct"]
            for s in range(6))
        assert correct >= 4

    def test_orientation_search_doubles_rule_work(self):
        row = cached_trace("nvsa", seed=0)
        mixed = cached_trace("nvsa", orientation_mode="mixed", seed=0)
        row_detection = _stage_events(row, "rule_detection")
        mixed_detection = _stage_events(mixed, "rule_detection")
        assert mixed_detection > row_detection * 1.5
