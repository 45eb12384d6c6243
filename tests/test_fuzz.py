"""Tests for repro.fuzz: template/taxonomy coverage, seeded
determinism, per-op rule round-trips against the inferred rule set,
divergence detection under injected counter bugs, chaos-schedule
invariants, crash-corpus minimize/replay, and CLI exit codes.

The rule set is inferred once per module (harvest + calibration is the
expensive part, ~10s); every property test reuses it.
"""

import json
import math

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.taxonomy import OP_CATEGORIES
from repro.fuzz import (ChaosConfig, OpInstance, build_chaos_schedule,
                        build_ruleset, check_program,
                        check_serve_invariants, dump_instances,
                        filter_instances, fuzz_run, generate_program,
                        harvest_workload, load_corpus, replay_entry,
                        run_chaos_schedule, run_live_chaos, save_corpus)
from repro.fuzz.cli import EXIT_DIVERGENCE
from repro.fuzz.corpus import KIND_PROGRAM, entry_for_program
from repro.fuzz.generate import (KNOWN_UNGENERATED, TEMPLATES, OpProgram,
                                 ProgramBuilder, single_op_program)
from repro.fuzz.rules import RuleSet

#: held-out seed base for round-trip programs — disjoint from both the
#: calibration stream (1_000_000_007 + ...) and the fuzz-run stream
#: (seed * 1_000_003 + i).
_HELD_OUT_BASE = 999_000


@pytest.fixture(scope="module")
def rules():
    return build_ruleset(seed=0)


def _bad_reshape_program():
    """Reshape (2, 2) -> (7,): a raw numpy error, i.e. a crash."""
    b = ProgramBuilder(seed=1)
    x = b.leaf((2, 2))
    b.emit("reshape", [x], {"shape": (7,)}, None, None)
    return b.program


class TestRegistryCoverage:
    def test_templates_cover_taxonomy(self):
        generated = set(TEMPLATES)
        skipped = set(KNOWN_UNGENERATED)
        registry = set(OP_CATEGORIES)
        assert not generated & skipped
        assert generated | skipped == registry

    def test_known_ungenerated_reasons_are_documented(self):
        assert all(KNOWN_UNGENERATED.values())


class TestDeterminism:
    def test_same_seed_same_program(self):
        one = generate_program(42).canonical_json()
        two = generate_program(42).canonical_json()
        assert one == two
        assert one != generate_program(43).canonical_json()

    def test_program_serialization_round_trip(self):
        program = generate_program(7)
        clone = type(program).from_dict(
            json.loads(program.canonical_json()))
        assert clone.canonical_json() == program.canonical_json()

    def test_check_digest_stable_across_invocations(self):
        program = generate_program(3)
        first = check_program(program)
        second = check_program(program)
        assert first.digest
        assert first.digest == second.digest

    def test_harvest_dump_byte_identical(self):
        kwargs = dict(num_departments=1, professors_per_dept=2)
        one = dump_instances(harvest_workload("lnn", seed=0, **kwargs))
        two = dump_instances(harvest_workload("lnn", seed=0, **kwargs))
        assert one == two


class TestRuleInference:
    def test_rule_set_covers_the_harvest(self, rules):
        assert len(rules) > 50
        assert rules.filter_stats["kept"] > 0

    @pytest.mark.parametrize("key", sorted(TEMPLATES))
    def test_single_op_round_trip(self, rules, key):
        """Every instrumented generator template must execute cleanly
        against the rules inferred from harvest + calibration."""
        index = sorted(TEMPLATES).index(key)
        program = single_op_program(_HELD_OUT_BASE + index * 7, key)
        result = check_program(program, rules)
        assert result.status != "divergent", [
            d.to_dict() for d in result.divergences]

    def test_non_finite_instances_filtered(self):
        bad = OpInstance(
            name="exp", raw_name="exp", category="transcendental",
            input_shapes=((4,),), input_dtypes=("float32",),
            input_nbytes=16, output_shape=(4,), output_dtype="float32",
            flops=math.nan, bytes_read=16, bytes_written=16,
            output_sparsity=0.0)
        assert not bad.finite()
        kept, stats = filter_instances([bad])
        assert kept == []
        assert stats["non_finite"] == 1


#: generated programs whose ops broke a rule that the campaign seed's
#: calibration had wrongly inferred (``fuzz run --seed S --count 100``):
#: a flattening ``reshape`` against last_dim_preserved, a ``take``
#: with more indices than its axis against size_le_inputs, a
#: vector-vector ``matmul`` against rank_preserved, and a float64
#: ``rfft`` against a constant complex64 output dtype
_ONCE_FALSE_VIOLATIONS = {
    1: (1000018,),
    2: (2000010, 2000012, 2000021, 2000036, 2000075, 2000081, 2000085,
        2000086, 2000088),
    6: (6000054, 6000067, 6000098),
}


class TestCalibration:
    @pytest.mark.parametrize("campaign", sorted(_ONCE_FALSE_VIOLATIONS))
    def test_no_false_rule_violations(self, campaign):
        rules = build_ruleset(seed=campaign)
        for program_seed in _ONCE_FALSE_VIOLATIONS[campaign]:
            result = check_program(generate_program(program_seed), rules)
            assert not [d.to_dict() for d in result.divergences
                        if d.kind == "rule_violation"], program_seed


class TestDivergenceDetection:
    def test_classified_stop_is_not_a_divergence(self, rules):
        b = ProgramBuilder(seed=0)
        x = b.leaf((0,))
        b.emit("rfft", [x], {"axis": -1}, None, None)
        result = check_program(b.program, rules)
        assert result.status == "classified"
        assert result.ok
        assert result.classified_error

    def test_unclassified_exception_is_a_crash(self, rules):
        result = check_program(_bad_reshape_program(), rules)
        assert result.status == "divergent"
        assert {d.kind for d in result.divergences} == {"crash"}

    def test_counter_bug_caught_as_rule_violation(self, rules,
                                                  monkeypatch):
        """Perturbing the modeled transcendental cost after inference
        must surface as rule_violation divergences."""
        import repro.tensor.ops as ops
        monkeypatch.setattr(ops, "_TRANSCENDENTAL_COST", 5.0)
        kinds = set()
        for seed in range(20):
            result = check_program(generate_program(seed), rules)
            kinds.update(d.kind for d in result.divergences)
            if "rule_violation" in kinds:
                break
        assert "rule_violation" in kinds


def _conv_program():
    """One 3x3 convolution: a spatially flipped kernel changes it."""
    b = ProgramBuilder(seed=3)
    x = b.leaf((1, 2, 5, 5))
    weight = b.leaf((3, 2, 3, 3))
    b.emit("conv2d", [x, weight], {"stride": 1, "padding": 1},
           (1, 3, 5, 5), "float32")
    return b.program


def _flip_conv_weights(monkeypatch):
    """Swap in a wrong conv kernel: weights flipped spatially."""
    import repro.tensor.ops as ops
    gemm = ops._conv2d_gemm
    monkeypatch.setattr(
        ops, "_conv2d_gemm",
        lambda x, w, b, stride, padding: gemm(x, w[:, :, ::-1, ::-1], b,
                                              stride, padding))


class TestReferenceCheck:
    """check_program compares every realized conv2d and maxpool2d with
    the retained reference kernels (repro.tensor.reference)."""

    def test_fast_kernels_agree_with_the_reference(self, rules):
        assert check_program(_conv_program(), rules).ok

    def test_wrong_conv_kernel_is_a_reference_mismatch(self, rules,
                                                       monkeypatch):
        _flip_conv_weights(monkeypatch)
        result = check_program(_conv_program(), rules)
        assert result.status == "divergent"
        assert ("reference_mismatch", "conv2d") in {
            (d.kind, d.op) for d in result.divergences}

    def test_maxpool_is_checked_bit_for_bit(self, rules, monkeypatch):
        from repro.tensor import reference
        b = ProgramBuilder(seed=4)
        x = b.leaf((2, 3, 6, 6))
        b.emit("maxpool2d", [x], {"kernel_size": 3, "stride": 2},
               (2, 3, 2, 2), "float32")
        assert check_program(b.program, rules).ok
        maxpool = reference.maxpool2d
        monkeypatch.setattr(reference, "maxpool2d",
                            lambda a, k, s: np.nextafter(maxpool(a, k, s),
                                                         np.inf))
        result = check_program(b.program, rules)
        assert [(d.kind, d.op) for d in result.divergences] == [
            ("reference_mismatch", "maxpool2d")]

    def test_replay_rechecks_reference_mismatch_entries(
            self, rules, tmp_path, monkeypatch, capsys):
        rules_path = str(tmp_path / "rules.json")
        rules.save(rules_path)
        path = str(tmp_path / "corpus.jsonl")
        _flip_conv_weights(monkeypatch)
        entry = entry_for_program(check_program(_conv_program(), rules),
                                  rules, minimize=False)
        assert "reference_mismatch" in {d.kind for d in entry.divergences}
        save_corpus([entry], path)
        assert cli_main(["fuzz", "replay", path,
                         "--rules", rules_path]) == 0
        assert "REPRODUCED" in capsys.readouterr().out
        monkeypatch.undo()     # the kernel is fixed: the entry goes stale
        assert cli_main(["fuzz", "replay", path,
                         "--rules", rules_path]) == 1


class TestMaxPoolTemplate:
    def test_overlapping_and_oversized_windows_are_generated(self):
        geometries, stops = set(), 0
        for seed in range(40):
            program = single_op_program(seed, "maxpool2d")
            for node in program.nodes:
                params = node.param_dict()
                geometries.add((params["kernel_size"], params["stride"]))
                stops += node.out_shape is None
        assert (3, 2) in geometries
        assert stops > 0

    def test_oversized_window_is_a_classified_stop(self, rules):
        b = ProgramBuilder(seed=5)
        x = b.leaf((1, 1, 2, 2))
        b.emit("maxpool2d", [x], {"kernel_size": 3, "stride": 3},
               None, None)
        result = check_program(b.program, rules)
        assert result.status == "classified"
        assert "larger than" in result.classified_error


class TestChaos:
    def test_schedule_mode_clean_and_deterministic(self):
        report = run_chaos_schedule(ChaosConfig(seed=0, requests=6))
        assert report.ok, report.issues
        assert report.digest
        assert sum(report.status_counts.values()) == 6

    def test_live_mode_resolves_every_future(self):
        assert run_live_chaos(
            ChaosConfig(seed=1, requests=5), drain=True) == []
        assert run_live_chaos(
            ChaosConfig(seed=2, requests=5), drain=False) == []

    def test_invariants_catch_missing_responses(self):
        schedule, _ = build_chaos_schedule(ChaosConfig(seed=3,
                                                       requests=4))
        issues = check_serve_invariants(schedule, [])
        assert issues
        assert "not a bijection" in issues[0]


class TestCorpus:
    def test_minimize_save_replay(self, rules, tmp_path):
        # bad reshape plus a droppable bystander node: minimization
        # must strip the bystander and keep the crash
        b = ProgramBuilder(seed=1)
        x = b.leaf((2, 2))
        b.emit("relu", [x], {}, (2, 2), "float32")
        b.emit("reshape", [x], {"shape": (7,)}, None, None)
        result = check_program(b.program, rules)
        entry = entry_for_program(result, rules, minimize=True)
        assert entry.kind == KIND_PROGRAM
        assert entry.minimized
        assert len(entry.payload["nodes"]) == 1

        path = str(tmp_path / "corpus.jsonl")
        save_corpus([entry], path)
        (loaded,) = load_corpus(path)
        assert (OpProgram.from_dict(loaded.payload).canonical_json()
                == OpProgram.from_dict(entry.payload).canonical_json())
        assert [d.to_dict() for d in loaded.divergences] == [
            d.to_dict() for d in entry.divergences]

        replayed = replay_entry(loaded, rules)
        assert replayed.reproduced

    def test_replay_reports_fixed_bug_as_stale(self, rules,
                                               monkeypatch):
        """Entries captured under an injected bug stop reproducing
        once the bug is reverted."""
        import repro.tensor.ops as ops
        monkeypatch.setattr(ops, "_TRANSCENDENTAL_COST", 5.0)
        report = fuzz_run(seed=0, count=8, rules=rules)
        assert report.entries, "injected bug produced no repro entries"
        entry = report.entries[0]
        assert replay_entry(entry, rules).reproduced
        monkeypatch.undo()
        assert not replay_entry(entry, rules).reproduced


class TestFuzzCLI:
    def test_run_clean_exit_zero(self, rules, tmp_path, capsys):
        rules_path = str(tmp_path / "rules.json")
        rules.save(rules_path)
        corpus_path = str(tmp_path / "corpus.jsonl")
        code = cli_main(["fuzz", "run", "--seed", "0", "--count", "3",
                         "--chaos", "1", "--rules", rules_path,
                         "--corpus", corpus_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "no divergences" in out
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_replay_exit_codes(self, rules, tmp_path, capsys):
        rules_path = str(tmp_path / "rules.json")
        rules.save(rules_path)

        crashing = entry_for_program(
            check_program(_bad_reshape_program(), rules), rules,
            minimize=False)
        stale = entry_for_program(
            check_program(_bad_reshape_program(), rules), rules,
            minimize=False)
        stale.payload = generate_program(5).to_dict()  # checks clean

        path = str(tmp_path / "corpus.jsonl")
        save_corpus([crashing], path)
        assert cli_main(["fuzz", "replay", path,
                         "--rules", rules_path]) == 0
        save_corpus([crashing, stale], path)
        assert cli_main(["fuzz", "replay", path,
                         "--rules", rules_path]) == 1
        assert "REPRODUCED" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "garbage\n",
                                         '{"kind": "program"}\n', "[1]\n"],
                             ids=["missing", "not-json", "no-seed",
                                  "not-object"])
    def test_replay_of_a_bad_corpus_is_one_line(self, tmp_path, capsys,
                                               content):
        path = tmp_path / "corpus.jsonl"
        if content is not None:
            path.write_text(content)
        assert cli_main(["fuzz", "replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro fuzz replay: error: argument corpus: "
                              f"cannot load {str(path)!r}: ")

    def test_rules_command_writes_json(self, tmp_path, capsys):
        out_path = str(tmp_path / "rules.json")
        code = cli_main(["fuzz", "rules", "--no-calibrate",
                         "--harvest", "lnn", "--format", "json",
                         "-o", out_path])
        assert code == 0
        capsys.readouterr()
        loaded = RuleSet.load(out_path)
        assert len(loaded) > 0
        assert "add" in loaded

    @pytest.mark.parametrize("argv", [
        ["fuzz", "rules", "--harvest", "bogus"],
        ["fuzz", "run", "--harvest", "lnn,bogus", "--count", "1"],
    ], ids=lambda argv: argv[1])
    def test_unknown_harvest_workload_is_a_usage_error(self, argv, capsys):
        # was a KeyError traceback once the harvest reached the name
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: argument --harvest: unknown workload 'bogus'" in err

    def test_divergence_exit_code_is_distinct(self):
        assert EXIT_DIVERGENCE == 5
