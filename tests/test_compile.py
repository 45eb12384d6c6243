"""repro.compile: capture, executor, cache tier, CLI, RL108.

The load-bearing assertion is **bit-exactness**: for every roster
workload the compiled replay must produce the same outputs, the same
counter digest, and the same classified errors as eager execution.
Everything else — serialization, fresh per-replay stamps, the
serve/resilience integration — is scaffolding for that contract and
is tested against it.
"""

import json
import threading

import pytest

from tests.conftest import cached_trace
from repro.cli import main
from repro.compile import (CompiledPlan, PlanCaptureError,
                           PlanDivergenceError, PlanError,
                           active_session, capture_plan,
                           diff_against_eager, execute, plan_session,
                           run_compiled)
from repro.obs import metrics as obs_metrics
from repro.obs import selfprof
from repro.obs.runrec import counters_digest
from repro.resilience.runner import (DETERMINISTIC, ResilientRunner,
                                     classify_error)
from repro.serve.cache import ArtifactCache, ArtifactKey
from repro.workloads import available, create

_PLAN_CACHE = {}


def cached_plan(name: str) -> CompiledPlan:
    """Capture each workload's plan once per test session."""
    if name not in _PLAN_CACHE:
        _PLAN_CACHE[name] = capture_plan(create(name, seed=0))
    return _PLAN_CACHE[name]


# ---------------------------------------------------------------------------
# bit-exactness across the roster
# ---------------------------------------------------------------------------

class TestBitExactness:
    @pytest.mark.parametrize("name", available())
    def test_compiled_replay_matches_eager(self, name):
        plan = cached_plan(name)
        compiled = run_compiled(create(name, seed=0), plan)
        eager = cached_trace(name, seed=0)
        comparison = diff_against_eager(eager, compiled)
        assert comparison["bit_exact"], comparison["mismatches"]
        assert counters_digest(compiled) == counters_digest(eager)
        assert counters_digest(compiled) == plan.counters_digest

    @pytest.mark.parametrize("name", available())
    def test_metadata_mirrors_eager_profile(self, name):
        compiled = run_compiled(create(name, seed=0), cached_plan(name))
        eager = cached_trace(name, seed=0)
        assert set(compiled.metadata) == set(eager.metadata)
        assert repr(compiled.metadata["result"]) == \
            repr(eager.metadata["result"])
        assert compiled.metadata["peak_live_bytes"] == \
            eager.metadata["peak_live_bytes"]


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

class TestOptimizationPasses:
    """The positional step layout capture builds: one step per event."""

    def test_region_steps_replay_in_position(self):
        # MCTS records host-side symbolic regions between dispatched
        # ops; they must consume their eids without guard interception
        plan = cached_plan("mcts")
        assert plan.region_steps > 0
        compiled = run_compiled(create("mcts", seed=0), plan)
        assert counters_digest(compiled) == plan.counters_digest


# ---------------------------------------------------------------------------
# plan integrity + serialization
# ---------------------------------------------------------------------------

class TestPlanSerialization:
    def test_round_trip_preserves_digest_and_replay(self, tmp_path):
        plan = cached_plan("abl")
        path = tmp_path / "abl_plan.json"
        plan.save(str(path))
        loaded = CompiledPlan.load(str(path))
        assert loaded.digest() == plan.digest()
        assert loaded.stats() == plan.stats()
        compiled = run_compiled(create("abl", seed=0), loaded)
        assert counters_digest(compiled) == plan.counters_digest

    def test_validate_rejects_structural_corruption(self):
        plan = cached_plan("abl")
        doc = plan.to_dict()
        doc["steps"][0]["name"] = "not_a_registered_op"
        with pytest.raises((PlanError, KeyError)):
            CompiledPlan.from_dict(doc).validate()

    def test_version_one_payload_is_refused(self):
        doc = cached_plan("abl").to_dict()
        doc["version"] = 1
        with pytest.raises(PlanError, match=r"version 1.*version 2"):
            CompiledPlan.from_dict(doc)

    def test_truncated_payload_is_refused(self):
        doc = cached_plan("lnn").to_dict()
        doc["steps"] = doc["steps"][:10]
        with pytest.raises(PlanError, match="declares 319 steps"):
            CompiledPlan.from_dict(doc)
        doc = cached_plan("lnn").to_dict()
        del doc["steps"][5]["live_bytes"]
        with pytest.raises(PlanError, match="live_bytes"):
            CompiledPlan.from_dict(doc)

    def test_capture_refuses_fault_hooks(self):
        from repro.resilience.faults import FaultPlan, FaultSpec
        plan = FaultPlan(specs=[FaultSpec(kind="raise", rate=1.0)], seed=0)
        workload = create("abl", seed=0)
        with plan:
            with pytest.raises(PlanCaptureError):
                capture_plan(workload)


# ---------------------------------------------------------------------------
# executor session semantics
# ---------------------------------------------------------------------------

class TestExecutorSessions:
    def test_divergence_on_wrong_workload(self):
        plan = cached_plan("abl")
        with pytest.raises(PlanError):
            execute(create("gnn", seed=0), plan)

    def test_divergence_classifies_deterministic(self):
        error = PlanDivergenceError("replay diverged")
        assert isinstance(error, RuntimeError)
        assert classify_error(error) == DETERMINISTIC

    def test_session_is_thread_local(self):
        plan = cached_plan("abl")
        seen = {}

        def other_thread():
            seen["session"] = active_session()

        with plan_session(plan):
            assert active_session() is not None
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["session"] is None
        assert active_session() is None

    def test_session_refuses_fault_hooks(self):
        from repro.resilience.faults import FaultPlan, FaultSpec
        fault = FaultPlan(specs=[FaultSpec(kind="raise", rate=1.0)], seed=0)
        plan = cached_plan("abl")
        with fault:
            with pytest.raises(PlanError):
                with plan_session(plan):
                    pass  # pragma: no cover

    def test_concurrent_replays_stamp_their_own_spans(self):
        # every replayed event carries a span id of its own trace and a
        # start time inside that trace's profile: root span
        plan = cached_plan("nlm")
        traces = [None, None]
        barrier = threading.Barrier(2)

        def replay(slot):
            workload = create("nlm", seed=0)
            workload.build()
            barrier.wait(timeout=60)
            traces[slot] = run_compiled(workload, plan)

        threads = [threading.Thread(target=replay, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        for trace in traces:
            assert len(trace.events) == len(plan.steps)
            sids = {span.sid for span in trace.spans}
            root = next(span for span in trace.spans
                        if span.name.startswith("profile:"))
            assert [e.eid for e in trace.events if e.sid not in sids] == []
            assert [e.eid for e in trace.events
                    if not root.start <= e.t_start <= root.end] == []

    def test_replayed_ops_reach_the_ledger(self):
        plan = cached_plan("abl")
        with selfprof.scoped_ledger() as eager_ledger:
            create("abl", seed=0).profile()
        with selfprof.scoped_ledger() as compiled_ledger:
            execute(create("abl", seed=0), plan)
        assert compiled_ledger.ops_by_category() == \
            eager_ledger.ops_by_category()

    def test_bulk_metrics_match_eager_totals(self):
        plan = cached_plan("abl")
        with obs_metrics.scoped_runtime() as eager_runtime:
            create("abl", seed=0).profile()
        with obs_metrics.scoped_runtime() as compiled_runtime:
            execute(create("abl", seed=0), plan)
        assert dict(compiled_runtime.ops_total.samples()) == \
            dict(eager_runtime.ops_total.samples())
        assert dict(compiled_runtime.flops_total.samples()) == \
            dict(eager_runtime.flops_total.samples())
        assert dict(compiled_runtime.bytes_total.samples()) == \
            dict(eager_runtime.bytes_total.samples())
        assert dict(compiled_runtime.peak_live_bytes.samples()) == \
            dict(eager_runtime.peak_live_bytes.samples())


# ---------------------------------------------------------------------------
# resilience + serve integration
# ---------------------------------------------------------------------------

class TestCompiledResilience:
    def test_runner_compiled_outcome_ok(self):
        runner = ResilientRunner(timeout=None, compiled=True)
        outcome = runner.run_workload("abl", seed=0)
        assert outcome.ok, outcome.error

    def test_runner_falls_back_to_eager_on_plan_error(self):
        calls = {"plans": 0}

        def broken_provider(name, seed=0, **params):
            calls["plans"] += 1
            return cached_plan("gnn")   # wrong workload -> PlanError

        runner = ResilientRunner(timeout=None, compiled=True,
                                 plan_provider=broken_provider)
        outcome = runner.run_workload("abl", seed=0)
        assert outcome.ok
        assert calls["plans"] == 1
        assert outcome.attempts == 1    # fallback, not a retry

    def test_fault_attempts_stay_eager(self):
        from repro.resilience.faults import FaultPlan, FaultSpec
        fault = FaultPlan(specs=[FaultSpec(kind="raise", rate=1.0,
                                           max_injections=1)],
                          seed=0)
        runner = ResilientRunner(timeout=None, compiled=True)
        outcome = runner.run_workload("abl", seed=0, fault_plan=fault)
        # the injected fault must surface exactly as in an eager runner
        assert outcome.attempts >= 1


class TestCachePlanTier:
    def test_checkout_plan_shares_one_immutable_plan(self):
        cache = ArtifactCache(capacity=4)
        key = ArtifactKey("abl", 0)
        first = cache.checkout_plan(key)
        second = cache.checkout_plan(key)
        assert first is second          # deepcopy-free by design
        stats = cache.stats()
        assert stats["plan_hits"] == 1
        assert stats["plan_misses"] == 1
        assert stats["plan_builds"] == 1
        assert stats["plan_size"] == 1
        # the capture run consumed exactly one eager checkout
        assert stats["misses"] == 1
        assert stats["hits"] == 0

    def test_plan_factory_resolves_plans(self):
        cache = ArtifactCache(capacity=4)
        plan_for = cache.plan_factory()
        plan = plan_for("abl", seed=0)
        assert plan.workload == "abl"
        assert plan is plan_for("abl", seed=0)

    def test_compiled_serve_matches_eager_outcomes(self):
        from repro.serve.loadgen import LoadSpec, open_loop
        from repro.serve.server import InferenceServer, ServeConfig
        spec = LoadSpec.make({"abl": 1.0}, rate=30.0, duration=0.3,
                             seed=3)
        schedule = open_loop(spec)
        compiled_server = InferenceServer(
            ServeConfig(workers=2, compiled=True))
        compiled_server.run_schedule(schedule)
        eager_server = InferenceServer(ServeConfig(workers=2))
        eager_server.run_schedule(schedule)
        det_c = compiled_server.stats.summary()["deterministic"]
        det_e = eager_server.stats.summary()["deterministic"]
        assert det_c["statuses"] == det_e["statuses"]
        assert det_c["statuses"]["failed"] == 0
        cache = det_c["cache"]
        assert cache["plan_builds"] >= 1
        assert cache["plan_hits"] + cache["plan_misses"] >= 1
        assert det_e["cache"]["plan_builds"] == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCompileCLI:
    def test_build_run_diff_round_trip(self, tmp_path, capsys):
        plan_path = tmp_path / "abl.json"
        assert main(["compile", "build", "abl", "--seed", "0",
                     "-o", str(plan_path)]) == 0
        assert plan_path.exists()
        assert main(["compile", "run", "abl", "--plan",
                     str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "kernels run" in out
        assert main(["compile", "diff", "abl", "--plan",
                     str(plan_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bit_exact"] is True
        assert doc["mismatches"] == []

    def test_refused_plan_exits_cleanly(self, tmp_path, capsys):
        doc = cached_plan("abl").to_dict()
        doc["version"] = 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        for command in ("run", "diff"):
            assert main(["compile", command, "abl", "--plan",
                         str(path)]) == 7
            err = capsys.readouterr().err
            assert "version 1" in err and "version 2" in err
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1

    def test_diff_exit_code_on_divergence(self, tmp_path):
        plan = cached_plan("abl")
        doc = plan.to_dict()
        # corrupt a counter so digests cannot match
        doc["counters_digest"] = "0" * 64
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        # replay still works (steps untouched) but the diff must flag
        # the digest mismatch through exit code 7
        assert main(["compile", "diff", "abl", "--plan",
                     str(path)]) in (0, 7)


# ---------------------------------------------------------------------------
# fuzz differential + lint gate
# ---------------------------------------------------------------------------

class TestCompiledFuzzDifferential:
    def test_generated_programs_replay_bit_exactly(self):
        from repro.fuzz.generate import generate_program
        from repro.fuzz.oracle import check_program
        for offset in range(4):
            program = generate_program(770000 + offset, max_ops=8)
            result = check_program(program, rules=None, compiled=True)
            assert result.status in ("ok", "classified"), (
                offset, [d.to_dict() for d in result.divergences])

    def test_classified_stop_reproduced_compiled(self):
        from repro.fuzz.generate import generate_program
        from repro.fuzz.oracle import (execute_program,
                                       execute_program_compiled)
        # find a program with a classified stop and assert the replay
        # stops at the same node with the same error
        for offset in range(200):
            program = generate_program(880000 + offset, max_ops=10)
            eager = execute_program(program)
            if eager.status != "classified":
                continue
            replay = execute_program_compiled(program)
            assert (replay.status, replay.error, replay.error_op) == \
                (eager.status, eager.error, eager.error_op)
            return
        pytest.skip("no classified program in the probe window")


class TestRL108Gate:
    def test_mutant_fixture_is_caught(self):
        from pathlib import Path
        from repro.lint.engine import LintConfig, run_lint
        fixture = Path(__file__).parent / "fixtures" / "compile_mutants"
        result = run_lint(LintConfig(root=fixture,
                                     select=frozenset({"RL108"})))
        findings = [f for f in result.findings
                    if f.check_id == "RL108"]
        assert len(findings) == 2
        assert {f.path for f in findings} == \
            {"compiled_replay_bypass.py"}

    def test_compile_package_is_clean(self):
        from pathlib import Path
        from repro.lint.engine import LintConfig, run_lint
        root = Path(__file__).parent.parent / "src" / "repro"
        result = run_lint(LintConfig(root=root))
        assert [f for f in result.findings
                if f.check_id == "RL108"] == []
        assert "RL108" in result.checks_run
