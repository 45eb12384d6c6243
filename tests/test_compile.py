"""repro.compile: replay against a workload's own eager trace.

The load-bearing assertion is **bit-exactness**: for every roster
workload a replay against the workload's eager trace must produce the
same outputs, the same counter digest, and the same classified errors
as eager execution.  Everything else — fresh per-replay stamps, the
serve plan policy, the resilience fallback, the CLI — is scaffolding
for that contract and is tested against it.
"""

import dataclasses
import json
import sys
import threading

import pytest

from tests.conftest import cached_trace
from repro.cli import main
from repro.compile import (PlanDivergenceError, PlanError,
                           active_session, diff_against_eager,
                           plan_session, replay)
from repro.core.profiler import Trace
from repro.core.taxonomy import category_for
from repro.hwsim.devices import RTX_2080TI
from repro.obs import selfprof
from repro.obs.metrics import RuntimeMetrics
from repro.obs.runrec import counters_digest
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.runner import (DETERMINISTIC, FALLBACK, REPLAYED,
                                     ResilientRunner, classify_error)
from repro.serve.batcher import Batch
from repro.serve.cache import ArtifactCache
from repro.serve.pool import Worker
from repro.serve.request import make_request
from repro.serve.server import InferenceServer, ServeConfig
from repro.tensor.context import op_observer
from repro.workloads import available, create


class _DispatchedEids:
    """``op_observer`` noting the eids of dispatcher-routed ops."""

    def __init__(self):
        self.eids = set()

    def observe_op(self, event, inputs, output):
        self.eids.add(event.eid)


_REPLAY_CACHE = {}


def cached_replay(name: str):
    """Replay each workload against its eager trace once per session.

    Returns the replayed trace and the eids the dispatcher routed
    (observers see ops only, never ``record_event``/``record_region``).
    """
    if name not in _REPLAY_CACHE:
        observer = _DispatchedEids()
        with op_observer(observer):
            trace = replay(create(name, seed=0), cached_trace(name, seed=0))
        _REPLAY_CACHE[name] = (trace, observer.eids)
    return _REPLAY_CACHE[name]


def _with_events(plan: Trace, events) -> Trace:
    """``plan`` with its event list replaced."""
    edited = Trace(plan.workload, events)
    edited.metadata = dict(plan.metadata)
    return edited


# ---------------------------------------------------------------------------
# bit-exactness across the roster
# ---------------------------------------------------------------------------

class TestBitExactness:
    @pytest.mark.parametrize("name", available())
    def test_compiled_replay_matches_eager(self, name):
        replayed, _ = cached_replay(name)
        eager = cached_trace(name, seed=0)
        comparison = diff_against_eager(eager, replayed)
        assert comparison["bit_exact"], comparison["mismatches"]
        assert counters_digest(replayed) == counters_digest(eager)

    @pytest.mark.parametrize("name", available())
    def test_metadata_mirrors_eager_profile(self, name):
        replayed, _ = cached_replay(name)
        eager = cached_trace(name, seed=0)
        assert set(replayed.metadata) == set(eager.metadata)
        assert repr(replayed.metadata["result"]) == \
            repr(eager.metadata["result"])
        assert replayed.metadata["peak_live_bytes"] == \
            eager.metadata["peak_live_bytes"]

    @pytest.mark.parametrize("name", available())
    def test_region_names_never_resolve_and_op_names_do(self, name):
        # the replay's name check is also its op/region check: an op
        # name can only equal the name of an op event
        replayed, dispatched = cached_replay(name)
        for event in replayed.events:
            if event.eid in dispatched:
                category_for(event.name)
            else:
                with pytest.raises(KeyError):
                    category_for(event.name)


# ---------------------------------------------------------------------------
# plan layout
# ---------------------------------------------------------------------------

class TestOptimizationPasses:
    """The positional plan layout replay relies on: one event per eid."""

    def test_region_steps_replay_in_position(self):
        # MCTS records host-side symbolic regions between dispatched
        # ops; they must consume their eids without session checks
        replayed, dispatched = cached_replay("mcts")
        plan = cached_trace("mcts", seed=0)
        assert len(dispatched) < len(plan.events)
        assert [e.eid for e in plan.events] == list(range(len(plan.events)))
        assert [(e.name, e.live_bytes) for e in replayed.events] == \
            [(e.name, e.live_bytes) for e in plan.events]
        assert counters_digest(replayed) == counters_digest(plan)


# ---------------------------------------------------------------------------
# executor session semantics
# ---------------------------------------------------------------------------

class TestExecutorSessions:
    def test_divergence_on_wrong_workload(self):
        plan = cached_trace("abl", seed=0)
        with pytest.raises(PlanError, match="refusing to replay 'gnn'"):
            replay(create("gnn", seed=0), plan)

    def test_every_replay_check_fires(self):
        plan = cached_trace("lnn", seed=0)
        events = plan.events
        _, dispatched = cached_replay("lnn")
        op = events[sorted(dispatched)[len(dispatched) // 2]]
        cases = {
            "overran the plan": events[:op.eid],
            "plan recorded 'renamed'": [
                dataclasses.replace(e, name="renamed") if e is op else e
                for e in events],
            "output shape": [
                dataclasses.replace(e, output_shape=(7, 7)) if e is op
                else e for e in events],
            f"replay recorded {len(events)} events but the plan has "
            f"{len(events) + 1}": events + [events[-1]],
        }
        for message, edited in cases.items():
            with pytest.raises(PlanDivergenceError, match=message):
                replay(create("lnn", seed=0), _with_events(plan, edited))

    def test_divergence_classifies_deterministic(self):
        error = PlanDivergenceError("replay diverged")
        assert isinstance(error, RuntimeError)
        assert classify_error(error) == DETERMINISTIC

    def test_session_is_thread_local(self):
        seen = {}

        def other_thread():
            seen["session"] = active_session()

        with plan_session(cached_trace("abl", seed=0)):
            assert active_session() is not None
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["session"] is None
        assert active_session() is None

    def test_session_refuses_fault_hooks(self):
        fault = FaultPlan(specs=[FaultSpec(kind="raise", rate=1.0)], seed=0)
        with fault:
            with pytest.raises(PlanError):
                with plan_session(cached_trace("abl", seed=0)):
                    pass  # pragma: no cover

    def test_concurrent_replays_stamp_their_own_spans(self):
        # every replayed event carries a span id of its own trace and a
        # start time inside that trace's profile: root span
        plan = cached_trace("nlm", seed=0)
        traces = [None, None]
        barrier = threading.Barrier(2)

        def run(slot):
            workload = create("nlm", seed=0)
            workload.build()
            barrier.wait(timeout=60)
            traces[slot] = replay(workload, plan)

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        for trace in traces:
            assert len(trace.events) == len(plan.events)
            sids = {span.sid for span in trace.spans}
            root = next(span for span in trace.spans
                        if span.name.startswith("profile:"))
            assert [e.eid for e in trace.events if e.sid not in sids] == []
            assert [e.eid for e in trace.events
                    if not root.start <= e.t_start <= root.end] == []

    def test_replayed_ops_reach_the_ledger(self):
        plan = cached_trace("abl", seed=0)
        with selfprof.scoped_ledger() as eager_ledger:
            create("abl", seed=0).profile()
        with selfprof.scoped_ledger() as replay_ledger:
            replay(create("abl", seed=0), plan)
        assert replay_ledger.ops_by_category() == \
            eager_ledger.ops_by_category()

    def test_bulk_metrics_match_eager_totals(self):
        plan = cached_trace("abl", seed=0)
        eager_runtime = RuntimeMetrics()
        eager_runtime.observe_trace(create("abl", seed=0).profile().events)
        replay_runtime = RuntimeMetrics()
        replay_runtime.observe_trace(
            replay(create("abl", seed=0), plan).events)
        assert dict(replay_runtime.ops_total.samples()) == \
            dict(eager_runtime.ops_total.samples())
        assert dict(replay_runtime.flops_total.samples()) == \
            dict(eager_runtime.flops_total.samples())
        assert dict(replay_runtime.bytes_total.samples()) == \
            dict(eager_runtime.bytes_total.samples())
        assert dict(replay_runtime.peak_live_bytes.samples()) == \
            dict(eager_runtime.peak_live_bytes.samples())


# ---------------------------------------------------------------------------
# resilience + serve integration
# ---------------------------------------------------------------------------

class TestCompiledResilience:
    def test_runner_compiled_outcome_ok(self):
        runner = ResilientRunner(timeout=None)
        outcome = runner.run_workload("abl", seed=0,
                                      plan=cached_trace("abl", seed=0))
        assert outcome.ok, outcome.error
        assert outcome.replay == REPLAYED
        assert runner.run_workload("abl", seed=0).replay is None

    def test_runner_falls_back_to_eager_on_plan_error(self):
        runner = ResilientRunner(timeout=None)
        outcome = runner.run_workload(
            "abl", seed=0, plan=cached_trace("gnn", seed=0))
        assert outcome.ok
        assert outcome.attempts == 1    # fallback, not a retry
        assert outcome.replay == FALLBACK
        assert counters_digest(outcome.report.trace) == \
            counters_digest(cached_trace("abl", seed=0))

    def test_fault_attempts_stay_eager(self):
        fault = FaultPlan(specs=[FaultSpec(kind="raise", rate=1.0,
                                           max_injections=1)],
                          seed=0)
        runner = ResilientRunner(timeout=None)
        outcome = runner.run_workload("abl", seed=0, fault_plan=fault,
                                      plan=cached_trace("abl", seed=0))
        # the injected fault must surface exactly as in an eager runner
        assert outcome.attempts >= 1
        assert fault.injections
        assert outcome.replay is None


def _batch(bid: int, workload: str = "nlm", seed: int = 0) -> Batch:
    request = make_request(bid, workload, seed=seed)
    return Batch(bid=bid, key=request.key, requests=[request])


class TestServePlanPolicy:
    """A repeated serve key replays its own earlier eager trace."""

    def test_second_run_keeps_and_third_replays(self):
        cache = ArtifactCache(capacity=4)
        worker = Worker(0, RTX_2080TI, cache)
        key = ("nlm", 0, ())
        first = worker.execute_batch(_batch(0))
        assert (first.outcome.replay, first.kept_plan) == (None, False)
        assert cache.plan(key) is None
        second = worker.execute_batch(_batch(1))
        assert (second.outcome.replay, second.kept_plan) == (None, True)
        assert cache.plan(key) is second.trace
        third = worker.execute_batch(_batch(2))
        assert (third.outcome.replay, third.kept_plan) == (REPLAYED, False)
        assert cache.plan(key) is second.trace
        assert counters_digest(third.trace) == counters_digest(first.trace)

    def test_fault_batches_and_retries_neither_keep_nor_replay(self):
        cache = ArtifactCache(capacity=4)
        worker = Worker(0, RTX_2080TI, cache)
        key = ("nlm", 0, ())
        worker.execute_batch(_batch(0))
        worker.execute_batch(_batch(1))
        plan = cache.plan(key)
        assert plan is not None

        faulty = Worker(1, RTX_2080TI, cache, fault_plans={
            "nlm": FaultPlan(specs=[FaultSpec(kind="latency", rate=1.0,
                                              latency=0.0)], seed=0)})
        result = faulty.execute_batch(_batch(2))
        assert result.status == "ok"
        assert (result.outcome.replay, result.kept_plan) == (None, False)
        assert cache.plan(key) is plan

        # a transient first attempt retries eagerly on a rotated seed
        make = worker.runner.factory
        seeds = []

        def flaky(name, seed=0, **params):
            seeds.append(seed)
            if len(seeds) == 1:
                raise OSError("transient")
            return make(name, seed=seed, **params)

        worker.runner.factory = flaky
        worker.runner.sleep = lambda seconds: None
        result = worker.execute_batch(_batch(3))
        assert result.status == "ok" and result.attempts == 2
        assert seeds == [0, 1]
        assert (result.outcome.replay, result.kept_plan) == (None, False)
        assert cache.plan(key) is plan
        assert cache.plan(("nlm", 1, ())) is None

    def test_kept_plan_leaves_with_its_entry(self):
        cache = ArtifactCache(capacity=1)
        worker = Worker(0, RTX_2080TI, cache)
        key = ("nlm", 0, ())
        worker.execute_batch(_batch(0))
        worker.execute_batch(_batch(1))
        assert cache.plan(key) is not None
        cache.checkout(("nlm", 1, ()))       # evicts the key
        assert cache.stats()["evictions"] == 1
        assert cache.plan(key) is None
        # the rebuilt entry starts over: its first run keeps nothing
        again = worker.execute_batch(_batch(2))
        assert (again.outcome.replay, again.kept_plan) == (None, False)
        assert cache.plan(key) is None

    def test_concurrent_offers_drop_exactly_one(self):
        # the first-offer mark is a check-then-act on a shared entry:
        # a lost update would let two racing first offers both drop
        class Built:
            def build(self):
                pass

        rounds, threads_n = 200, 8
        cache = ArtifactCache(capacity=rounds,
                              builder=lambda name, seed=0, **kw: Built())
        keys = [("x", seed, ()) for seed in range(rounds)]
        for key in keys:
            cache.checkout(key)
        traces = [Trace("x") for _ in range(threads_n)]
        dropped = [0] * threads_n
        barrier = threading.Barrier(threads_n)

        def offer(slot):
            for key in keys:
                barrier.wait(timeout=60)
                dropped[slot] += not cache.offer(key, traces[slot])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=offer, args=(slot,))
                       for slot in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(dropped) == rounds
        assert all(cache.plan(key) in traces for key in keys)

    def test_wrong_seed_plan_falls_back_and_is_counted(self):
        # LTN's op graph depends on its seed, so a seed-1 trace kept as
        # the seed-0 key's plan diverges
        server = InferenceServer(ServeConfig(workers=1))
        key = ("ltn", 0, ())
        wrong = create("ltn", seed=1).profile()
        server.cache.checkout(key)
        server.cache.offer(key, wrong)
        assert server.cache.offer(key, wrong)
        server.start()
        try:
            response = server.submit("ltn", seed=0).result(120)
        finally:
            server.stop()
        assert response.ok, response.error
        assert response.attempts == 1
        summary = server.stats.summary()
        assert summary["measured"]["replay"] == \
            {"replays": 0, "fallbacks": 1, "plans_kept": 1}
        assert "replay" not in summary["deterministic"]
        assert "fallbacks=1" in server.stats.render()
        # the fallback's own eager trace replaced the stale plan
        kept = server.cache.plan(key)
        assert kept is not wrong
        assert counters_digest(kept) == \
            counters_digest(create("ltn", seed=0).profile())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCompileCLI:
    def test_diff_round_trip(self, capsys):
        assert main(["compile", "diff", "abl", "--seed", "0",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bit_exact"] is True
        assert doc["mismatches"] == []
        assert doc["eager_counters_digest"] == \
            doc["replayed_counters_digest"]

    def test_diff_exit_code_on_divergence(self, monkeypatch, capsys):
        # a replay that completes but differs from eager (one event's
        # FLOPs moved) is a divergence: diff must exit 7, not 0
        from repro.compile import executor
        real_replay = executor.replay

        def skewed_replay(workload, plan):
            trace = real_replay(workload, plan)
            first = trace.events[0]
            trace.events[0] = dataclasses.replace(first,
                                                  flops=first.flops + 1.0)
            return trace

        monkeypatch.setattr(executor, "replay", skewed_replay)
        assert main(["compile", "diff", "abl", "--json"]) == 7
        doc = json.loads(capsys.readouterr().out)
        assert doc["bit_exact"] is False
        assert doc["mismatches"]
        assert doc["eager_counters_digest"] != \
            doc["replayed_counters_digest"]

    def test_refused_replay_exits_with_one_line(self, monkeypatch, capsys):
        from repro.compile import executor

        def diverging_replay(workload, plan):
            raise PlanDivergenceError("replay diverged at eid 3")

        monkeypatch.setattr(executor, "replay", diverging_replay)
        assert main(["compile", "diff", "abl"]) == 7
        err = capsys.readouterr().err
        assert "replay diverged at eid 3" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["compile", "build", "abl"],
        ["compile", "run", "abl"],
        ["compile", "diff", "abl", "--plan", "abl.json"],
        ["serve", "bench", "--compiled"],
        ["fuzz", "run", "--compiled"],
    ])
    def test_removed_commands_and_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


# ---------------------------------------------------------------------------
# fuzz differential + lint gate
# ---------------------------------------------------------------------------

class TestCompiledFuzzDifferential:
    def test_generated_programs_replay_bit_exactly(self):
        from repro.fuzz.generate import generate_program
        from repro.fuzz.oracle import check_program
        for offset in range(4):
            program = generate_program(770000 + offset, max_ops=8)
            result = check_program(program, rules=None)
            assert result.status in ("ok", "classified"), (
                offset, [d.to_dict() for d in result.divergences])

    def test_replay_differential_always_runs(self, monkeypatch):
        from repro.fuzz import oracle
        from repro.fuzz.generate import generate_program
        replay = oracle.execute_program_compiled

        def diverging(program, plan):
            result = replay(program, plan)
            result.status, result.error = "plan_divergence", "skewed"
            return result

        monkeypatch.setattr(oracle, "execute_program_compiled", diverging)
        result = oracle.check_program(generate_program(770000, max_ops=8))
        assert "compiled_divergence" in {d.kind
                                         for d in result.divergences}

    def test_classified_stop_reproduced_compiled(self):
        from repro.fuzz.generate import generate_program
        from repro.fuzz.oracle import (execute_program,
                                       execute_program_compiled)
        # find a program with a classified stop and assert the replay
        # of its own trace stops at the same node with the same error
        for offset in range(200):
            program = generate_program(880000 + offset, max_ops=10)
            eager = execute_program(program)
            if eager.status != "classified":
                continue
            replayed = execute_program_compiled(program, eager.trace)
            assert (replayed.status, replayed.error, replayed.error_op) == \
                (eager.status, eager.error, eager.error_op)
            return
        pytest.skip("no classified program in the probe window")


class TestCompileZoneLint:
    def test_mutant_fixture_is_caught(self, tmp_path):
        # compile/ is an instrumented zone, so RL001 polices the replay
        # path: the mutant's raw np.matmul must trip it there
        import shutil
        from pathlib import Path
        from repro.lint.engine import LintConfig, run_lint
        fixture = (Path(__file__).parent / "fixtures" / "compile_mutants"
                   / "compiled_replay_bypass.py")
        (tmp_path / "compile").mkdir()
        shutil.copy(fixture, tmp_path / "compile")
        result = run_lint(LintConfig(root=tmp_path))
        line = next(n for n, text in enumerate(
            fixture.read_text().splitlines(), start=1)
            if "np.matmul(" in text)
        assert [(f.check_id, f.path, f.line) for f in result.findings] \
            == [("RL001", "compile/compiled_replay_bypass.py", line)]
        assert "np.matmul" in result.findings[0].message
