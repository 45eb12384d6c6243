"""Serving layer: queue, batching, cache, server, stats, CLI."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import (ArtifactCache, BatchPolicy, InferenceServer,
                         LoadSpec, REJECT_QUEUE_FULL, REJECT_SHUTDOWN,
                         REJECT_STALE_DEADLINE, Request, RequestQueue,
                         Response, ServeConfig, ServerStats, load_schedule,
                         make_request, open_loop, parse_mix, plan_batches,
                         rejection, run_closed_loop, save_schedule)


def lnn_schedule(n=12, gap=0.01, deadline=None, seed=0):
    return [make_request(i, "lnn", arrival=i * gap, seed=seed,
                         deadline=deadline) for i in range(n)]


class TestRequestModel:
    def test_params_frozen_and_sorted(self):
        a = make_request(0, "lnn", params={"b": 1, "a": 2})
        b = make_request(1, "lnn", params={"a": 2, "b": 1})
        assert a.key == b.key
        assert a.params == (("a", 2), ("b", 1))

    def test_key_separates_seeds_and_workloads(self):
        assert make_request(0, "lnn", seed=0).key != \
            make_request(1, "lnn", seed=1).key
        assert make_request(0, "lnn").key != make_request(0, "nvsa").key

    def test_dict_roundtrip(self):
        request = make_request(3, "nvsa", arrival=1.25, seed=2,
                               params={"x": 1}, priority=0, deadline=0.5)
        assert Request.from_dict(request.to_dict()) == request

    def test_rejection_response(self):
        response = rejection(make_request(0, "lnn", arrival=2.0),
                             REJECT_QUEUE_FULL)
        assert response.status == "rejected"
        assert response.reject_reason == REJECT_QUEUE_FULL
        assert not response.ok
        assert response.latency == 0.0


class TestRequestQueue:
    def test_priority_ordering(self):
        queue = RequestQueue()
        queue.offer(make_request(0, "lnn", arrival=0.0, priority=2))
        queue.offer(make_request(1, "lnn", arrival=0.1, priority=0))
        queue.offer(make_request(2, "lnn", arrival=0.2, priority=0))
        assert [queue.take_batch(1)[0].rid for _ in range(3)] == [1, 2, 0]

    def test_take_batch_head_then_same_key_riders(self):
        queue = RequestQueue()
        for request in (make_request(0, "lnn", arrival=0.0),
                        make_request(1, "nvsa", arrival=0.1),
                        make_request(2, "lnn", arrival=0.2),
                        make_request(3, "lnn", arrival=0.3, priority=0),
                        make_request(4, "lnn", arrival=0.4),
                        make_request(5, "nvsa", arrival=0.5),
                        make_request(6, "lnn", arrival=0.6, seed=1)):
            queue.offer(request)

        def take():
            return [r.rid for r in queue.take_batch(3, timeout=0.0)]

        # the urgent head brings its key's riders in queue order, capped
        assert take() == [3, 0, 2]
        assert len(queue) == 4
        # other keys kept their place: nvsa (0.1) now leads lnn (0.4)
        assert take() == [1, 5]
        assert take() == [4]
        assert take() == [6]       # another seed is another key
        assert take() == []

    def test_classified_rejections_never_silent(self):
        queue = RequestQueue(max_depth=2)
        reasons = [queue.offer(make_request(i, "lnn")) for i in range(4)]
        assert reasons == [None, None, REJECT_QUEUE_FULL,
                           REJECT_QUEUE_FULL]
        stale = queue.offer(make_request(9, "lnn", deadline=0.0))
        assert stale == REJECT_STALE_DEADLINE
        queue.close()
        assert queue.offer(make_request(10, "lnn")) == REJECT_SHUTDOWN
        counts = queue.counts()
        assert counts["accepted"] == 2
        assert counts["rejected"] == {REJECT_QUEUE_FULL: 2,
                                      REJECT_STALE_DEADLINE: 1,
                                      REJECT_SHUTDOWN: 1}
        assert counts["accepted"] + sum(counts["rejected"].values()) == 6

    def test_planner_and_queue_share_one_admission_rule(self):
        # the same arrivals, none leaving: the live queue and the
        # virtual-time planner shed the same requests for the same
        # reasons, stale deadlines first
        schedule = [make_request(i, "lnn", arrival=0.0,
                                 deadline=(0.0 if i % 3 == 0 else None))
                    for i in range(8)]
        queue = RequestQueue(max_depth=3)
        live = {r.rid: queue.offer(r) for r in schedule}
        _, rejections = plan_batches(
            schedule, BatchPolicy(max_batch_size=16, max_wait=1.0),
            max_depth=3)
        planned = {r.rid: None for r in schedule}
        planned.update({r.rid: reason for r, reason in rejections})
        assert planned == live
        assert live[0] == REJECT_STALE_DEADLINE
        assert live[7] == REJECT_QUEUE_FULL

    def test_close_wakes_blocked_consumers(self):
        queue = RequestQueue()
        taken = []

        def consume():
            taken.append(queue.take_batch(4, timeout=None))

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(2.0)
        assert not thread.is_alive(), "close() must wake waiting consumers"
        assert taken == [[]]

    def test_concurrent_producers_consumers(self):
        queue = RequestQueue(max_depth=10_000)
        taken = []
        lock = threading.Lock()

        def produce(base):
            for i in range(50):
                queue.offer(make_request(base + i, "lnn", seed=i % 3))

        def consume():
            while True:
                batch = queue.take_batch(4, timeout=None)
                if not batch:
                    return
                with lock:
                    taken.append(batch)

        producers = [threading.Thread(target=produce, args=(b,))
                     for b in (0, 1000)]
        consumers = [threading.Thread(target=consume) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # force interleavings
        try:
            for t in producers + consumers:
                t.start()
            for t in producers:
                t.join(5.0)
            queue.close()
            for t in consumers:
                t.join(5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in producers + consumers)
        assert all(len({r.key for r in batch}) == 1 for batch in taken)
        # no rid lost, none taken twice
        assert sorted(r.rid for batch in taken for r in batch) == \
            list(range(50)) + list(range(1000, 1050))


class TestPlanBatches:
    def test_deterministic_for_seeded_load(self):
        spec = LoadSpec.make(parse_mix("nvsa=3,lnn=1"), rate=200,
                             duration=2.0, seed=11, seed_pool=2)
        policy = BatchPolicy(max_batch_size=8, max_wait=0.05)

        def plan():
            batches, rejections = plan_batches(open_loop(spec), policy,
                                               max_depth=64)
            return ([(b.bid, b.key, tuple(r.rid for r in b.requests),
                      b.close_time) for b in batches],
                    [(r.rid, reason) for r, reason in rejections])

        assert plan() == plan()

    def test_size_cap_closes_early(self):
        schedule = [make_request(i, "lnn", arrival=0.001 * i)
                    for i in range(5)]
        batches, _ = plan_batches(schedule,
                                  BatchPolicy(max_batch_size=2,
                                              max_wait=10.0))
        assert [b.size for b in batches] == [2, 2, 1]
        # size-capped batches close at the filling arrival instant
        assert batches[0].close_time == schedule[1].arrival

    def test_wait_window_splits_sparse_arrivals(self):
        schedule = [make_request(0, "lnn", arrival=0.0),
                    make_request(1, "lnn", arrival=1.0)]
        batches, _ = plan_batches(schedule,
                                  BatchPolicy(max_batch_size=8,
                                              max_wait=0.1))
        assert [b.size for b in batches] == [1, 1]
        assert batches[0].close_time == pytest.approx(0.1)

    def test_incompatible_keys_never_share_a_batch(self):
        schedule = [make_request(0, "lnn", arrival=0.0, seed=0),
                    make_request(1, "lnn", arrival=0.0, seed=1),
                    make_request(2, "nvsa", arrival=0.0, seed=0)]
        batches, _ = plan_batches(schedule, BatchPolicy())
        assert len(batches) == 3
        for batch in batches:
            assert len({r.key for r in batch.requests}) == 1

    def test_admission_sheds_and_accounts_for_everything(self):
        schedule = [make_request(i, "lnn", arrival=0.0)
                    for i in range(10)]
        batches, rejections = plan_batches(
            schedule, BatchPolicy(max_batch_size=16, max_wait=0.05),
            max_depth=4)
        batched = sum(b.size for b in batches)
        assert batched == 4
        assert all(reason == REJECT_QUEUE_FULL
                   for _, reason in rejections)
        assert batched + len(rejections) == len(schedule)


class TestArtifactCache:
    def test_hit_miss_eviction_accounting(self):
        built = []

        class Fake:
            def __init__(self, name, seed=0):
                self.name, self.seed = name, seed

            def build(self):
                built.append(self.name)

        cache = ArtifactCache(capacity=2,
                              builder=lambda n, seed=0, **kw: Fake(n, seed))
        k1 = ("a", 0, ())
        cache.checkout(k1)
        cache.checkout(k1)
        cache.checkout(("b", 0, ()))
        cache.checkout(("c", 0, ()))          # evicts "a" (LRU)
        cache.checkout(k1)                    # rebuild
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 4, "evictions": 2,
                         "build_errors": 0, "size": 2, "capacity": 2}
        assert built == ["a", "b", "c", "a"]

    def test_checkout_returns_fresh_copies(self):
        # each copy profiles as a fresh build does, and profiling a copy
        # (LNN grows its KB and tightens its bounds) leaves the master
        from repro.obs.runrec import counters_digest
        from repro.workloads import create
        masters = []

        def build(name, seed=0, **params):
            masters.append(create(name, seed=seed, **params))
            return masters[-1]

        cache = ArtifactCache(capacity=4, builder=build)
        for seed in (0, 2):
            want = counters_digest(create("lnn", seed=seed).profile())
            key = ("lnn", seed, ())
            first = cache.checkout(key)
            master = masters[-1]
            facts = master.kb.num_facts
            bounds = {name: (t.lower.copy(), t.upper.copy())
                      for name, t in master.tables.items()}
            assert counters_digest(first.profile()) == want
            second = cache.checkout(key)
            assert second is not first and second is not master
            assert counters_digest(second.profile()) == want
            assert first.kb.num_facts == second.kb.num_facts > facts
            assert master.kb.num_facts == facts
            for name, table in master.tables.items():
                np.testing.assert_array_equal(table.lower, bounds[name][0])
                np.testing.assert_array_equal(table.upper, bounds[name][1])
        assert len(masters) == 2
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 2

    def test_lnn_checkout_copies_facts_and_shares_rules(self):
        built = []

        def build(name, seed=0, **params):
            from repro.workloads import create
            built.append(create(name, seed=seed, **params))
            return built[-1]

        cache = ArtifactCache(capacity=2, builder=build)
        twin = cache.checkout(("lnn", 0, ()))
        master = built[0].kb
        assert twin.kb is not master
        assert twin.kb.facts() == master.facts()
        assert all(a is b for a, b in zip(twin.kb.rules, master.rules))
        before = master.num_facts
        twin.kb.add_fact("student", "someone_new")
        assert twin.kb.num_facts == before + 1
        assert master.num_facts == before
        assert not master.has_fact("student", "someone_new")

    def test_failed_build_does_not_poison_the_gate(self):
        # first checkout dies mid-build; the key's build gate must be
        # torn down so a retry rebuilds instead of deadlocking or
        # resurrecting the dead artifact
        calls = []

        class Flaky:
            def __init__(self, name, seed=0):
                self.name, self.seed = name, seed

            def build(self):
                calls.append(self.name)
                if len(calls) == 1:
                    raise RuntimeError("transient build failure")

        cache = ArtifactCache(capacity=2,
                              builder=lambda n, seed=0, **kw: Flaky(n, seed))
        key = ("a", 0, ())
        with pytest.raises(RuntimeError):
            cache.checkout(key)
        assert cache.stats()["build_errors"] == 1
        artifact = cache.checkout(key)     # clean rebuild, not a hang
        assert artifact.name == "a"
        assert len(calls) == 2
        assert cache.stats()["build_errors"] == 1

    def test_factory_keys_entries_by_the_request_batch_key(self):
        built = []
        cache = ArtifactCache(
            capacity=4,
            builder=lambda n, seed=0, **kw: built.append((n, seed, kw)))
        cache.factory()("a", seed=1, y=2, x=1)
        request = make_request(0, "a", seed=1, params={"x": 1, "y": 2})
        cache.checkout(request.key)          # the factory's entry
        assert built == [("a", 1, {"x": 1, "y": 2})]
        assert cache.stats()["hits"] == 1

    def test_cached_execution_is_deterministic(self):
        # lnn mutates its KB while profiling; a cached instance must
        # therefore be copied per execution or the second run differs.
        cache = ArtifactCache(capacity=4)
        make = cache.factory()

        def run():
            workload = make("lnn", seed=0)
            trace = workload.profile()
            return dict(trace.metadata.get("result", {}))

        assert run() == run()


def _serve(schedule, **cfg_kw):
    cfg_kw.setdefault("workers", 2)
    cfg_kw.setdefault("batch", BatchPolicy(max_batch_size=4,
                                           max_wait=0.02))
    server = InferenceServer(ServeConfig(**cfg_kw))
    return server.run_schedule(schedule)


class TestInferenceServer:
    def test_deterministic_across_fresh_servers(self):
        schedule = lnn_schedule(10)
        a, b = _serve(schedule), _serve(schedule)
        assert (json.dumps(a.summary()["deterministic"], sort_keys=True)
                == json.dumps(b.summary()["deterministic"],
                              sort_keys=True))
        outcomes = lambda rep: [(r.rid, r.status, r.bid, r.batch_size,
                                 r.worker, r.device, r.queue_wait,
                                 r.modeled_latency, r.completion)
                                for r in rep.responses]
        assert outcomes(a) == outcomes(b)

    def test_batches_amortize_execution(self):
        report = _serve(lnn_schedule(8, gap=0.001))
        det = report.summary()["deterministic"]
        assert det["batches"] == 2
        assert det["statuses"]["ok"] == 8
        assert det["mean_batch_size"] == 4.0
        assert report.stats.wall_elapsed > 0

    def test_deadline_miss_marks_degraded_not_ok(self):
        report = _serve(lnn_schedule(6, gap=0.0, deadline=1e-9))
        statuses = {r.status for r in report.responses}
        assert statuses == {"degraded"}
        assert all(r.deadline_exceeded for r in report.responses)
        det = report.summary()["deterministic"]
        assert det["deadline_exceeded"] == 6
        assert det["statuses"]["ok"] == 0

    def test_faults_degrade_requests_not_workers(self):
        plan = FaultPlan([FaultSpec(kind="nan", rate=1.0)], seed=3)
        server = InferenceServer(
            ServeConfig(workers=2, batch=BatchPolicy(max_batch_size=4,
                                                     max_wait=0.02)),
            fault_plans={"lnn": plan})
        report = server.run_schedule(lnn_schedule(6, gap=0.001))
        assert all(r.status in ("degraded", "failed")
                   for r in report.responses)
        # the pool survived: an unfaulted workload still serves cleanly
        clean = server.run_schedule(
            [make_request(100 + i, "ltn", arrival=0.001 * i)
             for i in range(4)])
        assert {r.status for r in clean.responses} == {"ok"}

    def test_rejections_surface_in_responses_and_stats(self):
        schedule = [make_request(i, "lnn", arrival=0.0)
                    for i in range(8)]
        report = _serve(schedule,
                        max_depth=3,
                        batch=BatchPolicy(max_batch_size=16,
                                          max_wait=0.01))
        det = report.summary()["deterministic"]
        assert det["statuses"]["rejected"] == 5
        assert det["rejections"] == {REJECT_QUEUE_FULL: 5}
        assert det["statuses"]["ok"] == 3
        assert len(report.responses) == len(schedule)

    def test_worker_characterizes_on_its_own_device(self):
        from repro.hwsim.devices import XEON_4114
        report = _serve([make_request(0, "lnn")], workers=1,
                        devices=(XEON_4114,))
        response = report.responses[0]
        outcome = report.batch_results[response.bid].outcome
        assert response.device == XEON_4114.name
        assert outcome.report.device == XEON_4114.name
        assert outcome.report.latency.total_time == \
            response.modeled_latency

    def test_virtual_worker_on_another_device_projects_again(self):
        # schedule mode may dispatch a batch to a virtual worker whose
        # device differs from the one that ran it: its service time is
        # the trace projected on the virtual worker's device
        from repro.core.analysis import latency_breakdown
        from repro.hwsim.devices import RTX_2080TI, XEON_4114, get_device
        from repro.hwsim.latency import project_trace
        report = _serve(lnn_schedule(6, gap=0.0005, seed=3), workers=3,
                        devices=(RTX_2080TI, XEON_4114),
                        batch=BatchPolicy(max_batch_size=1))
        moved = 0
        for response in report.responses:
            result = report.batch_results[response.bid]
            moved += response.device != result.device
            device = get_device(response.device)
            assert response.modeled_latency == latency_breakdown(
                project_trace(result.trace, device)).total_time
        assert moved

    def test_report_trace_carries_serving_spans(self):
        report = _serve(lnn_schedule(4, gap=0.001))
        trace = report.report_trace()
        names = {span.name for span in trace.spans}
        assert "serve:batch" in names
        assert any(name.startswith("run:") for name in names)

    def test_report_trace_leaves_the_batch_traces_as_recorded(self):
        # a batch's trace may be its key's replay plan: the report
        # grafts the serving spans onto a new trace of its events
        report = _serve(lnn_schedule(4, gap=0.001))
        traces = [result.trace for result in report.batch_results.values()
                  if result.trace is not None]
        recorded = [list(trace.spans) for trace in traces]
        grafted = report.report_trace()
        assert [list(trace.spans) for trace in traces] == recorded
        assert all(grafted is not trace for trace in traces)
        assert any(list(grafted) == list(trace)
                   and grafted.metadata == trace.metadata
                   for trace in traces)


class TestLiveServer:
    def test_submit_resolves_through_batches(self):
        server = InferenceServer(
            ServeConfig(workers=2, batch=BatchPolicy(max_batch_size=8,
                                                     max_wait=0.03)))
        server.start()
        try:
            pending = [server.submit("lnn", seed=0) for _ in range(6)]
            responses = [p.result(timeout=60.0) for p in pending]
        finally:
            server.stop(drain=True)
        assert {r.status for r in responses} == {"ok"}
        assert all(r.bid is not None for r in responses)
        summary = server.stats.summary()
        assert summary["deterministic"]["requests"] == 6
        assert summary["measured"]["wall_elapsed"] > 0

    @pytest.mark.parametrize("drain", [True, False])
    def test_stop_classifies_every_pending_request(self, drain):
        # requests still queued at shutdown must still resolve to a
        # classified terminal state
        from repro.serve.queue import REJECT_REASONS
        from repro.serve.request import (REQUEST_STATUSES,
                                         STATUS_REJECTED)
        server = InferenceServer(
            ServeConfig(workers=1, batch=BatchPolicy(max_batch_size=2,
                                                     max_wait=0.01)))
        server.start()
        try:
            pending = [server.submit("lnn", seed=0) for _ in range(8)]
        finally:
            server.stop(drain=drain)
        for p in pending:
            assert p.done()
            response = p.result(timeout=0.0)
            assert response.status in REQUEST_STATUSES
            if response.status == STATUS_REJECTED:
                assert response.reject_reason in REJECT_REASONS
        if drain:
            assert all(p.result(timeout=0.0).status == "ok"
                       for p in pending)
        assert not server._pending

    def test_modeled_latency_reads_the_batch_report(self, monkeypatch):
        # each worker's runner already characterized its batch on the
        # worker's device, so live serving projects no trace again,
        # however many distinct keys it serves
        import repro.serve.server as server_module
        project = server_module.latency_breakdown
        calls = []

        def counted(projected):
            calls.append(projected.device.name)
            return project(projected)

        monkeypatch.setattr(server_module, "latency_breakdown", counted)
        server = InferenceServer(ServeConfig(workers=2, cache_capacity=2))
        server.start()
        try:
            pending = [server.submit("lnn", seed=seed) for seed in range(6)]
            responses = [p.result(timeout=60.0) for p in pending]
        finally:
            server.stop(drain=True)
        assert {r.status for r in responses} == {"ok"}
        assert all(r.modeled_latency > 0 for r in responses)
        assert calls == []

    def test_idle_worker_takes_a_lone_request_at_once(self):
        # max_wait only shapes virtual-time plans: an idle live worker
        # runs a lone request straight away instead of holding it
        server = InferenceServer(
            ServeConfig(workers=1, batch=BatchPolicy(max_wait=2.0)))
        server.start()
        try:
            server.submit("lnn", seed=0).result(timeout=60.0)   # warm
            response = server.submit("lnn", seed=0).result(timeout=60.0)
        finally:
            server.stop(drain=True)
        assert response.ok
        assert response.queue_wait < 0.05

    def test_live_deadline_miss_marks_degraded_not_ok(self):
        # a deadline shorter than the batch's run: the batch succeeds,
        # but the request completes past its budget
        server = InferenceServer(ServeConfig(workers=1))
        server.start()
        try:
            response = server.submit("lnn", seed=0,
                                     deadline=1e-6).result(timeout=60.0)
        finally:
            server.stop(drain=True)
        assert response.status == "degraded"
        assert response.deadline_exceeded
        assert response.attempts == 1 and response.error is None
        assert response.latency > response.deadline
        det = server.stats.summary()["deterministic"]
        assert det["deadline_exceeded"] == 1
        assert det["statuses"]["degraded"] == 1

    def test_live_admission_is_bounded(self):
        # while the only worker is held inside a batch, admitted
        # requests wait in the bounded queue, so its depth bound sheds
        # the excess; the backlog then runs in size-capped batches
        entered, release = threading.Event(), threading.Event()

        class Gated:
            def __init__(self, name):
                self.name = name

            def build(self):
                if self.name == "blocker":
                    entered.set()
                    release.wait(30.0)
                return self

            def profile(self):
                from repro.workloads import create
                return create("lnn", seed=0).profile()

        server = InferenceServer(ServeConfig(
            workers=1, max_depth=4,
            batch=BatchPolicy(max_batch_size=3, max_wait=0.01)))
        server.cache._builder = lambda n, seed=0, **kw: Gated(n)
        server.start()
        try:
            blocker = server.submit("blocker")
            assert entered.wait(30.0)
            pending = []
            for _ in range(6):
                pending.append(server.submit("probe"))
                time.sleep(0.03)
            release.set()
            responses = [p.result(timeout=60.0) for p in pending]
            assert blocker.result(timeout=60.0).ok
        finally:
            release.set()
            server.stop(drain=True)
        assert [r.status for r in responses] == ["ok"] * 4 + ["rejected"] * 2
        assert [r.reject_reason for r in responses[4:]] == \
            [REJECT_QUEUE_FULL] * 2
        assert [r.batch_size for r in responses[:4]] == [3, 3, 3, 1]
        det = server.stats.summary()["deterministic"]
        assert det["queue_depth_peak"] == 4
        assert det["batch_size_hist"] == {"1": 2, "3": 1}

class TestServerStats:
    def _response(self, rid, latency, status="ok", workload="lnn"):
        return Response(rid=rid, workload=workload, status=status,
                        bid=0, batch_size=1, arrival=0.0,
                        queue_wait=latency / 2, completion=latency,
                        modeled_latency=latency / 2)

    def test_percentiles_and_breakdown(self):
        stats = ServerStats()
        for i in range(100):
            stats.record_response(self._response(i, 0.001 * (i + 1)))
        stats.record_response(rejection(make_request(100, "lnn"),
                                        REJECT_QUEUE_FULL))
        summary = stats.summary()
        det = summary["deterministic"]
        assert det["requests"] == 101
        assert det["statuses"]["ok"] == 100
        assert det["rejection_rate"] == pytest.approx(1 / 101)
        latency = det["latency"]
        assert latency["count"] == 100
        assert 0.04 < latency["p50"] < 0.06
        assert 0.09 < latency["p99"] <= 0.11
        assert det["per_workload"]["lnn"]["requests"] == 100

    def test_all_workload_block_merges_buckets(self):
        # the all-workload percentiles interpolate over the summed
        # buckets: the same as one workload holding every observation
        values = [0.0004 * (i + 1) ** 1.5 for i in range(60)]
        split, single = ServerStats(), ServerStats()
        for i, value in enumerate(values):
            split.record_response(self._response(
                i, value, workload=("lnn", "nvsa", "ltn")[i % 3]))
            single.record_response(self._response(i, value))
        merged = split.summary()["deterministic"]["latency"]
        whole = single.summary()["deterministic"]["latency"]
        assert merged == pytest.approx(whole)
        assert [merged[q] for q in ("p50", "p95", "p99")] == \
            [whole[q] for q in ("p50", "p95", "p99")]
        assert ServerStats().summary()["deterministic"]["latency"] == {
            "count": 0, "sum": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_render(self):
        stats = ServerStats()
        stats.record_response(self._response(0, 0.01))
        text = stats.render()
        assert "Request outcomes" in text and "p99" in text


class TestLoadgenAndCli:
    def test_open_loop_deterministic_and_mixed(self):
        spec = LoadSpec.make(parse_mix("nvsa=3,lnn=1"), rate=100,
                             duration=2.0, seed=5)
        a, b = open_loop(spec), open_loop(spec)
        assert a == b
        names = {r.workload for r in a}
        assert names == {"nvsa", "lnn"}
        assert all(0 <= r.arrival < spec.duration for r in a)

    def test_schedule_roundtrip(self, tmp_path):
        schedule = open_loop(LoadSpec.make({"lnn": 1.0}, rate=50,
                                           duration=1.0, seed=2))
        path = tmp_path / "sched.jsonl"
        with open(path, "w") as fh:
            save_schedule(schedule, fh, meta={"seed": 2})
        with open(path) as fh:
            assert load_schedule(fh) == schedule

    def test_parse_mix_rejects_garbage(self):
        for bad in ("", "lnn=0", "lnn=abc", "lnn=nan", "lnn=inf"):
            with pytest.raises(ValueError):
                parse_mix(bad)
        assert parse_mix("lnn,nvsa") == {"lnn": 1.0, "nvsa": 1.0}

    @pytest.mark.parametrize("field", ["rate", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_load_spec_rejects_an_endless_schedule(self, field, value):
        # open_loop would never reach a NaN or infinite horizon
        with pytest.raises(ValueError, match=field):
            LoadSpec.make({"lnn": 1.0}, **{field: value})

    def test_closed_loop_counts_every_request(self):
        server = InferenceServer(ServeConfig(workers=2))
        server.start()
        try:
            report = run_closed_loop(server, LoadSpec.make({"lnn": 1.0}),
                                     clients=2, requests_per_client=2)
        finally:
            server.stop(drain=True)
        assert report.issued == report.completed == 4
        assert report.statuses == {"ok": 4}
        assert server.stats.summary()["deterministic"]["requests"] == 4

    def test_closed_loop_surfaces_client_errors(self):
        server = InferenceServer()   # never started: submit() raises
        with pytest.raises(RuntimeError, match="not started"):
            run_closed_loop(server, LoadSpec.make({"lnn": 1.0}),
                            clients=2, requests_per_client=1)

    def test_bench_deterministic_and_replayable(self, tmp_path, capsys):
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        sched = tmp_path / "sched.jsonl"
        html = tmp_path / "report.html"
        flags = ["serve", "bench", "--mix", "lnn=1", "--rate", "40",
                 "--duration", "1", "--seed", "3", "--workers", "2",
                 "--device", "xeon", "--max-batch", "8",
                 "--max-wait-ms", "30"]
        assert main(flags + ["-o", str(out1), "--report", str(html),
                             "--save-schedule", str(sched)]) == 0
        assert main(flags + ["-o", str(out2)]) == 0
        one = json.loads(out1.read_text())
        two = json.loads(out2.read_text())
        assert one["deterministic"] == two["deterministic"]
        assert one["measured"]["wall_elapsed"] > 0
        assert "serve:batch" in html.read_text()

        replay_out = tmp_path / "replay.json"
        assert main(["serve", "replay", str(sched), "--workers", "2",
                     "--device", "xeon", "--max-batch", "8",
                     "--max-wait-ms", "30",
                     "-o", str(replay_out)]) == 0
        replay = json.loads(replay_out.read_text())
        assert replay["deterministic"] == one["deterministic"]


def _serve_cli(argv):
    """Exit status of ``repro serve ARGV`` (a parse error's included)."""
    try:
        return main(["serve"] + argv)
    except SystemExit as exc:
        return exc.code


class TestCliUsageErrors:
    """A bad flag value or an output a run cannot write is a usage
    error: exit 2, one stderr line naming the flag and its value, no
    work done and never a traceback."""

    BAD_FLAGS = [
        (["bench", "--mix", "nvsa=abc"], "--mix", "abc"),
        (["bench", "--mix", "nvsa=0"], "--mix", "0"),
        (["bench", "--mix", "bogus=1", "--duration", "0.1"],
         "--mix", "bogus"),
        (["bench", "--workers", "0"], "--workers", "0"),
        (["bench", "--queue-depth", "0"], "--queue-depth", "0"),
        (["bench", "--max-batch", "0"], "--max-batch", "0"),
        (["bench", "--cache-capacity", "0"], "--cache-capacity", "0"),
        (["bench", "--seed-pool", "0"], "--seed-pool", "0"),
        (["bench", "--rate", "0"], "--rate", "0"),
        (["bench", "--duration", "-1"], "--duration", "-1"),
        (["bench", "--live-snapshots", "F", "--snapshot-interval", "0"],
         "--snapshot-interval", "0"),
        (["bench", "--live-snapshots", "F", "--sample-ratio", "2"],
         "--sample-ratio", "2"),
        (["replay", "missing.jsonl"], "schedule", "missing.jsonl"),
        (["bench", "--loop", "closed", "--clients", "0"],
         "--clients", "0"),
        (["bench", "--max-wait-ms", "-1"], "--max-wait-ms", "-1"),
        (["bench", "--max-retries", "-1"], "--max-retries", "-1"),
        (["bench", "--timeout", "0"], "--timeout", "0"),
        (["bench", "--deadline-ms", "-5"], "--deadline-ms", "-5"),
    ]

    @pytest.mark.parametrize("argv,flag,value", BAD_FLAGS,
                             ids=[" ".join(case[0]) for case in BAD_FLAGS])
    def test_bad_flag_value(self, argv, flag, value, tmp_path,
                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _serve_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert f"argument {flag}: " in err and value in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("live,flag", [
        ("bench", "--report"), ("bench", "--trace-jsonl"),
        ("bench", "--save-schedule"),
        ("replay", "--report"), ("replay", "--trace-jsonl")])
    def test_live_run_refuses_outputs_it_cannot_write(self, live, flag,
                                                      tmp_path, capsys):
        if live == "bench":
            argv = ["bench", "--loop", "closed", "--mix", "lnn=1",
                    "--clients", "1", "--requests-per-client", "1"]
        else:
            sched = tmp_path / "sched.jsonl"
            with open(sched, "w") as fh:
                save_schedule(lnn_schedule(n=2), fh)
            argv = ["replay", str(sched), "--realtime"]
        target = tmp_path / "out"
        assert _serve_cli(argv + [flag, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert f"argument {flag}: " in err and str(target) in err
        assert not target.exists()

    @pytest.mark.parametrize("live,flag,value", [
        ("bench", "--rate", "100"), ("bench", "--duration", "1"),
        ("bench", "--max-wait-ms", "10"),
        ("replay", "--max-wait-ms", "10")])
    def test_live_run_refuses_flags_it_would_ignore(self, live, flag, value,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        def refuse(server):
            raise AssertionError("a refused run started serving")

        monkeypatch.setattr(InferenceServer, "start", refuse)
        if live == "bench":
            argv = ["bench", "--loop", "closed", "--mix", "lnn=1",
                    "--clients", "1", "--requests-per-client", "1"]
        else:
            sched = tmp_path / "sched.jsonl"
            with open(sched, "w") as fh:
                save_schedule(lnn_schedule(n=2), fh)
            argv = ["replay", str(sched), "--realtime"]
        target = tmp_path / "stats.json"
        assert _serve_cli(argv + [flag, value, "-o", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert f"argument {flag}: " in err and "ignores it" in err
        assert not target.exists()

    def test_planned_runs_keep_their_defaults(self, tmp_path, monkeypatch,
                                              capsys):
        import repro.serve.cli as serve_cli
        full = serve_cli.open_loop
        # serve the schedule's first requests only: the meta is checked
        monkeypatch.setattr(serve_cli, "open_loop",
                            lambda spec: full(spec)[:4])
        out = tmp_path / "open.json"
        assert _serve_cli(["bench", "--mix", "lnn=1", "--seed", "0",
                           "-o", str(out)]) == 0
        capsys.readouterr()
        meta = json.loads(out.read_text())["meta"]
        assert (meta["rate"], meta["duration"], meta["max_wait_ms"]) == \
            (100.0, 10.0, 50.0)

    def test_realtime_replay_accounts_for_every_request(self, tmp_path,
                                                        capsys):
        sched, out = tmp_path / "sched.jsonl", tmp_path / "live.json"
        assert _serve_cli(["bench", "--mix", "lnn=1", "--rate", "20",
                       "--duration", "0.5", "--seed", "0",
                       "--save-schedule", str(sched)]) == 0
        with open(sched) as fh:
            requests = len(load_schedule(fh))
        assert requests > 0
        assert _serve_cli(["replay", str(sched), "--realtime",
                       "-o", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        det = payload["deterministic"]
        assert payload["meta"]["mode"] == "replay-realtime"
        assert det["requests"] == requests
        assert sum(det["statuses"].values()) == requests
        assert det["statuses"].get("failed", 0) == 0
