"""Serving layer: queue, batching, cache, server, stats, CLI."""

import json
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import (AdmissionPolicy, ArtifactCache, ArtifactKey,
                         BatchPolicy, InferenceServer, LoadSpec,
                         REJECT_QUEUE_FULL, REJECT_SHUTDOWN,
                         REJECT_STALE_DEADLINE, Request, RequestQueue,
                         Response, ServeConfig, ServerStats, load_schedule,
                         make_request, open_loop, parse_mix, plan_batches,
                         rejection, run_closed_loop, save_schedule)
from repro.serve.pool import current_worker


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
        queue = RequestQueue(AdmissionPolicy(max_depth=2))
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
        queue = RequestQueue(AdmissionPolicy(max_depth=10_000))
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
        admission = AdmissionPolicy(max_depth=64)

        def plan():
            batches, rejections = plan_batches(open_loop(spec), policy,
                                               admission)
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
            AdmissionPolicy(max_depth=4))
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
        k1 = ArtifactKey("a", 0)
        cache.checkout(k1)
        cache.checkout(k1)
        cache.checkout(ArtifactKey("b", 0))
        cache.checkout(ArtifactKey("c", 0))   # evicts "a" (LRU)
        cache.checkout(k1)                    # rebuild
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 4, "evictions": 2,
                         "build_errors": 0, "size": 2, "capacity": 2}
        assert built == ["a", "b", "c", "a"]

    def test_checkout_returns_fresh_copies(self):
        cache = ArtifactCache(capacity=4)
        key = ArtifactKey("lnn", 0)
        first, second = cache.checkout(key), cache.checkout(key)
        assert first is not second
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

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
        key = ArtifactKey("a", 0)
        with pytest.raises(RuntimeError):
            cache.checkout(key)
        assert cache.stats()["build_errors"] == 1
        artifact = cache.checkout(key)     # clean rebuild, not a hang
        assert artifact.name == "a"
        assert len(calls) == 2
        assert cache.stats()["build_errors"] == 1

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
                        admission=AdmissionPolicy(max_depth=3),
                        batch=BatchPolicy(max_batch_size=16,
                                          max_wait=0.01))
        det = report.summary()["deterministic"]
        assert det["statuses"]["rejected"] == 5
        assert det["rejections"] == {REJECT_QUEUE_FULL: 5}
        assert det["statuses"]["ok"] == 3
        assert len(report.responses) == len(schedule)

    def test_report_trace_carries_serving_spans(self):
        report = _serve(lnn_schedule(4, gap=0.001))
        trace = report.report_trace()
        names = {span.name for span in trace.spans}
        assert "serve:batch" in names
        assert any(name.startswith("run:") for name in names)


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
            workers=1, admission=AdmissionPolicy(max_depth=4),
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

    def test_worker_context_visible_inside_batch(self):
        seen = []

        class Probe:
            def __init__(self, name, seed=0):
                self.name = name

            def build(self):
                return self

            def profile(self):
                seen.append(current_worker())
                from repro.workloads import create
                return create("lnn", seed=0).profile()

        server = InferenceServer(ServeConfig(workers=1))
        server.cache._builder = lambda n, seed=0, **kw: Probe(n, seed)
        server.run_schedule([make_request(0, "probe")])
        assert len(seen) == 1 and seen[0] is server.workers[0]
        assert current_worker() is None  # balanced enter/exit


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

    def test_render_and_prometheus(self):
        stats = ServerStats()
        stats.record_response(self._response(0, 0.01))
        text = stats.render()
        assert "Request outcomes" in text and "p99" in text
        prom = stats.render_prometheus()
        assert "repro_serve_requests_total" in prom
        assert 'quantile="0.99"' in prom


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
        with pytest.raises(ValueError):
            parse_mix("")
        with pytest.raises(ValueError):
            parse_mix("lnn=0")
        assert parse_mix("lnn,nvsa") == {"lnn": 1.0, "nvsa": 1.0}

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
