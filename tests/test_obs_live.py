"""Tests for trace ids and the live telemetry layer.

Covers trace identity (a request's trace id is a pure function of the
request and survives pickling — the cross-process wire-format
contract — a batch's depends on its members, and a span inherits its
parent's) and :mod:`repro.obs.live` (rolling snapshot aggregation,
tail-sampling determinism, burn-rate alert thresholds, and the
LiveTelemetry facade's JSONL output).
"""

import json
import pickle
import random

import pytest

from repro.obs.live import (ERROR_BUDGET, FAST_BURN, FAST_WINDOW,
                            SLO_OBJECTIVE, SLOW_BURN, SLOW_WINDOW,
                            SNAPSHOT_WINDOW, BurnRateMonitor,
                            LiveTelemetry, SnapshotAggregator,
                            TailSamplingPolicy)
from repro.obs.spans import SpanCollector, span
from repro.serve import Batch, batch_trace_id, make_request


def _event(t, status="ok", latency=0.01, queue_wait=0.002,
           trace_id="t0", rid=0, **extra):
    event = {"t": t, "status": status, "latency": latency,
             "queue_wait": queue_wait, "trace_id": trace_id, "rid": rid}
    event.update(extra)
    return event


# -- trace ids ---------------------------------------------------------------

class TestTraceContext:
    """A request names its own trace; a span names its parent's."""

    def test_minting_is_deterministic(self):
        a = make_request(7, "nvsa", seed=3)
        b = make_request(7, "nvsa", arrival=1.5, seed=3, priority=0)
        # pinned: exported traces and sampled-id sets keep their ids
        assert a.trace_id == b.trace_id == "c173d9f917426e1e"
        assert make_request(7, "nvsa", seed=4).trace_id != a.trace_id
        assert make_request(8, "nvsa", seed=3).trace_id != a.trace_id
        assert make_request(7, "lnn", seed=3).trace_id != a.trace_id

    def test_pickle_round_trip(self):
        # the cross-process wire-format contract: a request must
        # survive a queue hop with its trace id intact
        request = make_request(3, "nvsa", seed=1, params={"k": 2},
                               deadline=0.5)
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request
        assert clone.trace_id == request.trace_id

    def test_batch_trace_id_depends_on_membership(self):
        def batch(*rids):
            requests = [make_request(rid, "lnn") for rid in rids]
            return Batch(bid=0, key=requests[0].key, requests=requests)
        assert batch_trace_id(batch(0, 1, 2)) == "ae722e66e4ec1ef1"
        assert batch_trace_id(batch(0, 1, 2)) != batch_trace_id(batch(0))
        assert batch_trace_id(batch(0, 1)) != batch_trace_id(batch(1, 0))

    def test_span_ctx_kwarg_scopes_descendants(self):
        with SpanCollector() as collector:
            with span("outside"):
                pass
            with span("serve:batch", trace_id="b0", bid=0):
                with span("child"):
                    with span("grandchild"):
                        pass
                with span("other", trace_id="b1"):
                    with span("other-child"):
                        pass
            with span("sibling"):
                pass
        by_name = {record.name: record for record in collector.spans}
        assert by_name["serve:batch"].trace_id == "b0"
        assert by_name["child"].trace_id == "b0"
        assert by_name["grandchild"].trace_id == "b0"
        assert by_name["other"].trace_id == "b1"
        assert by_name["other-child"].trace_id == "b1"
        assert by_name["outside"].trace_id is None
        assert by_name["sibling"].trace_id is None
        assert "trace_id" not in by_name["serve:batch"].attrs


# -- snapshots ---------------------------------------------------------------

class TestSnapshotAggregator:
    def test_percentiles_and_counts(self):
        # 100 events spread over exactly one window
        agg = SnapshotAggregator()
        step = SNAPSHOT_WINDOW / 100
        for i in range(100):
            agg.observe(_event(t=step * (i + 1), latency=0.001 * (i + 1)))
        snap = agg.snapshot(at=SNAPSHOT_WINDOW)
        assert snap["type"] == "snapshot"
        assert snap["window"] == SNAPSHOT_WINDOW
        assert snap["count"] == 100
        assert snap["statuses"] == {"ok": 100}
        assert snap["latency"]["p50"] == pytest.approx(0.050, abs=0.002)
        assert snap["latency"]["p99"] == pytest.approx(0.099, abs=0.002)
        assert snap["throughput_rps"] == pytest.approx(
            100 / SNAPSHOT_WINDOW)

    def test_window_rolls_off_old_events(self):
        agg = SnapshotAggregator()
        agg.observe(_event(t=0.1))
        agg.observe(_event(t=SNAPSHOT_WINDOW + 3.0))
        snap = agg.snapshot(at=SNAPSHOT_WINDOW + 3.5)
        assert snap["count"] == 1

    def test_rejection_mix(self):
        agg = SnapshotAggregator()
        agg.observe(_event(t=1.0))
        agg.observe(_event(t=2.0, status="rejected",
                           reject_reason="queue_full"))
        agg.observe(_event(t=3.0, status="rejected",
                           reject_reason="queue_full"))
        agg.observe(_event(t=4.0, status="rejected",
                           reject_reason="stale_deadline"))
        snap = agg.snapshot(at=5.0)
        assert snap["rejections"] == {"queue_full": 2, "stale_deadline": 1}
        assert snap["statuses"] == {"ok": 1, "rejected": 3}

    def test_window_validation(self):
        # throughput divides by the window: it must stay positive
        assert SNAPSHOT_WINDOW > 0
        assert SnapshotAggregator().snapshot(at=0.0)["throughput_rps"] \
            == 0.0


# -- tail sampling -----------------------------------------------------------

class TestTailSampling:
    def test_interesting_outcomes_always_kept(self):
        policy = TailSamplingPolicy(seed=0, healthy_ratio=0.0)
        assert policy.decide(_event(0.0, status="failed")) == "failed"
        assert policy.decide(_event(0.0, status="degraded")) == "degraded"
        assert policy.decide(_event(0.0, status="rejected")) == "rejected"
        assert policy.decide(
            _event(0.0, deadline_exceeded=True)) == "deadline"

    def test_healthy_draw_is_deterministic(self):
        # the CI determinism assertion depends on this: same seed →
        # identical retained trace-id set, across runs and processes
        ids = [f"trace{i:04d}" for i in range(400)]
        def kept(seed):
            policy = TailSamplingPolicy(seed=seed, healthy_ratio=0.1)
            return [tid for tid in ids
                    if policy.decide(_event(0.0, trace_id=tid))]
        assert kept(7) == kept(7)
        assert kept(7) != kept(8)
        # ratio is roughly honored over a large draw
        assert 10 <= len(kept(7)) <= 90

    def test_ratio_bounds(self):
        assert TailSamplingPolicy(healthy_ratio=1.0).decide(
            _event(0.0)) == "healthy_sample"
        assert TailSamplingPolicy(healthy_ratio=0.0).decide(
            _event(0.0)) is None
        with pytest.raises(ValueError):
            TailSamplingPolicy(healthy_ratio=1.5)


# -- burn rate ---------------------------------------------------------------

class _RescanMonitor:
    """Reference: the former monitor, rescanning its windows per event."""

    def __init__(self):
        self.events = []
        self.active = {"page": False, "ticket": False}

    def observe(self, event):
        at = float(event["t"])
        self.events.append((at, event["status"] in ("failed", "rejected")
                            or bool(event.get("deadline_exceeded"))))
        horizon = at - max(FAST_WINDOW, SLOW_WINDOW)
        self.events = [(t, e) for t, e in self.events if t > horizon]
        raised = []
        for severity, window, threshold in (
                ("page", FAST_WINDOW, FAST_BURN),
                ("ticket", SLOW_WINDOW, SLOW_BURN)):
            inside = [e for t, e in self.events if t > at - window]
            burn = (sum(inside) / len(inside)) / ERROR_BUDGET
            breached = burn >= threshold
            if breached and not self.active[severity]:
                raised.append({"type": "alert", "severity": severity,
                               "t": round(at, 9),
                               "burn_rate": round(burn, 6),
                               "threshold": threshold, "window": window,
                               "objective": SLO_OBJECTIVE})
            self.active[severity] = breached
        return raised


class TestBurnRateMonitor:
    def test_page_fires_on_fast_burn(self):
        # objective 0.99 → 1% budget; fast threshold 14.4 → a window
        # error rate >= 14.4% pages.  20 events, 4 errors = 20%.
        monitor = BurnRateMonitor()
        raised = []
        for i in range(20):
            status = "failed" if i % 5 == 0 else "ok"
            raised.extend(monitor.observe(_event(t=0.1 * i, status=status)))
        severities = {a["severity"] for a in raised}
        assert "page" in severities
        page = next(a for a in raised if a["severity"] == "page")
        assert page["burn_rate"] >= page["threshold"]
        assert page["window"] == FAST_WINDOW
        assert page["objective"] == SLO_OBJECTIVE

    def test_no_alert_below_threshold(self):
        monitor = BurnRateMonitor()
        for i in range(100):
            status = "failed" if i == 50 else "ok"   # 1% ≈ burn 1.0
            monitor.observe(_event(t=0.01 * i, status=status))
        assert monitor.alerts == []

    def test_edge_triggered_no_storm(self):
        monitor = BurnRateMonitor()
        for i in range(50):
            monitor.observe(_event(t=0.01 * i, status="failed"))
        pages = [a for a in monitor.alerts if a["severity"] == "page"]
        assert len(pages) == 1   # condition held for 50 events: 1 alert

    def test_rearm_after_recovery(self):
        monitor = BurnRateMonitor()
        for i in range(10):
            monitor.observe(_event(t=0.05 * i, status="failed"))
        calm = SLOW_WINDOW + 1.0                 # > both windows of calm
        for i in range(int(calm / 0.5)):
            monitor.observe(_event(t=1.0 + 0.5 * i, status="ok"))
        before = len([a for a in monitor.alerts
                      if a["severity"] == "page"])
        assert before == 1
        for i in range(10):
            monitor.observe(_event(t=calm + 5.0 + 0.05 * i,
                                   status="failed"))
        after = len([a for a in monitor.alerts if a["severity"] == "page"])
        assert after == before + 1               # re-armed, re-fired

    def test_matches_full_rescan_on_in_order_streams(self):
        # seeded streams in non-decreasing t: rates 1-1000 events/s,
        # error rates 0-0.9, equal timestamps, gaps past both windows,
        # and timestamps on a grid, so events land exactly on a
        # window's start
        raised = {"page": 0, "ticket": 0}
        for seed in range(100):
            rng = random.Random(seed)
            rate = 10 ** rng.uniform(0.0, 3.0)
            error_rate = rng.choice((0.0, 0.01, 0.1, 0.3, 0.9))
            grid = rng.choice((None, 0.125, 1.0))
            monitor, reference = BurnRateMonitor(), _RescanMonitor()
            clock = rng.uniform(0.0, 100.0)
            for _ in range(250):
                draw = rng.random()
                if draw < 0.02:
                    clock += rng.uniform(SLOW_WINDOW, 3 * SLOW_WINDOW)
                elif draw > 0.1:                  # else: equal timestamp
                    clock += rng.expovariate(rate)
                t = clock if grid is None else round(clock / grid) * grid
                bad = rng.random() < error_rate
                status = (rng.choice(("failed", "rejected", "degraded"))
                          if bad else "ok")
                event = _event(t=t, status=status,
                               deadline_exceeded=bad and rng.random() < 0.5)
                alerts = monitor.observe(event)
                assert alerts == reference.observe(event), (seed, t)
                for alert in alerts:
                    raised[alert["severity"]] += 1
        assert raised["page"] > 1 and raised["ticket"] > 1

    def test_late_event_counts_at_newest_time(self):
        monitor = BurnRateMonitor()
        assert monitor.observe(_event(t=10.0)) == []
        # published late, and older than the fast window's start: it
        # still counts, as if it arrived at the newest time, t=10
        raised = monitor.observe(_event(t=1.0, status="failed"))
        assert [(a["severity"], a["t"]) for a in raised] \
            == [("page", 10.0), ("ticket", 10.0)]
        # 1 error in 3 events: still burning, nothing new raised
        assert monitor.observe(_event(t=10.0 + FAST_WINDOW - 0.5)) == []
        # the fast window drops both t=10 events together: page re-arms
        assert monitor.observe(_event(t=10.0 + FAST_WINDOW)) == []
        raised = monitor.observe(_event(t=10.0 + FAST_WINDOW,
                                        status="failed"))
        assert [a["severity"] for a in raised] == ["page"]

    def test_objective_validation(self):
        # burn rate divides by the budget: the objective must leave one
        assert 0.0 < SLO_OBJECTIVE < 1.0
        assert ERROR_BUDGET == pytest.approx(1.0 - SLO_OBJECTIVE)
        assert ERROR_BUDGET > 0.0
        assert FAST_WINDOW < SLOW_WINDOW


# -- facade ------------------------------------------------------------------

class TestLiveTelemetry:
    def test_snapshot_cadence_and_flush(self):
        telemetry = LiveTelemetry(snapshot_interval=1.0)
        for i in range(35):
            telemetry.record(_event(t=0.1 * i, trace_id=f"t{i}", rid=i))
        telemetry.flush()
        # events span [0, 3.4]s → boundaries at 1, 2, 3 + final partial
        assert len(telemetry.snapshots) == 4
        assert [s["t"] for s in telemetry.snapshots[:3]] == [1.0, 2.0, 3.0]

    def test_tail_samples_and_span_retention(self):
        telemetry = LiveTelemetry(seed=0, healthy_ratio=0.0)
        with SpanCollector() as collector:
            with span("serve:request"):
                pass
        telemetry.record(_event(t=0.5, status="failed", trace_id="bad"),
                         spans=collector.spans)
        telemetry.record(_event(t=0.6, trace_id="fine"))
        telemetry.flush()
        assert telemetry.sampled_trace_ids() == ["bad"]
        # a sample keeps the size of its span tree, not a copy of it
        assert [s["spans"] for s in telemetry.samples] == [1]

    def test_jsonl_lines_are_valid_and_typed(self, tmp_path):
        telemetry = LiveTelemetry(seed=0, healthy_ratio=1.0)
        for i in range(12):
            status = "failed" if i % 2 else "ok"
            telemetry.record(_event(t=0.2 * i, status=status,
                                    trace_id=f"t{i}", rid=i))
        telemetry.flush()
        path = tmp_path / "live.jsonl"
        telemetry.write_jsonl(str(path))
        kinds = {"snapshot": 0, "alert": 0, "sample": 0}
        for line in path.read_text().splitlines():
            kinds[json.loads(line)["type"]] += 1
        assert kinds["snapshot"] >= 1
        assert kinds["sample"] == 12      # ratio 1.0 keeps everything
        assert kinds["alert"] >= 1        # 50% failures burns the budget

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            LiveTelemetry(snapshot_interval=0.0)
