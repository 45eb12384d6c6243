"""Chaos fuzzing of the serving layer: seeded fault/rejection schedules.

The tensor-level oracle checks that counters stay truthful; chaos mode
checks that the *service* stays classified.  A seeded
:class:`ChaosConfig` expands into a request schedule with boundary
deadlines and priorities plus per-workload :class:`FaultPlan`\\ s
drawn from every fault kind, then drives it through
:class:`~repro.serve.server.InferenceServer` twice (deterministic
schedule mode) and once through the live start/submit/stop pipeline.

The invariant under test is total classification: **every** submitted
request must reach exactly one terminal state from
:data:`~repro.serve.request.REQUEST_STATUSES`, rejections must carry a
reason from :data:`~repro.serve.queue.REJECT_REASONS`, failures must
carry an error type, and the deterministic digest of the outcome must
be identical across two runs of the same seed.  Anything else — an
unresolved future, an unclassified status, a run-to-run wobble in the
deterministic section — is a divergence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.faults import (FAULT_ALLOC, FAULT_INF, FAULT_LATENCY,
                                     FAULT_NAN, FAULT_RAISE, FaultPlan,
                                     FaultSpec)
from repro.serve import (BatchPolicy, InferenceServer, REJECT_REASONS,
                         REQUEST_STATUSES, Request, Response,
                         STATUS_REJECTED, ServeConfig, make_request)
from repro.serve.tracing import (request_span_trees, span_tree_digest,
                                 verify_span_trees)

#: cheap parameterizations so a chaos run costs milliseconds per request
_CHAOS_WORKLOADS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("lnn", {"num_departments": 1, "professors_per_dept": 2}),
    ("nvsa", {"matrix_size": 2, "dim": 64}),
)

#: deadline menu: None, already-expired, hair-trigger, generous
_DEADLINES: Tuple[Optional[float], ...] = (None, 0.0, 1e-6, 10.0)

_FAULT_MENU = (FAULT_NAN, FAULT_INF, FAULT_RAISE, FAULT_LATENCY,
               FAULT_ALLOC)


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded chaos scenario."""

    seed: int = 0
    requests: int = 10
    workers: int = 2
    max_depth: int = 4          # small queue: forces queue_full shedding
    max_retries: int = 1
    timeout: Optional[float] = None


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario (both runs + live smoke)."""

    config: ChaosConfig
    issues: List[str] = field(default_factory=list)
    digest: str = ""
    status_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues


def build_chaos_schedule(config: ChaosConfig
                         ) -> Tuple[List[Request], Dict[str, FaultPlan]]:
    """Seeded requests + fault plans; same config -> same schedule."""
    rng = np.random.default_rng(config.seed)
    schedule: List[Request] = []
    arrival = 0.0
    for rid in range(config.requests):
        name, params = _CHAOS_WORKLOADS[
            int(rng.integers(len(_CHAOS_WORKLOADS)))]
        deadline = _DEADLINES[int(rng.integers(len(_DEADLINES)))]
        schedule.append(make_request(
            rid, name, arrival=arrival, seed=int(rng.integers(3)),
            params=dict(params), priority=int(rng.integers(3)),
            deadline=deadline))
        arrival += float(rng.random()) * 0.02
    plans: Dict[str, FaultPlan] = {}
    for name, _ in _CHAOS_WORKLOADS:
        if rng.random() < 0.25:
            continue            # some workloads stay healthy
        specs: List[FaultSpec] = []
        for _ in range(int(rng.integers(1, 3))):
            kind = _FAULT_MENU[int(rng.integers(len(_FAULT_MENU)))]
            specs.append(FaultSpec(
                kind=kind, rate=float(rng.choice((0.1, 0.5, 1.0))),
                latency=0.002, blocking=False,
                transient=bool(rng.random() < 0.5),
                max_injections=2))
        plans[name] = FaultPlan(specs, seed=config.seed)
    return schedule, plans


def _server(config: ChaosConfig,
            plans: Dict[str, FaultPlan]) -> InferenceServer:
    serve_config = ServeConfig(
        workers=config.workers,
        max_depth=config.max_depth,
        batch=BatchPolicy(max_batch_size=4, max_wait=0.005),
        timeout=config.timeout,
        max_retries=config.max_retries)
    return InferenceServer(serve_config, fault_plans=plans)


def check_serve_invariants(schedule: Sequence[Request],
                           responses: Sequence[Response]) -> List[str]:
    """Every-request-classified invariants; returns violations."""
    issues: List[str] = []
    want = {request.rid for request in schedule}
    got = [response.rid for response in responses]
    if sorted(got) != sorted(want):
        issues.append(
            f"response rids are not a bijection with the schedule: "
            f"{len(got)} responses for {len(want)} requests")
    if len(set(got)) != len(got):
        issues.append("duplicate rids in responses")
    for response in responses:
        tag = f"rid {response.rid} ({response.workload})"
        if response.status not in REQUEST_STATUSES:
            issues.append(f"{tag}: unclassified status "
                          f"{response.status!r}")
        if response.status == STATUS_REJECTED:
            if response.reject_reason not in REJECT_REASONS:
                issues.append(f"{tag}: rejected with unclassified "
                              f"reason {response.reject_reason!r}")
        else:
            # a circuit-breaker shed fails before the first attempt —
            # classified, and legitimately attempts=0
            shed = (response.status == "failed"
                    and response.error_type == "CircuitOpenError")
            if response.attempts < 1 and not shed:
                issues.append(f"{tag}: executed with attempts="
                              f"{response.attempts}")
        if response.status == "failed" and not response.error_type:
            issues.append(f"{tag}: failed without an error_type")
        if response.status == "ok" and response.deadline_exceeded:
            issues.append(f"{tag}: deadline exceeded but status ok")
        if response.queue_wait < 0 or response.modeled_latency < 0:
            issues.append(f"{tag}: negative timing "
                          f"(wait={response.queue_wait}, "
                          f"service={response.modeled_latency})")
    return issues


def deterministic_digest(responses: Sequence[Response]) -> str:
    """SHA-256 over the deterministic projection of every response."""
    digest = hashlib.sha256()
    for response in sorted(responses, key=lambda r: r.rid):
        record = {
            "rid": response.rid,
            "workload": response.workload,
            "status": response.status,
            "reject_reason": response.reject_reason,
            "bid": response.bid,
            "batch_size": response.batch_size,
            "worker": response.worker,
            "device": response.device,
            "attempts": response.attempts,
            "error_type": response.error_type,
            "deadline_exceeded": response.deadline_exceeded,
            "queue_wait": round(response.queue_wait, 9),
            "modeled_latency": round(response.modeled_latency, 9),
        }
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check_trace_invariants(responses: Sequence[Response]) -> List[str]:
    """Trace-tree invariants: every response reconstructs causally.

    Each non-rejected request must yield a rooted, gap-free span tree
    (admit → queue_wait/assemble → dispatch → execute tiling the
    ``serve:request`` root) and each rejected request a
    ``serve:admit`` span carrying its classified rejection reason —
    all checked by :func:`repro.serve.tracing.verify_span_trees` on
    the synthesized trees.
    """
    return [f"trace: {problem}"
            for problem in verify_span_trees(request_span_trees(responses),
                                             responses)]


def run_chaos_schedule(config: ChaosConfig) -> ChaosReport:
    """Deterministic-mode chaos: run the schedule twice, cross-check."""
    report = ChaosReport(config=config)
    schedule, plans = build_chaos_schedule(config)
    first = _server(config, plans).run_schedule(schedule)
    schedule_two, plans_two = build_chaos_schedule(config)
    second = _server(config, plans_two).run_schedule(schedule_two)

    report.issues.extend(check_serve_invariants(schedule, first.responses))
    # trace-tree invariants run on BOTH runs: the tree itself must be
    # well-formed and bit-identical across identical seeded runs
    report.issues.extend(check_trace_invariants(first.responses))
    report.issues.extend(
        f"[run2] {issue}"
        for issue in check_trace_invariants(second.responses))
    tree_one = span_tree_digest(request_span_trees(first.responses))
    tree_two = span_tree_digest(request_span_trees(second.responses))
    if tree_one != tree_two:
        report.issues.append(
            f"trace-tree digest differs across identical seeded runs "
            f"({tree_one[:12]} vs {tree_two[:12]})")
    digest_one = deterministic_digest(first.responses)
    digest_two = deterministic_digest(second.responses)
    report.digest = digest_one
    if digest_one != digest_two:
        report.issues.append(
            f"deterministic serve digest differs across identical "
            f"seeded runs ({digest_one[:12]} vs {digest_two[:12]})")
    for response in first.responses:
        report.status_counts[response.status] = (
            report.status_counts.get(response.status, 0) + 1)
    return report


def run_live_chaos(config: ChaosConfig,
                   drain: bool = False) -> List[str]:
    """Live-mode chaos smoke: start/submit/stop under fault plans.

    Submits a burst (stale deadlines included), stops the server, and
    asserts every pending future resolved to a classified terminal
    state — the guarantee :meth:`InferenceServer.stop` provides even
    for requests still queued at shutdown (served with ``drain``,
    shed as ``shutdown`` rejections without it).
    """
    rng = np.random.default_rng(config.seed + 7)
    _, plans = build_chaos_schedule(config)
    server = _server(config, plans)
    server.start()
    pendings = []
    try:
        for _ in range(config.requests):
            name, params = _CHAOS_WORKLOADS[
                int(rng.integers(len(_CHAOS_WORKLOADS)))]
            deadline = _DEADLINES[int(rng.integers(len(_DEADLINES)))]
            pendings.append(server.submit(
                name, seed=int(rng.integers(3)), params=dict(params),
                priority=int(rng.integers(3)), deadline=deadline))
    finally:
        server.stop(drain=drain)

    issues: List[str] = []
    for pending in pendings:
        rid = pending.request.rid
        if not pending.done():
            issues.append(f"live rid {rid}: future never resolved "
                          f"after stop(drain={drain})")
            continue
        response = pending.result(timeout=0.0)
        if response.status not in REQUEST_STATUSES:
            issues.append(f"live rid {rid}: unclassified status "
                          f"{response.status!r}")
        if (response.status == STATUS_REJECTED
                and response.reject_reason not in REJECT_REASONS):
            issues.append(f"live rid {rid}: unclassified rejection "
                          f"{response.reject_reason!r}")
    return issues


def fuzz_chaos(seed: int, count: int,
               live_every: int = 3) -> List[ChaosReport]:
    """Run ``count`` chaos scenarios; every ``live_every``-th also
    exercises the live pipeline."""
    reports: List[ChaosReport] = []
    for index in range(count):
        config = ChaosConfig(seed=seed + index,
                             requests=8 + (index % 5),
                             timeout=None if index % 2 else 2.0)
        report = run_chaos_schedule(config)
        if live_every and index % live_every == 0:
            report.issues.extend(
                f"[live] {issue}"
                for issue in run_live_chaos(config, drain=bool(index % 2)))
        reports.append(report)
    return reports
