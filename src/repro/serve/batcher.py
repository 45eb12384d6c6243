"""Dynamic batching: coalesce compatible requests, execute once.

The core serving optimization this repo's own characterization
motivates: symbolic setup (codebooks, knowledge bases, datasets) and
whole-pipeline execution dominate per-request cost, so requests with
an identical batch key (workload + config + seed) are coalesced and
the pipeline executes **once per batch**, amortizing both setup (via
:mod:`repro.serve.cache`) and inference across every rider.

This module holds the policy and the **virtual-time** planner,
:func:`plan_batches`: a deterministic simulation over a timestamped
arrival schedule in which a batch closes when it reaches
``max_batch_size`` or ``max_wait`` seconds after it opened — the
classic latency/throughput dial.  Admission
(:func:`~repro.serve.queue.admission_reason`, the live queue's rule:
stale deadlines, then the ``max_depth`` bound) and batch composition
depend only on the schedule, never on thread scheduling, so a seeded
benchmark produces bit-identical batch plans across runs (the
property ``repro serve bench`` asserts).

The live server does not hold batches open: an idle worker takes the
head request and its queued same-key followers straight from the
:class:`~repro.serve.queue.RequestQueue`
(:meth:`~repro.serve.queue.RequestQueue.take_batch`), so batches
coalesce exactly while every worker is busy, and only
``max_batch_size`` applies.  The planner keeps the timer because
virtual time has no signal for when a worker is free before the
batches execute.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.queue import admission_reason
from repro.serve.request import BatchKey, Request


@dataclass(frozen=True)
class BatchPolicy:
    """When an open batch must close."""

    max_batch_size: int = 16
    max_wait: float = 0.05   # seconds a planned batch may linger open

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")


@dataclass
class Batch:
    """A closed group of key-compatible requests, executed once."""

    bid: int
    key: BatchKey
    requests: List[Request] = field(default_factory=list)
    open_time: float = 0.0
    close_time: float = 0.0

    @property
    def workload(self) -> str:
        return self.key[0]

    @property
    def seed(self) -> int:
        return self.key[1]

    @property
    def params(self) -> Dict[str, object]:
        return dict(self.key[2])

    @property
    def size(self) -> int:
        return len(self.requests)

    def queue_wait(self, request: Request) -> float:
        """Time ``request`` spent queued before this batch closed."""
        return max(0.0, self.close_time - request.arrival)


class _OpenGroup:
    """One still-open batch-in-formation (planner internal)."""

    __slots__ = ("gid", "open_time", "close_at", "requests")

    def __init__(self, gid: int, open_time: float, close_at: float):
        self.gid = gid
        self.open_time = open_time
        self.close_at = close_at
        self.requests: List[Request] = []


def plan_batches(
    schedule: Sequence[Request],
    policy: Optional[BatchPolicy] = None,
    max_depth: int = 256,
) -> Tuple[List[Batch], List[Tuple[Request, str]]]:
    """Deterministically batch a timestamped arrival schedule.

    Simulates the queue/batcher in virtual time: requests are
    processed in ``(arrival, rid)`` order; a request joins the open
    group for its key (opening one if needed, planned to close
    ``max_wait`` after it opened) and a group closes early the moment
    it fills.  Queue depth is tracked — requests occupy the queue
    from arrival until their batch closes — and each arrival passes
    the live queue's admission rule against it, so stale deadlines
    and arrivals beyond ``max_depth`` are shed with the same
    classified reasons :class:`~repro.serve.queue.RequestQueue` gives.

    Returns ``(batches, rejections)``; batches carry close-order bids.
    The output depends only on the schedule and policies, making batch
    composition reproducible for seeded load (the ``repro serve
    bench`` determinism guarantee).
    """
    policy = policy or BatchPolicy()
    arrivals = sorted(schedule, key=lambda r: (r.arrival, r.rid))
    open_groups: Dict[BatchKey, _OpenGroup] = {}
    close_heap: List[Tuple[float, int, BatchKey]] = []
    batches: List[Batch] = []
    rejections: List[Tuple[Request, str]] = []
    depth = 0
    next_gid = 0

    def close_group(key: BatchKey, at: float) -> None:
        nonlocal depth
        group = open_groups.pop(key)
        depth -= len(group.requests)
        batches.append(Batch(bid=len(batches), key=key,
                             requests=group.requests,
                             open_time=group.open_time, close_time=at))

    def fire_due_closes(until: float) -> None:
        while close_heap and close_heap[0][0] <= until:
            at, gid, key = heapq.heappop(close_heap)
            group = open_groups.get(key)
            if group is not None and group.gid == gid:
                close_group(key, at)

    for request in arrivals:
        fire_due_closes(request.arrival)
        reason = admission_reason(request, depth, max_depth)
        if reason is not None:
            rejections.append((request, reason))
            continue
        depth += 1
        group = open_groups.get(request.key)
        if group is None:
            group = _OpenGroup(next_gid, request.arrival,
                               request.arrival + policy.max_wait)
            next_gid += 1
            open_groups[request.key] = group
            heapq.heappush(close_heap,
                           (group.close_at, group.gid, request.key))
        group.requests.append(request)
        if len(group.requests) >= policy.max_batch_size:
            close_group(request.key, request.arrival)

    fire_due_closes(float("inf"))
    assert not open_groups and depth == 0
    return batches, rejections
