"""Thread-safe bounded request queue with admission control.

The service's front door.  :meth:`RequestQueue.offer` is the only way
in and **never blocks**: under pressure the queue sheds load instead
of wedging producers, returning a classified rejection reason
(``queue_full`` past the ``max_depth`` bound, ``stale_deadline`` for
requests whose SLO budget is already spent at admission, ``shutdown``
once the queue is closed).  Every rejection is counted per reason —
load is never dropped silently.  :func:`admission_reason` is the one
admission rule: the virtual-time planner
(:func:`~repro.serve.batcher.plan_batches`) applies it too.

Consumers use :meth:`take_batch`, which hands out the head request
by ``(priority, arrival, rid)`` — so urgent traffic overtakes bulk
traffic under backlog — together with every queued request sharing
its batch key, up to a size cap.  Requests stay queued (and count
against the depth bound) until a consumer takes them.  ``close()``
wakes every waiting consumer, which makes shutdown deadlock-free by
construction: producers get ``shutdown`` rejections, consumers drain
the remaining backlog and then observe the queue closed and empty.
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, List, Optional

from repro.serve.request import Request

REJECT_QUEUE_FULL = "queue_full"
REJECT_STALE_DEADLINE = "stale_deadline"
REJECT_SHUTDOWN = "shutdown"

#: every admission-control rejection class
REJECT_REASONS = (REJECT_QUEUE_FULL, REJECT_STALE_DEADLINE,
                  REJECT_SHUTDOWN)


def admission_reason(request: Request, depth: int,
                     max_depth: int) -> Optional[str]:
    """Why ``request`` is shed with ``depth`` requests queued, or ``None``.

    Staleness is the request's own fault, so it is classified first:
    a full queue does not mask an already-spent SLO budget.
    """
    if request.deadline is not None and request.deadline <= 0:
        return REJECT_STALE_DEADLINE
    if depth >= max_depth:
        return REJECT_QUEUE_FULL
    return None


class RequestQueue:
    """Bounded, priority-ordered, thread-safe request queue."""

    def __init__(self, max_depth: int = 256):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: List[tuple] = []
        self._closed = False
        self.accepted = 0
        self.rejected: Dict[str, int] = {}
        self.peak_depth = 0

    # -- producer side -------------------------------------------------------
    def offer(self, request: Request) -> Optional[str]:
        """Admit ``request`` or classify why not.

        Returns ``None`` on admission, else one of
        :data:`REJECT_REASONS`.  Never blocks.
        """
        with self._not_empty:
            reason = (REJECT_SHUTDOWN if self._closed else
                      admission_reason(request, len(self._heap),
                                       self.max_depth))
            if reason is not None:
                self.rejected[reason] = self.rejected.get(reason, 0) + 1
                return reason
            heapq.heappush(self._heap, (*request.order_key, request))
            self.accepted += 1
            if len(self._heap) > self.peak_depth:
                self.peak_depth = len(self._heap)
            self._not_empty.notify()
            return None

    # -- consumer side -------------------------------------------------------
    def take_batch(self, max_size: int,
                   timeout: Optional[float] = 0.05) -> List[Request]:
        """The head request plus its queued same-key followers.

        Atomically removes the head by ``(priority, arrival, rid)`` and,
        in that order, every other queued request with the head's batch
        key, up to ``max_size`` in all; requests of other keys keep
        their place.  Waits at most ``timeout`` seconds for a request
        (``None`` waits until one arrives or the queue closes) and
        returns ``[]`` on timeout or once the queue is closed and empty.
        """
        with self._not_empty:
            self._not_empty.wait_for(lambda: self._heap or self._closed,
                                     timeout)
            if not self._heap:
                return []
            entries = sorted(self._heap)
            key = entries[0][-1].key
            batch: List[Request] = []
            rest: List[tuple] = []
            for entry in entries:
                if entry[-1].key == key and len(batch) < max_size:
                    batch.append(entry[-1])
                else:
                    rest.append(entry)
            self._heap = rest   # a sorted list is a valid heap
            return batch

    def drain(self) -> List[Request]:
        """Remove and return the entire backlog in priority order."""
        with self._lock:
            out = [entry[-1] for entry in sorted(self._heap)]
            self._heap.clear()
            return out

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Stop admitting; wake every waiting consumer."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    def __len__(self) -> int:
        return self.depth

    def counts(self) -> Dict[str, object]:
        """Accounting snapshot: accepted / rejected-by-reason / peak."""
        with self._lock:
            return {"accepted": self.accepted,
                    "rejected": dict(self.rejected),
                    "peak_depth": self.peak_depth}
