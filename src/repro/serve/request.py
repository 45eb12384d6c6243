"""Request/response model of the serving layer.

A :class:`Request` is one inference demand against a registered
workload: *which* model (``workload``), *which* configuration
(``params`` + ``seed``, together the **batch key** — only requests
with identical keys may share a batched execution), *when* it arrived
(``arrival``, seconds on the service clock), and *how urgent* it is
(``priority``, lower is more urgent; ``deadline``, a relative SLO
budget in seconds).

A :class:`Response` records the request's full fate: admission,
batching (batch id + size), queue wait, the executing worker and its
bound device, the **modeled** per-device latency from
:mod:`repro.hwsim` alongside the **measured** batch wall time, and a
terminal status.  Statuses extend the resilience vocabulary: ``ok`` /
``degraded`` / ``failed`` come from
:class:`~repro.resilience.runner.ResilientRunner` outcomes (a
deadline miss also demotes ``ok`` to ``degraded``), and ``rejected``
marks requests shed at admission with a classified reason.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.resilience.runner import (STATUS_DEGRADED, STATUS_FAILED,
                                     STATUS_OK)

STATUS_REJECTED = "rejected"

#: every terminal state a request can reach, in severity order
REQUEST_STATUSES = (STATUS_OK, STATUS_DEGRADED, STATUS_FAILED,
                    STATUS_REJECTED)

#: ``(workload, seed, params)`` — requests batch together iff equal
BatchKey = Tuple[str, int, Tuple[Tuple[str, object], ...]]


def freeze_params(params: Optional[Dict[str, object]]) -> Tuple[Tuple[str, object], ...]:
    """Canonical (sorted, hashable) form of a request's param dict."""
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class Request:
    """One inference demand against the workload roster."""

    rid: int
    workload: str
    arrival: float = 0.0
    seed: int = 0
    params: Tuple[Tuple[str, object], ...] = ()
    priority: int = 1
    deadline: Optional[float] = None  # relative SLO budget, seconds

    @property
    def trace_id(self) -> str:
        """The id of the causal trace this request starts.

        A pure function of ``(rid, workload, seed)`` (a 16-hex-digit
        blake2s digest), so a replayed schedule, or a shard handed the
        request's plain fields, recomputes the same id.
        """
        return hashlib.blake2s(
            f"req:{self.rid}:{self.workload}:{self.seed}".encode(),
            digest_size=8).hexdigest()

    @property
    def key(self) -> BatchKey:
        """Batching compatibility key: same key -> same batch allowed."""
        return (self.workload, self.seed, self.params)

    @property
    def order_key(self) -> Tuple[int, float, int]:
        """Queue ordering: priority first, then arrival, then id."""
        return (self.priority, self.arrival, self.rid)

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rid": self.rid, "workload": self.workload,
            "arrival": self.arrival, "seed": self.seed,
            "priority": self.priority,
        }
        if self.params:
            out["params"] = dict(self.params)
        if self.deadline is not None:
            out["deadline"] = self.deadline
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "Request":
        return cls(
            rid=int(raw["rid"]),  # type: ignore[arg-type]
            workload=str(raw["workload"]),
            arrival=float(raw.get("arrival", 0.0)),  # type: ignore[arg-type]
            seed=int(raw.get("seed", 0)),  # type: ignore[arg-type]
            params=freeze_params(raw.get("params")),  # type: ignore[arg-type]
            priority=int(raw.get("priority", 1)),  # type: ignore[arg-type]
            deadline=(None if raw.get("deadline") is None
                      else float(raw["deadline"])),  # type: ignore[arg-type]
        )


def make_request(rid: int, workload: str, *, arrival: float = 0.0,
                 seed: int = 0,
                 params: Optional[Dict[str, object]] = None,
                 priority: int = 1,
                 deadline: Optional[float] = None) -> Request:
    """Convenience constructor taking a plain param dict."""
    return Request(rid=rid, workload=workload, arrival=arrival, seed=seed,
                   params=freeze_params(params), priority=priority,
                   deadline=deadline)


@dataclass
class Response:
    """Terminal record of one request's trip through the service."""

    rid: int
    workload: str
    status: str
    reject_reason: Optional[str] = None
    bid: Optional[int] = None          # batch id (None if never batched)
    batch_size: int = 0
    worker: Optional[str] = None
    device: Optional[str] = None
    arrival: float = 0.0
    queue_wait: float = 0.0            # arrival -> batch close
    service_start: float = 0.0
    modeled_latency: float = 0.0       # hwsim projection on the device
    completion: float = 0.0            # service-clock completion
    deadline: Optional[float] = None
    deadline_exceeded: bool = False
    measured_wall: float = 0.0         # measured batch execution wall
    attempts: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    trace_id: Optional[str] = None     # causal trace this request yields
    assemble_wait: float = 0.0         # batch open -> batch close
    dispatch_wait: float = 0.0         # batch close -> service start

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def latency(self) -> float:
        """End-to-end service-clock latency (0 for rejected requests)."""
        if self.status == STATUS_REJECTED:
            return 0.0
        return max(0.0, self.completion - self.arrival)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rid": self.rid, "workload": self.workload,
            "status": self.status,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.reject_reason is not None:
            out["reject_reason"] = self.reject_reason
            return out
        out.update({
            "bid": self.bid, "batch_size": self.batch_size,
            "worker": self.worker, "device": self.device,
            "arrival": self.arrival, "queue_wait": self.queue_wait,
            "service_start": self.service_start,
            "modeled_latency": self.modeled_latency,
            "completion": self.completion,
            "deadline_exceeded": self.deadline_exceeded,
            "measured_wall": self.measured_wall,
            "attempts": self.attempts,
            "assemble_wait": self.assemble_wait,
            "dispatch_wait": self.dispatch_wait,
        })
        if self.deadline is not None:
            out["deadline"] = self.deadline
        if self.error is not None:
            out["error"] = self.error
            out["error_type"] = self.error_type
        return out


def rejection(request: Request, reason: str) -> Response:
    """The :class:`Response` for a request shed at admission."""
    return Response(rid=request.rid, workload=request.workload,
                    status=STATUS_REJECTED, reject_reason=reason,
                    arrival=request.arrival, deadline=request.deadline,
                    trace_id=request.trace_id)
