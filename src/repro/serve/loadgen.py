"""Deterministic load generation and schedule (de)serialization.

Open-loop load (:func:`open_loop`) is a seeded Poisson arrival
process over a workload mix: the same ``LoadSpec`` always produces
the identical timestamped :class:`~repro.serve.request.Request`
schedule (stdlib :class:`random.Random` only — the repo-wide
determinism rules forbid ambient entropy on this path).  That
schedule drives the server's deterministic virtual-time mode and can
be saved/loaded as JSONL for ``repro serve replay``.

Closed-loop load (:func:`run_closed_loop`) instead runs live client
threads against a started server, each issuing its next request only
after the previous response lands.  Being wall-clock driven it is
*not* deterministic; it exists to exercise the real concurrent stack
(queue backpressure, live batching, worker threads) end to end.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Tuple

from repro.serve.request import Request, make_request

SCHEDULE_KIND = "repro.serve.schedule"
SCHEDULE_VERSION = 1


def parse_mix(text: str) -> Dict[str, float]:
    """``"nvsa=3,lnn=1"`` -> ``{"nvsa": 3.0, "lnn": 1.0}``.

    Bare names get weight 1 (``"nvsa,lnn"`` is a uniform mix).
    """
    mix: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, raw = part.split("=", 1)
            weight = float(raw)
        else:
            name, weight = part, 1.0
        if weight <= 0:
            raise ValueError(f"mix weight for {name!r} must be > 0")
        mix[name.strip()] = mix.get(name.strip(), 0.0) + weight
    if not mix:
        raise ValueError(f"empty workload mix: {text!r}")
    return mix


@dataclass(frozen=True)
class LoadSpec:
    """Everything that determines an open-loop arrival schedule."""

    mix: Tuple[Tuple[str, float], ...]
    rate: float = 100.0        #: mean arrivals per second (Poisson)
    duration: float = 10.0     #: schedule horizon, virtual seconds
    seed: int = 0              #: arrival-process seed
    deadline: Optional[float] = None  #: per-request SLO budget
    seed_pool: int = 1         #: workload seeds 0..seed_pool-1 (batch keys)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.seed_pool < 1:
            raise ValueError("seed_pool must be >= 1")

    @classmethod
    def make(cls, mix: Dict[str, float], **kw: object) -> "LoadSpec":
        return cls(mix=tuple(sorted(mix.items())), **kw)  # type: ignore[arg-type]


def open_loop(spec: LoadSpec) -> List[Request]:
    """The deterministic Poisson schedule for ``spec``.

    Exponential inter-arrivals at ``spec.rate``; each arrival draws a
    workload from the mix and a seed from the seed pool.  Same spec →
    same schedule, always.
    """
    rng = random.Random(spec.seed)
    names = [name for name, _ in spec.mix]
    weights = [weight for _, weight in spec.mix]
    schedule: List[Request] = []
    clock = 0.0
    rid = 0
    while True:
        clock += rng.expovariate(spec.rate)
        if clock >= spec.duration:
            break
        workload = rng.choices(names, weights=weights, k=1)[0]
        seed = rng.randrange(spec.seed_pool)
        schedule.append(make_request(
            rid, workload, arrival=clock, seed=seed,
            deadline=spec.deadline))
        rid += 1
    return schedule


# -- schedule persistence ----------------------------------------------------
def save_schedule(schedule: Iterable[Request], fh: IO[str],
                  meta: Optional[Dict[str, object]] = None) -> int:
    """Write a schedule as JSONL (one meta line, then one request/line)."""
    header: Dict[str, object] = {"type": SCHEDULE_KIND,
                                 "version": SCHEDULE_VERSION}
    if meta:
        header["meta"] = meta
    fh.write(json.dumps(header) + "\n")
    count = 0
    for request in schedule:
        fh.write(json.dumps(request.to_dict()) + "\n")
        count += 1
    return count


def load_schedule(fh: IO[str]) -> List[Request]:
    """Inverse of :func:`save_schedule` (header is validated)."""
    first = fh.readline()
    if not first.strip():
        return []
    header = json.loads(first)
    if header.get("type") != SCHEDULE_KIND:
        raise ValueError("not a repro.serve schedule file")
    schedule = []
    for line in fh:
        if line.strip():
            schedule.append(Request.from_dict(json.loads(line)))
    return schedule


# -- closed loop -------------------------------------------------------------
@dataclass
class ClosedLoopReport:
    """What a closed-loop client swarm observed (wall clock, not det.)."""

    issued: int = 0
    completed: int = 0
    rejected: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)


def run_closed_loop(server: "object", spec: LoadSpec,
                    clients: int = 4,
                    requests_per_client: int = 8) -> ClosedLoopReport:
    """Drive a *started* live server with synchronous client threads.

    Each client issues its next request only after the previous
    response resolves (closed loop).  Wall-clock driven and therefore
    non-deterministic — use :func:`open_loop` + the server's
    deterministic schedule mode for reproducible figures.  An
    exception in a client thread is re-raised here after the join.
    """
    report = ClosedLoopReport()
    lock = threading.Lock()
    errors: List[Exception] = []
    names = [name for name, _ in spec.mix]
    weights = [weight for _, weight in spec.mix]

    def client(cid: int) -> None:
        rng = random.Random(f"{spec.seed}:{cid}")
        try:
            for _ in range(requests_per_client):
                workload = rng.choices(names, weights=weights, k=1)[0]
                seed = rng.randrange(spec.seed_pool)
                pending = server.submit(workload, seed=seed,
                                        deadline=spec.deadline)
                with lock:
                    report.issued += 1
                response = pending.result()
                with lock:
                    report.completed += 1
                    report.statuses[response.status] = \
                        report.statuses.get(response.status, 0) + 1
                    if response.reject_reason is not None:
                        report.rejected += 1
        except Exception as exc:   # re-raised below, after the join
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(cid,),
                                name=f"serve-client-{cid}", daemon=True)
               for cid in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return report
