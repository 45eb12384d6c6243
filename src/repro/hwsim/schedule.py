"""Event-driven schedule simulation over the operation graph.

Fig. 4's right-hand panels show *hardware utilization over time*: the
GPU saturates during the neural phase and starves during the symbolic
phase, whose dependency chains leave execution units idle.  This
module replays a trace's dependency DAG through a list scheduler with
bounded concurrency (the device's ability to co-run independent
kernels) and reports:

* the makespan (vs. the serial sum — the co-scheduling headroom that
  bounds Recommendation 5);
* a utilization timeline: how many execution slots are busy at each
  instant, sampled into windows (the Fig. 4 contrast).

The scheduler is a classic ready-list simulation: an event becomes
ready when all its producers have finished; up to ``max_concurrency``
ready events run simultaneously; each runs for its projected latency.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columns import seq_sum
from repro.core.profiler import Trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace


@dataclass
class ScheduledEvent:
    """Placement of one trace event on the simulated timeline."""

    eid: int
    phase: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ScheduleResult:
    """Outcome of simulating one trace."""

    events: List[ScheduledEvent]
    makespan: float
    serial_time: float
    max_concurrency: int

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 1.0

    def utilization_timeline(self, windows: int = 40
                             ) -> List[Tuple[float, float]]:
        """(window start time, mean busy slots / max slots) samples."""
        if not self.events or self.makespan <= 0:
            return []
        width = self.makespan / windows
        busy = [0.0] * windows
        for event in self.events:
            first = int(event.start / width)
            last = min(int(event.finish / width), windows - 1)
            for w in range(first, last + 1):
                lo = max(event.start, w * width)
                hi = min(event.finish, (w + 1) * width)
                if hi > lo:
                    busy[w] += (hi - lo)
        return [(w * width,
                 busy[w] / (width * self.max_concurrency))
                for w in range(windows)]


def simulate_schedule(trace: Trace, device: DeviceSpec,
                      max_concurrency: int = 4) -> ScheduleResult:
    """List-schedule the trace's DAG with bounded concurrency."""
    if max_concurrency < 1:
        raise ValueError("max_concurrency must be >= 1")
    projected = project_trace(trace, device)
    latency: Dict[int, float] = dict(zip(projected.columns.eid.tolist(),
                                         projected.total.tolist()))

    # dependency bookkeeping; also serialize by *program order* within
    # untracked side effects: an event with no parents still cannot
    # start before it was issued relative to prior same-phase barriers,
    # which the DAG captures via producer links only — pure data
    # parallelism is what we are bounding.
    indegree: Dict[int, int] = {}
    children: Dict[int, List[int]] = {}
    for event in trace:
        parents = [p for p in set(event.parents) if p in latency]
        indegree[event.eid] = len(parents)
        for parent in parents:
            children.setdefault(parent, []).append(event.eid)
    phase_of = {e.eid: e.phase for e in trace}

    ready: List[int] = [eid for eid, deg in indegree.items()
                        if deg == 0]
    ready.sort()  # program order among equally-ready events
    running: List[Tuple[float, int]] = []   # (finish time, eid) heap
    scheduled: List[ScheduledEvent] = []
    clock = 0.0
    in_flight = 0
    cursor = 0  # index into ready (treated as a FIFO with appends)

    while cursor < len(ready) or running:
        while cursor < len(ready) and in_flight < max_concurrency:
            eid = ready[cursor]
            cursor += 1
            start = clock
            finish = start + latency.get(eid, 0.0)
            heapq.heappush(running, (finish, eid))
            scheduled.append(ScheduledEvent(
                eid=eid, phase=phase_of.get(eid, ""), start=start,
                finish=finish))
            in_flight += 1
        if not running:
            break
        finish, eid = heapq.heappop(running)
        clock = finish
        in_flight -= 1
        for child in children.get(eid, ()):  # release dependents
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)

    makespan = max((e.finish for e in scheduled), default=0.0)
    return ScheduleResult(
        events=scheduled,
        makespan=makespan,
        serial_time=seq_sum(np.fromiter(latency.values(), np.float64,
                                        len(latency))),
        max_concurrency=max_concurrency,
    )
