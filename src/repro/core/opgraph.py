"""Operation-graph analysis (Fig. 4 and Takeaway 5).

Every trace carries producer links (each event knows which events
produced its inputs), so the operation-dependency DAG needs no workload
cooperation and no graph library: the trace *is* the graph.  This
module derives the paper's Fig. 4 observations in one sweep over it:

* whether the symbolic phase *depends on* neural results (pipelined
  Neuro|Symbolic systems: NVSA/VSAIT/PrAE) or the symbolic knowledge is
  *compiled into* the neural structure (LNN/LTN/NLM/ZeroC);
* the latency-weighted critical path through the DAG and which phase
  dominates it;
* a serialization measure — critical-path time over total time — low
  parallelism being the paper's "complex control results in
  inefficiency" point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.columns import seq_sum
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.hwsim.latency import ProjectedTrace


@dataclass
class OpGraphReport:
    """Fig. 4 summary for one workload."""

    workload: str
    num_nodes: int
    num_edges: int
    cross_phase_edges: int
    symbolic_depends_on_neural: bool
    neural_depends_on_symbolic: bool
    critical_path_time: float
    critical_path_length: int
    critical_path_phase_times: Dict[str, float]
    total_time: float
    max_width: int

    @property
    def serialization(self) -> float:
        """Critical-path time / total time (1.0 = fully serial)."""
        if self.total_time <= 0:
            return 0.0
        return self.critical_path_time / self.total_time

    @property
    def symbolic_on_critical_path(self) -> float:
        total = seq_sum(np.fromiter(
            self.critical_path_phase_times.values(), np.float64))
        if total <= 0:
            return 0.0
        return self.critical_path_phase_times.get(PHASE_SYMBOLIC,
                                                  0.0) / total


def analyze_graph(projected: ProjectedTrace) -> OpGraphReport:
    """Sweep the trace's parent links once, in trace order, weighting
    each event with its projected latency.

    An event's distinct parents are its in-edges.  Its longest
    latency-weighted path extends its heaviest parent's (a tie goes to
    the larger eid), and its generation, the longest chain of parents,
    sets the widths.  The critical path ends at the first heaviest
    event in trace order.  A parent absent from the trace (in a
    trace of one phase's events) is skipped, and a repeated eid
    names its last event; a parent at or after its child raises
    ``ValueError`` (:func:`~repro.core.validate.validate_trace` calls
    it non-causal).  The edges are found with numpy over the columns'
    integer parent positions; only the longest-path recurrence runs
    per event.
    """
    cols = projected.columns
    n = cols.n
    at = cols.positions(cols.parents, last=True)
    owner = cols.parent_owner
    link = (at >= 0).nonzero()[0]
    if link.size:
        # each event's present parents, first occurrence of each
        _, first = np.unique(owner[link] * n + at[link], return_index=True)
        if first.size < link.size:
            link = link[np.sort(first)]
    at, owner = at[link], owner[link]
    late = (at >= owner).nonzero()[0]
    if late.size:
        event = projected.trace[owner[late[0]]]
        raise ValueError(
            f"event {event.eid} ({event.name}) has parent "
            f"{cols.parents[link[late[0]]]} at or after it in the trace")

    phase = cols.phase
    crossing = phase[at] != phase[owner]
    neural = cols.phases.index(PHASE_NEURAL) \
        if PHASE_NEURAL in cols.phases else -1
    symbolic = cols.phases.index(PHASE_SYMBOLIC) \
        if PHASE_SYMBOLIC in cols.phases else -1

    def depends(child: int, parent: int) -> bool:
        return bool(((phase[owner] == child) & (phase[at] == parent)).any())

    # the longest-path recurrence, in trace order: event owners[m] has
    # the links lo[m]..hi[m], its first parent firsts[m] and the rest
    # in rests[m] (None for a single parent)
    lo = np.concatenate(([0], (owner[1:] != owner[:-1]).nonzero()[0] + 1)) \
        if owner.size else owner
    hi = np.append(lo[1:], owner.size)
    parents = at.tolist()
    rests: List[Optional[List[int]]] = [None] * lo.size
    multi = (hi - lo > 1).nonzero()[0]
    for m, a, b in zip(multi.tolist(), lo[multi].tolist(),
                       hi[multi].tolist()):
        rests[m] = parents[a + 1:b]
    total = projected.total.tolist()
    eid = cols.eid.tolist()
    # an event without parents starts a path: 0.0 + its own time
    best_time: List[float] = (projected.total + 0.0).tolist()
    best_pred: List[Optional[int]] = [None] * n
    generation = [0] * n
    for i, j, rest in zip(owner[lo].tolist(), at[lo].tolist(), rests):
        if rest is None:
            best_time[i] = best_time[j] + total[i]
            best_pred[i] = j
            generation[i] = generation[j] + 1
            continue
        time, gen = best_time[j], generation[j]
        for k in rest:
            # the heaviest parent; a tie goes to the larger eid
            if best_time[k] > time \
                    or (best_time[k] == time and eid[k] > eid[j]):
                j, time = k, best_time[k]
            if generation[k] > gen:
                gen = generation[k]
        best_time[i] = time + total[i]
        best_pred[i] = j
        generation[i] = gen + 1

    path: List[int] = []
    cp_time = 0.0
    if n:
        cursor: Optional[int] = max(range(n), key=best_time.__getitem__)
        cp_time = best_time[cursor]
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()

    labels = [cols.phases[code] for code in phase[path].tolist()]
    cp_phase_times: Dict[str, float] = {}
    for label, k in zip(labels, path):
        cp_phase_times[label] = cp_phase_times.get(label, 0.0) + total[k]

    return OpGraphReport(
        workload=projected.trace.workload,
        num_nodes=n,
        num_edges=len(parents),
        cross_phase_edges=int(crossing.sum()),
        symbolic_depends_on_neural=depends(symbolic, neural),
        neural_depends_on_symbolic=depends(neural, symbolic),
        critical_path_time=cp_time,
        critical_path_length=len(path),
        critical_path_phase_times=cp_phase_times,
        total_time=projected.total_time,
        max_width=int(np.bincount(generation).max()) if n else 0,
    )
