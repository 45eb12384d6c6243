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

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
        total = sum(self.critical_path_phase_times.values())
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
    event in trace order.  A parent absent from the trace (a
    :meth:`Trace.by_phase` sub-trace) is skipped; a parent at or after
    its child raises ``ValueError``
    (:func:`~repro.core.validate.validate_trace` calls it non-causal).
    """
    costs = projected.costs
    position = {cost.event.eid: i for i, cost in enumerate(costs)}
    best_time: List[float] = []
    best_pred: List[Optional[int]] = []
    generation: List[int] = []
    crossings: Set[Tuple[str, str]] = set()
    edges = cross = 0
    for i, cost in enumerate(costs):
        event = cost.event
        incoming: List[Tuple[float, int, int]] = []
        gen = 0
        for parent in dict.fromkeys(event.parents):
            j = position.get(parent)
            if j is None:
                continue
            if j >= i:
                raise ValueError(
                    f"event {event.eid} ({event.name}) has parent {parent} "
                    f"at or after it in the trace")
            edges += 1
            pair = (costs[j].event.phase, event.phase)
            if pair[0] != pair[1]:
                cross += 1
                crossings.add(pair)
            incoming.append((best_time[j], parent, j))
            gen = max(gen, generation[j] + 1)
        base, _, pred = max(incoming, default=(0.0, None, None))
        best_time.append(base + cost.total)
        best_pred.append(pred)
        generation.append(gen)

    path: List[int] = []
    cp_time = 0.0
    if costs:
        cursor: Optional[int] = max(range(len(costs)),
                                    key=best_time.__getitem__)
        cp_time = best_time[cursor]
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()

    cp_phase_times: Dict[str, float] = {}
    for k in path:
        phase = costs[k].event.phase
        cp_phase_times[phase] = cp_phase_times.get(phase, 0.0) \
            + costs[k].total

    return OpGraphReport(
        workload=projected.trace.workload,
        num_nodes=len(costs),
        num_edges=edges,
        cross_phase_edges=cross,
        symbolic_depends_on_neural=(PHASE_NEURAL,
                                    PHASE_SYMBOLIC) in crossings,
        neural_depends_on_symbolic=(PHASE_SYMBOLIC,
                                    PHASE_NEURAL) in crossings,
        critical_path_time=cp_time,
        critical_path_length=len(path),
        critical_path_phase_times=cp_phase_times,
        total_time=projected.total_time,
        max_width=max(Counter(generation).values(), default=0),
    )
