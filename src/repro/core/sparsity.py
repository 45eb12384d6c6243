"""Sparsity analysis (Fig. 5 and Takeaway 7).

The paper characterizes the sparsity of NVSA's symbolic stages —
PMF-to-VSA transform, probability computation, VSA-to-PMF transform —
across reasoning-rule attributes, finding high (>95%), unstructured,
attribute-varying sparsity.  The runtime already measures the zero
fraction of every op's output, so this module just aggregates it:

* by stage (the Fig. 5 x-axis groups);
* by attribute, by re-running a workload with its rules pinned to one
  attribute setting per sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiler import Trace


@dataclass
class StageSparsity:
    """Sparsity statistics of one stage's tensor outputs."""

    stage: str
    mean: float
    maximum: float
    minimum: float
    weighted_mean: float   # weighted by output element count
    num_events: int


def stage_sparsity(trace: Trace,
                   stages: Optional[Sequence[str]] = None,
                   min_elements: int = 2,
                   last_dim_in: Optional[Sequence[int]] = None
                   ) -> List[StageSparsity]:
    """Aggregate output sparsity per stage.

    Events with fewer than ``min_elements`` output elements are ignored
    (scalar scores would skew the statistics).  ``last_dim_in``
    restricts the aggregation to probability-shaped tensors — outputs
    whose final dimension is one of the given domain sizes — which is
    how Fig. 5 isolates NVSA's sparse probabilistic representations
    from the (dense by construction) hypervectors flowing beside them.
    """
    if stages is None:
        stages = trace.stages()
    allowed = set(last_dim_in) if last_dim_in is not None else None
    # one pass over the trace, each stage's values in trace order
    grouped: Dict[str, Tuple[List[float], List[float]]] = {
        stage: ([], []) for stage in stages}
    for event in trace:
        group = grouped.get(event.stage)
        if group is None:
            continue
        elements = math.prod(event.output_shape)
        if elements < min_elements:
            continue
        if allowed is not None:
            if not event.output_shape or \
                    event.output_shape[-1] not in allowed:
                continue
        group[0].append(event.output_sparsity)
        group[1].append(float(elements))
    out: List[StageSparsity] = []
    for stage in stages:
        values, weights = grouped[stage]
        if not values:
            continue
        arr = np.asarray(values)
        w = np.asarray(weights)
        out.append(StageSparsity(
            stage=stage,
            mean=float(arr.mean()),
            maximum=float(arr.max()),
            minimum=float(arr.min()),
            weighted_mean=float((arr * w).sum() / w.sum()),
            num_events=len(values),
        ))
    return out


def overall_sparsity(trace: Trace, phase: Optional[str] = None) -> float:
    """Element-weighted mean output sparsity of a trace (or phase)."""
    num = 0.0
    den = 0.0
    for event in trace:
        if phase is not None and event.phase != phase:
            continue
        elements = float(math.prod(event.output_shape))
        num += event.output_sparsity * elements
        den += elements
    return num / den if den else 0.0


#: The Fig. 5 stage labels mapped to our NVSA trace stages.
FIG5_STAGES: Dict[str, str] = {
    "pmf_to_vsa": "PMF-to-VSA transform",
    "answer_selection": "probability computation",
    "vsa_to_pmf": "VSA-to-PMF transform",
}


def nvsa_attribute_sweep(matrix_size: int = 3, seed: int = 0,
                         ) -> Dict[str, Dict[str, float]]:
    """Fig. 5: NVSA symbolic-stage sparsity per rule attribute.

    For each attribute, generates an RPM problem whose *other*
    attributes are pinned to ``constant`` so the sweep isolates the
    attribute's rule dynamics, runs NVSA, and reports the weighted mean
    sparsity of the probability-shaped tensors in the three Fig. 5
    stages (PMF-to-VSA, probability computation, VSA-to-PMF).
    """
    from repro.datasets.rpm import ATTRIBUTES, generate_problem
    from repro.workloads.nvsa import NVSAWorkload

    domains = set(ATTRIBUTES.values())
    joint = 1
    for d in ATTRIBUTES.values():
        joint *= d
    domains.add(joint)

    results: Dict[str, Dict[str, float]] = {}
    for attr in ATTRIBUTES:
        workload = NVSAWorkload(matrix_size=matrix_size, seed=seed)
        workload.build()
        rules = {other: "constant" for other in ATTRIBUTES if other != attr}
        workload.problem = generate_problem(matrix_size, seed=seed + 17,
                                            rules=rules)
        trace = workload.profile()
        per_stage: Dict[str, float] = {}
        for stage, label in FIG5_STAGES.items():
            stats = stage_sparsity(trace, [stage],
                                   last_dim_in=sorted(domains))
            per_stage[label] = stats[0].maximum if stats else 0.0
        results[attr] = per_stage
    return results
