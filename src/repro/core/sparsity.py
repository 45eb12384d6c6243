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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columns import seq_sum
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
    cols = trace.columns
    if stages is None:
        stages = [stage for stage in cols.stages if stage]
    kept = cols.elements >= min_elements
    if last_dim_in is not None:
        allowed = set(last_dim_in)
        kept &= np.fromiter(
            (bool(e.output_shape) and e.output_shape[-1] in allowed
             for e in trace), bool, cols.n)
    # the kept events grouped by stage, each group in trace order
    order = kept.nonzero()[0]
    order = order[cols.stage[order].argsort(kind="stable")]
    bounds = cols.stage[order].searchsorted(
        np.arange(len(cols.stages) + 1)).tolist()
    sparsity = cols.output_sparsity[order]
    weights = cols.elements[order].astype(np.float64)
    code = {stage: i for i, stage in enumerate(cols.stages)}
    out: List[StageSparsity] = []
    for stage in stages:
        i = code.get(stage)
        if i is None or bounds[i] == bounds[i + 1]:
            continue
        arr = sparsity[bounds[i]:bounds[i + 1]]
        w = weights[bounds[i]:bounds[i + 1]]
        # the reductions arr.mean(), .max(), .min() and .sum() make,
        # without their Python wrappers
        out.append(StageSparsity(
            stage=stage,
            mean=float(np.add.reduce(arr) / len(arr)),
            maximum=float(np.maximum.reduce(arr)),
            minimum=float(np.minimum.reduce(arr)),
            weighted_mean=float(np.add.reduce(arr * w) / np.add.reduce(w)),
            num_events=len(arr),
        ))
    return out


def overall_sparsity(trace: Trace, phase: Optional[str] = None) -> float:
    """Element-weighted mean output sparsity of a trace (or phase)."""
    cols = trace.columns
    selected = cols.in_phase(phase)
    elements = cols.elements[selected].astype(np.float64)
    num = seq_sum(cols.output_sparsity[selected] * elements)
    den = seq_sum(elements)
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
