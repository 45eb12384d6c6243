"""Roofline-model utilities (Fig. 3c).

The roofline bounds attainable FLOP/s by
``min(peak, OI * bandwidth)`` where OI is operational intensity
(FLOP per byte of DRAM traffic).  This module places trace components
on a device's roofline and classifies them compute- vs memory-bound —
the paper's Takeaway 4 is that symbolic components sit under the
bandwidth roof while neural components sit under the compute roof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.columns import first_seen, sums_by, untagged_as_label
from repro.core.profiler import Trace
from repro.core.taxonomy import CATEGORY_ORDER
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace


@dataclass
class RooflinePoint:
    """One component placed on the roofline."""

    label: str
    operational_intensity: float   # FLOP / DRAM byte
    achieved_flops: float          # FLOP/s under the latency projection
    attainable_flops: float        # roofline bound at this OI
    ridge: float                   # the device's ridge point (FLOP / byte)

    @property
    def bound(self) -> str:
        return "compute" if self.operational_intensity >= self.ridge else "memory"


def roofline_curve(device: DeviceSpec,
                   oi_range: Tuple[float, float] = (1e-2, 1e3),
                   points: int = 64) -> List[Tuple[float, float]]:
    """Sampled (OI, attainable FLOP/s) pairs for plotting the roof."""
    ois = np.logspace(np.log10(oi_range[0]), np.log10(oi_range[1]), points)
    return [(float(oi), device.attainable_flops(float(oi))) for oi in ois]


def roofline_points(trace: Trace, device: DeviceSpec,
                    group_by: str = "phase") -> List[RooflinePoint]:
    """Aggregate a trace into roofline points.

    ``group_by``: ``"phase"`` (neural/symbolic — the Fig. 3c view),
    ``"stage"``, or ``"category"``.  Groups appear in first appearance,
    each summed in event order.
    """
    projected = project_trace(trace, device)
    cols = projected.columns
    if group_by == "phase":
        labels, codes = untagged_as_label(cols.phases, cols.phase)
    elif group_by == "stage":
        labels, codes = untagged_as_label(cols.stages, cols.stage)
    elif group_by == "category":
        labels = [category.value for category in CATEGORY_ORDER]
        codes = cols.category
    else:
        raise ValueError(f"unknown group_by: {group_by!r}")
    k = len(labels)
    flops = sums_by(codes, cols.flops, k)
    nbytes = sums_by(codes, cols.total_bytes.astype(np.float64), k)
    time = sums_by(codes, projected.total, k)

    out: List[RooflinePoint] = []
    for code in first_seen(codes):
        if nbytes[code] <= 0 or time[code] <= 0:
            continue
        oi = flops[code] / nbytes[code]
        achieved = flops[code] / time[code]
        point = RooflinePoint(
            label=labels[code],
            operational_intensity=oi,
            achieved_flops=achieved,
            attainable_flops=device.attainable_flops(oi),
            ridge=device.ridge_point,
        )
        out.append(point)
    return out
