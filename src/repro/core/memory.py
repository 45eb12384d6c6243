"""Memory analysis (Fig. 3b and Takeaway 4).

Two views:

* **dynamic** — live intermediate-tensor bytes over the run (tracked by
  the runtime's allocation counter), split per phase: the paper notes
  PrAE's symbolic phase holds large intermediates (exhaustive search)
  while ZeroC's neural ensembles dominate its usage;
* **static footprint** — neural parameter bytes vs. symbolic
  codebook/knowledge bytes: "neural weights and symbolic codebooks
  typically consume more storage ... >90% memory footprint in NVSA".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columns import sums_by
from repro.core.profiler import Trace


@dataclass
class MemoryProfile:
    """One workload's Fig. 3b entry."""

    workload: str
    peak_live_bytes: int
    peak_live_by_phase: Dict[str, int]
    traffic_by_phase: Dict[str, int]
    parameter_bytes: int
    codebook_bytes: int

    @property
    def static_footprint(self) -> int:
        return self.parameter_bytes + self.codebook_bytes

    @property
    def codebook_fraction(self) -> float:
        if self.static_footprint == 0:
            return 0.0
        return self.codebook_bytes / self.static_footprint

    def phase_peak_fraction(self, phase: str) -> float:
        peak = max(self.peak_live_by_phase.values(), default=0)
        if peak == 0:
            return 0.0
        return self.peak_live_by_phase.get(phase, 0) / peak


def memory_profile(trace: Trace) -> MemoryProfile:
    """Extract the memory view from a trace (uses the live-bytes
    samples each event carries plus the workload's static accounting
    stored in trace metadata).

    A phase's peak is its first largest positive sample, and phases
    appear in the order their first positive sample does; a phase
    without one has no peak entry.  Traffic is summed per phase in
    event order.
    """
    cols = trace.columns
    live = cols.live_bytes
    positive = live > 0
    firsts: List[Tuple[int, str, int]] = []
    for code, phase in enumerate(cols.phases):
        at = (positive & (cols.phase == code)).nonzero()[0]
        if at.size:
            firsts.append((int(at[0]), phase,
                           int(at[np.argmax(live[at])])))
    peak_by_phase = {phase: trace[i].live_bytes
                     for _, phase, i in sorted(firsts)}
    metadata = trace.metadata
    return MemoryProfile(
        workload=trace.workload,
        peak_live_bytes=max(peak_by_phase.values(), default=0),
        peak_live_by_phase=peak_by_phase,
        traffic_by_phase=dict(zip(cols.phases, sums_by(
            cols.phase, cols.total_bytes, len(cols.phases)))),
        parameter_bytes=int(metadata.get("parameter_bytes", 0)),
        codebook_bytes=int(metadata.get("codebook_bytes", 0)),
    )
