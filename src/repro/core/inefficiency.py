"""Hardware-inefficiency analysis (Table IV and Takeaway 6).

Thin orchestration over :mod:`repro.hwsim.kernels`: simulate the four
NVSA kernel archetypes on a device and render the counter matrix the
paper reports, plus the derived observations (symbolic ALU
utilization < 10%, DRAM near saturation, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columns import seq_sum
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.hwsim.kernels import (KernelCounters, nvsa_table4_kernels,
                                 simulate_kernel)

#: Table IV row labels in presentation order.
COUNTER_ROWS: Tuple[str, ...] = (
    "Compute Throughput (%)",
    "ALU Utilization (%)",
    "L1 Cache Throughput (%)",
    "L2 Cache Throughput (%)",
    "L1 Cache Hit Rate (%)",
    "L2 Cache Hit Rate (%)",
    "DRAM BW Utilization (%)",
)


@dataclass
class InefficiencyReport:
    """Our Table IV: counters per kernel plus derived observations."""

    device: str
    counters: List[KernelCounters]

    def matrix(self) -> Dict[str, Dict[str, float]]:
        """{row label: {kernel name: value}} in Table IV layout."""
        out: Dict[str, Dict[str, float]] = {row: {} for row in COUNTER_ROWS}
        for kernel in self.counters:
            for row, value in kernel.as_dict().items():
                out[row][kernel.name] = value
        return out

    def _mean(self, kind: str, metric: str) -> float:
        values = [getattr(k, metric) for k in self.counters
                  if k.kind == kind]
        return (seq_sum(np.array(values, dtype=np.float64)) / len(values)
                if values else 0.0)

    @property
    def symbolic_alu_below_10pct(self) -> bool:
        """Paper: symbolic GPU ALU utilization is < 10%."""
        return self._mean("symbolic", "alu_utilization_pct") < 10.0

    @property
    def symbolic_dram_saturated(self) -> bool:
        """Paper: symbolic DRAM bandwidth utilization is ~90%."""
        return self._mean("symbolic", "dram_bw_utilization_pct") > 70.0

    @property
    def neural_compute_dominant(self) -> bool:
        """Paper: neural kernels show high compute utilization."""
        return self._mean("neural", "compute_throughput_pct") > 80.0

    @property
    def contrast_summary(self) -> Dict[str, float]:
        return {
            "neural_compute_mean": self._mean(
                "neural", "compute_throughput_pct"),
            "symbolic_compute_mean": self._mean(
                "symbolic", "compute_throughput_pct"),
            "neural_dram_mean": self._mean(
                "neural", "dram_bw_utilization_pct"),
            "symbolic_dram_mean": self._mean(
                "symbolic", "dram_bw_utilization_pct"),
        }


def analyze_inefficiency(device: DeviceSpec = RTX_2080TI) -> InefficiencyReport:
    """Simulate the Table IV kernels on ``device``."""
    counters = [simulate_kernel(profile, device)
                for profile in nvsa_table4_kernels(device)]
    return InefficiencyReport(device=device.name, counters=counters)


def analyze_trace_inefficiency(trace, device: DeviceSpec = RTX_2080TI,
                               group_by: str = "category"
                               ) -> InefficiencyReport:
    """Table IV generalized to a *real* trace.

    Where :func:`analyze_inefficiency` replays the four hand-modeled
    NVSA archetypes, this folds the trace's attributed events through
    the per-category counter synthesis in :mod:`repro.obs.kstats`
    (``group_by``: ``"category"`` or ``"span"``) and wraps the result
    in the same :class:`InefficiencyReport`, so the derived
    observations (symbolic ALU < 10%, DRAM saturation...) can be
    checked against any workload, not just NVSA.
    """
    # deferred: obs.kstats sits above core in the layering
    from repro.obs import kstats as _kstats
    if group_by == "category":
        stats = _kstats.kstats_by_category(trace, device)
    elif group_by == "span":
        stats = _kstats.kstats_by_span(trace, device)
    else:
        raise ValueError(f"unknown group_by: {group_by!r} "
                         "(choose 'category' or 'span')")
    return InefficiencyReport(device=device.name,
                              counters=[s.counters for s in stats])
