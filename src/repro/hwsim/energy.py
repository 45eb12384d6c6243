"""Energy modeling.

The paper quotes TDPs (RTX 2080 Ti 250 W, Xavier NX 20 W, Jetson TX2
15 W) — edge deployment trades latency for power.  This module turns
latency projections into energy estimates with a simple two-component
model:

    E = P_static * t_total + P_dynamic_peak * sum_i (u_i * t_i),

where static power is a fixed fraction of TDP, dynamic power scales
with each event's achieved utilization (achieved FLOP rate over peak
for compute-bound events; achieved bandwidth over peak for
memory-bound ones).  Absolute joules are rough; the *ratios* —
edge SoCs spending less energy per inference despite being slower —
are the modeled claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.columns import first_seen, seq_sum, sums_by
from repro.core.profiler import Trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace

#: fraction of TDP drawn at idle
STATIC_FRACTION = 0.30
#: dynamic headroom (TDP minus static)
DYNAMIC_FRACTION = 1.0 - STATIC_FRACTION


@dataclass
class EnergyReport:
    """Energy estimate for one trace on one device."""

    device: str
    total_time: float
    static_energy: float
    dynamic_energy: float
    energy_by_phase: Dict[str, float]

    @property
    def total_energy(self) -> float:
        return self.static_energy + self.dynamic_energy

    @property
    def average_power(self) -> float:
        return self.total_energy / self.total_time if self.total_time \
            else 0.0


def estimate_energy(trace: Trace, device: DeviceSpec) -> EnergyReport:
    """Project ``trace`` and integrate the power model.

    Elementwise over the projection; each phase's energy and the
    dynamic total are summed in event order over the events whose
    projected time is not <= 0, and phases appear in the order such an
    event first does.
    """
    if device.tdp_watts <= 0:
        raise ValueError(f"device {device.name} has no TDP configured")
    projected = project_trace(trace, device)
    cols = projected.columns
    static_power = STATIC_FRACTION * device.tdp_watts
    dynamic_peak = DYNAMIC_FRACTION * device.tdp_watts

    busy = ~(projected.total <= 0)
    duration = projected.total[busy]
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = np.where(
            projected.memory_bound[busy],
            cols.total_bytes[busy] / duration / device.dram_bandwidth,
            cols.flops[busy] / duration / device.peak_flops)
    # min(1.0, achieved) as the builtin picks: achieved only when smaller
    utilization = np.where(achieved < 1.0, achieved, 1.0)
    event_energy = (static_power + dynamic_peak * utilization) * duration
    phase = cols.phase[busy]
    sums = sums_by(phase, event_energy, len(cols.phases))
    by_phase = {cols.phases[code]: sums[code] for code in first_seen(phase)}

    return EnergyReport(
        device=device.name,
        total_time=projected.total_time,
        static_energy=static_power * projected.total_time,
        dynamic_energy=float(seq_sum(dynamic_peak * utilization
                                     * duration)),
        energy_by_phase=by_phase,
    )
