"""Analytic latency projection of traces onto devices.

Replaces the paper's wall-clock measurement: each trace event is
projected onto a :class:`~repro.hwsim.device.DeviceSpec` with a
roofline-style model,

    t = max(flops / (peak * eff_c), bytes / (bw * eff_m)) + launch,

where ``eff_c`` is the category- and size-dependent sustained compute
efficiency (GEMM/conv near peak; vector-symbolic, transform and logic
ops far below it) and ``eff_m`` the sustained bandwidth fraction of the
category's access pattern.  Host<->device transfer ops (``to_gpu`` /
``to_host``) are charged to the PCIe link instead of DRAM.

The model is one numpy formula over a trace's
:attr:`~repro.core.profiler.Trace.columns`: every event's roofs are
computed at once, with the same IEEE operations, in the same order,
as the per-event model spelled out above, so each event's time is the
same double.

The projection makes the paper's core asymmetry emerge from first
principles: symbolic events have low arithmetic intensity, so their
projected time is bandwidth-dominated, while neural GEMM/conv events
are compute-dominated.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.columns import (first_seen, seq_sum, sums_by,
                                untagged_as_label)
from repro.core.profiler import Trace
from repro.core.taxonomy import CATEGORY_ORDER, OpCategory
from repro.hwsim.device import DeviceSpec


class ProjectedTrace:
    """A trace with per-event latency projections for one device.

    ``compute`` and ``memory`` are each event's compute-roof and
    memory-roof seconds, and ``total`` is ``max(compute, memory)``
    plus the device's launch overhead.  The views sum ``total`` in
    event order and keep first-appearance order in their dicts.
    """

    def __init__(self, trace: Trace, device: DeviceSpec,
                 compute: np.ndarray, memory: np.ndarray,
                 total: np.ndarray):
        self.trace = trace
        #: the columns the arrays were projected from
        self.columns = trace.columns
        self.device = device
        self.compute = compute
        self.memory = memory
        self.total = total

    @property
    def memory_bound(self) -> np.ndarray:
        """Events whose memory roof is above their compute roof."""
        return ~(self.compute >= self.memory)

    @property
    def total_time(self) -> float:
        return seq_sum(self.total)

    def time_by_phase(self) -> Dict[str, float]:
        cols = self.columns
        return dict(zip(cols.phases, sums_by(cols.phase, self.total,
                                             len(cols.phases))))

    def time_by_stage(self) -> Dict[str, float]:
        """Seconds per stage; untagged events under ``"<untagged>"``."""
        stages, codes = untagged_as_label(self.columns.stages,
                                          self.columns.stage)
        return dict(zip(stages, sums_by(codes, self.total, len(stages))))

    def time_by_category(self, phase: Optional[str] = None
                         ) -> Dict[OpCategory, float]:
        """Seconds per category, in first appearance within ``phase``."""
        selected = self.columns.in_phase(phase)
        codes = self.columns.category[selected]
        sums = sums_by(codes, self.total[selected], len(CATEGORY_ORDER))
        return {CATEGORY_ORDER[code]: sums[code]
                for code in first_seen(codes)}

    def memory_bound_fraction(self, phase: Optional[str] = None) -> float:
        """Fraction of projected time spent in memory-bound events."""
        selected = self.columns.in_phase(phase)
        total = seq_sum(self.total[selected])
        bound = seq_sum(self.total[selected & self.memory_bound])
        return bound / total if total > 0 else 0.0


#: op-name prefixes of host<->device transfers, which the projection
#: charges to the host link instead of DRAM; ``to_host`` moves data
#: device-to-host, the others host-to-device
HOST_TRANSFER_PREFIXES = ("to_gpu", "to_host", "to_device")
_MOVEMENT = CATEGORY_ORDER.index(OpCategory.MOVEMENT)


def _host_transfers(trace: Trace) -> np.ndarray:
    """Mask of the data-movement events that cross the host link."""
    cols = trace.columns
    mask = np.zeros(cols.n, dtype=bool)
    for i in (cols.category == _MOVEMENT).nonzero()[0].tolist():
        mask[i] = trace[i].name.startswith(HOST_TRANSFER_PREFIXES)
    return mask


def project_trace(trace: Trace, device: DeviceSpec) -> ProjectedTrace:
    """Project a whole trace onto ``device``."""
    cols = trace.columns
    flops = cols.flops
    nbytes = cols.total_bytes
    eff_c = device.compute_efficiencies(cols.category, flops)
    eff_m = np.array([device.bandwidth_efficiency(category)
                      for category in CATEGORY_ORDER])[cols.category]
    with np.errstate(divide="ignore", invalid="ignore"):
        compute = np.where((flops > 0) & (eff_c > 0),
                           flops / (device.peak_flops * eff_c), 0.0)
        memory = np.where((nbytes > 0) & (eff_m > 0),
                          nbytes / (device.dram_bandwidth * eff_m), 0.0)
        if device.host_transfer_bandwidth > 0:
            memory = np.where(_host_transfers(trace),
                              nbytes / device.host_transfer_bandwidth,
                              memory)
    # max(compute, memory) as the builtin picks: memory only when larger
    total = np.where(memory > compute, memory, compute) \
        + device.kernel_launch_overhead
    return ProjectedTrace(trace, device, compute, memory, total)
