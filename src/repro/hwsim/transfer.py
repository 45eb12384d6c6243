"""Host <-> device transfer modeling.

The paper observes that "data transfer memory operations account for
around 50% of total latency, where >80% is from host CPU to GPU"
(Sec. V-E).  This module estimates transfer costs for a trace executed
on a discrete-GPU system: every phase boundary between CPU-side
symbolic control flow and GPU-side tensor kernels moves the working
tensors across PCIe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.profiler import Trace
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import HOST_TRANSFER_PREFIXES


@dataclass
class TransferReport:
    """Host/device traffic summary for one trace on one device."""

    h2d_bytes: int
    d2h_bytes: int
    h2d_time: float
    d2h_time: float
    num_transfers: int

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    @property
    def total_time(self) -> float:
        return self.h2d_time + self.d2h_time

    @property
    def h2d_fraction(self) -> float:
        total = self.total_bytes
        return self.h2d_bytes / total if total else 0.0


def analyze_transfers(trace: Trace, device: DeviceSpec) -> TransferReport:
    """Account explicit movement events plus implicit phase-boundary
    transfers of each phase's first-event inputs."""
    bandwidth = device.host_transfer_bandwidth or device.dram_bandwidth
    h2d_bytes = 0
    d2h_bytes = 0
    transfers = 0

    previous_phase = None
    for event in trace:
        if event.category is OpCategory.MOVEMENT and event.name.startswith(
                HOST_TRANSFER_PREFIXES):
            if event.name.startswith("to_host"):
                d2h_bytes += event.bytes_read
            else:
                h2d_bytes += event.bytes_read
            transfers += 1
        elif previous_phase is not None and event.phase != previous_phase:
            # implicit boundary: inputs of the first op of the new phase
            # cross the link (symbolic control flow runs host-side)
            h2d_bytes += event.bytes_read
            transfers += 1
        previous_phase = event.phase

    return TransferReport(
        h2d_bytes=h2d_bytes,
        d2h_bytes=d2h_bytes,
        h2d_time=h2d_bytes / bandwidth,
        d2h_time=d2h_bytes / bandwidth,
        num_transfers=transfers,
    )
