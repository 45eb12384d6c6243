"""Heterogeneous CPU+GPU system model.

The paper's desktop testbed is a *system*: tensor kernels execute on
the GPU while symbolic control flow runs host-side, with PCIe transfers
whenever data crosses — "the data transfer overhead arising from the
separate neural and symbolic execution on GPUs and CPUs poses
efficient hardware design challenges" (Takeaway 3) and "data transfer
memory operations account for around 50% of total latency, where >80%
is from host CPU to GPU" (Sec. V-E).

:class:`HeterogeneousSystem` projects each trace event onto the device
its placement policy chooses and charges a PCIe transfer whenever a
consumed tensor lives on the other side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.columns import seq_sum
from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace

Placement = Callable[[TraceEvent], str]   # -> "cpu" | "gpu"


def default_placement(event: TraceEvent) -> str:
    """The paper's framework behaviour: tensor kernels launch on the
    GPU; host-side control flow ("Others" logic regions) stays on the
    CPU."""
    if event.category is OpCategory.OTHER:
        return "cpu"
    return "gpu"


def gpu_only_placement(event: TraceEvent) -> str:
    return "gpu"


def phase_placement(event: TraceEvent) -> str:
    """Reference-implementation behaviour for the pipelined systems:
    the whole symbolic backend executes host-side (numpy/Python, as in
    the released NVSA/PrAE code), so every tensor crossing the
    neural/symbolic boundary pays a PCIe trip."""
    from repro.core.profiler import PHASE_SYMBOLIC
    if event.phase == PHASE_SYMBOLIC or \
            event.category is OpCategory.OTHER:
        return "cpu"
    return "gpu"


@dataclass
class SystemCost:
    """Projected cost of one event inside the system."""

    event: TraceEvent
    device: str
    #: projected seconds of the event on its device
    execution: float
    transfer_bytes: int
    transfer_time: float

    @property
    def total(self) -> float:
        return self.execution + self.transfer_time


@dataclass
class SystemReport:
    """System-level projection of a whole trace."""

    costs: List[SystemCost]
    pcie_bandwidth: float

    @property
    def total_time(self) -> float:
        return seq_sum(np.fromiter((c.total for c in self.costs),
                                   np.float64, len(self.costs)))

    @property
    def transfer_time(self) -> float:
        return seq_sum(np.fromiter((c.transfer_time for c in self.costs),
                                   np.float64, len(self.costs)))

    def time_by_device(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for cost in self.costs:
            out[cost.device] = out.get(cost.device, 0.0) \
                + cost.execution
        out["pcie"] = self.transfer_time
        return out


class HeterogeneousSystem:
    """A CPU + discrete GPU joined by a PCIe-class link."""

    def __init__(self, cpu: DeviceSpec, gpu: DeviceSpec,
                 pcie_bandwidth: Optional[float] = None,
                 placement: Placement = default_placement):
        self.cpu = cpu
        self.gpu = gpu
        self.pcie_bandwidth = (pcie_bandwidth
                               or gpu.host_transfer_bandwidth
                               or 12e9)
        self.placement = placement

    def project(self, trace: Trace) -> SystemReport:
        """Project every event; tensors crossing devices pay PCIe."""
        side_of: Dict[int, str] = {}   # producing event id -> device
        costs: List[SystemCost] = []
        bytes_of: Dict[int, int] = {
            e.eid: e.bytes_written for e in trace}
        on_gpu = project_trace(trace, self.gpu).total.tolist()
        on_cpu = project_trace(trace, self.cpu).total.tolist()
        for i, event in enumerate(trace):
            device_name = self.placement(event)
            execution = on_gpu[i] if device_name == "gpu" else on_cpu[i]
            moved = 0
            for parent in event.parents:
                parent_side = side_of.get(parent, device_name)
                if parent_side != device_name:
                    moved += bytes_of.get(parent, 0)
                    side_of[parent] = device_name  # now cached here
            transfer_time = moved / self.pcie_bandwidth if moved else 0.0
            costs.append(SystemCost(event=event, device=device_name,
                                    execution=execution,
                                    transfer_bytes=moved,
                                    transfer_time=transfer_time))
            side_of[event.eid] = device_name
        return SystemReport(costs=costs,
                            pcie_bandwidth=self.pcie_bandwidth)
