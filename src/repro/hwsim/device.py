"""Device specification model.

A :class:`DeviceSpec` captures the handful of published figures the
analytic performance model needs: peak FP32 throughput, memory
bandwidth at each level, cache geometry, and per-kernel launch
overhead.  The four concrete devices the paper profiles on are defined
in :mod:`repro.hwsim.devices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.taxonomy import CATEGORY_ORDER, OpCategory


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of one cache level."""

    size: int          # bytes
    line_size: int     # bytes
    associativity: int
    bandwidth: float   # bytes/s aggregate

    def __post_init__(self) -> None:
        if self.size % (self.line_size * self.associativity) != 0:
            raise ValueError(
                "cache size must be a multiple of line_size * associativity")

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.associativity)


@dataclass(frozen=True)
class DeviceSpec:
    """An execution target for trace projection.

    ``category_efficiency`` is the fraction of peak FP32 the device
    sustains for large kernels of each operator category — the key
    asymmetry the paper characterizes (GEMM/conv near peak, symbolic
    vector/logic ops far below it).  ``memory_efficiency`` is the
    fraction of peak DRAM bandwidth sustained by each category's access
    pattern (streaming high, irregular/gather low).
    """

    name: str
    peak_flops: float          # FP32 FLOP/s
    dram_bandwidth: float      # bytes/s
    l1: CacheSpec
    l2: CacheSpec
    num_cores: int             # SMs (GPU) or cores (CPU)
    clock_hz: float
    kernel_launch_overhead: float   # seconds per kernel
    host_transfer_bandwidth: float  # bytes/s (PCIe etc.); 0 = unified/host
    is_gpu: bool
    tdp_watts: float = 0.0
    category_efficiency: Dict[OpCategory, float] = field(default_factory=dict)
    memory_efficiency: Dict[OpCategory, float] = field(default_factory=dict)
    #: FLOPs below which a kernel cannot saturate the device; efficiency
    #: ramps linearly up to this (models underutilization of small
    #: launches, a major symbolic-op inefficiency on GPUs).
    saturation_flops: float = 1e7

    def compute_efficiency(self, category: OpCategory, flops: float) -> float:
        """Sustained fraction of peak for a kernel of ``category``/``flops``."""
        return float(self.compute_efficiencies(
            np.array([CATEGORY_ORDER.index(category)]),
            np.array([flops], dtype=np.float64))[0])

    def compute_efficiencies(self, categories: np.ndarray,
                             flops: np.ndarray) -> np.ndarray:
        """:meth:`compute_efficiency` of many kernels at once, given each
        one's category code (an index into
        :data:`~repro.core.taxonomy.CATEGORY_ORDER`) and FLOPs."""
        base = np.array([self.category_efficiency.get(category, 0.3)
                         for category in CATEGORY_ORDER])[categories]
        with np.errstate(divide="ignore", invalid="ignore"):
            ramp = np.minimum(1.0, flops / self.saturation_flops)
            # even tiny kernels keep a floor of 2% of the sustained
            # rate; a kernel without positive FLOPs keeps the base
            return np.where(flops > 0, base * np.maximum(ramp, 0.02), base)

    def bandwidth_efficiency(self, category: OpCategory) -> float:
        return self.memory_efficiency.get(category, 0.6)

    def attainable_flops(self, operational_intensity: float) -> float:
        """Classic roofline: min(peak, OI * BW)."""
        if operational_intensity <= 0:
            return 0.0
        return min(self.peak_flops,
                   operational_intensity * self.dram_bandwidth)

    @property
    def ridge_point(self) -> float:
        """Operational intensity (FLOP/byte) where the roofline bends."""
        return self.peak_flops / self.dram_bandwidth


def default_gpu_efficiencies() -> Dict[OpCategory, float]:
    """Sustained-fraction-of-peak defaults for a discrete GPU."""
    return {
        OpCategory.CONVOLUTION: 0.65,
        OpCategory.MATMUL: 0.75,
        OpCategory.ELEMENTWISE: 0.15,
        OpCategory.TRANSFORM: 0.05,
        OpCategory.MOVEMENT: 0.0,
        OpCategory.OTHER: 0.02,
    }


def default_gpu_memory_efficiencies() -> Dict[OpCategory, float]:
    return {
        OpCategory.CONVOLUTION: 0.80,
        OpCategory.MATMUL: 0.80,
        OpCategory.ELEMENTWISE: 0.75,
        OpCategory.TRANSFORM: 0.45,
        OpCategory.MOVEMENT: 0.85,
        OpCategory.OTHER: 0.20,
    }


def default_cpu_efficiencies() -> Dict[OpCategory, float]:
    """CPUs run GEMM near peak via MKL-class libraries; control-heavy
    symbolic code fares relatively better than on GPUs."""
    return {
        OpCategory.CONVOLUTION: 0.55,
        OpCategory.MATMUL: 0.70,
        OpCategory.ELEMENTWISE: 0.20,
        OpCategory.TRANSFORM: 0.10,
        OpCategory.MOVEMENT: 0.0,
        OpCategory.OTHER: 0.08,
    }


def default_cpu_memory_efficiencies() -> Dict[OpCategory, float]:
    return {
        OpCategory.CONVOLUTION: 0.70,
        OpCategory.MATMUL: 0.70,
        OpCategory.ELEMENTWISE: 0.80,
        OpCategory.TRANSFORM: 0.50,
        OpCategory.MOVEMENT: 0.85,
        OpCategory.OTHER: 0.30,
    }
