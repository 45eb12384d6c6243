"""Hardware models: device specs, latency projection, roofline, cache
simulation, kernel counter synthesis, and transfer analysis — the
suite's replacement for the paper's physical testbed and Nsight."""

from repro.hwsim.cache import (CacheHierarchy, CacheStats, HierarchyStats,
                               SetAssociativeCache)
from repro.hwsim.device import CacheSpec, DeviceSpec
from repro.hwsim.devices import (ALL_DEVICES, JETSON_TX2, RTX_2080TI,
                                 XAVIER_NX, XEON_4114, get_device,
                                 parse_device_list)
from repro.hwsim.energy import EnergyReport, estimate_energy
from repro.hwsim.system import (HeterogeneousSystem, SystemCost,
                                SystemReport, default_placement,
                                gpu_only_placement, phase_placement)
from repro.hwsim.kernels import (KernelCounters, KernelProfile,
                                 nvsa_table4_kernels, simulate_kernel)
from repro.hwsim.latency import ProjectedTrace, project_trace
from repro.hwsim.roofline import RooflinePoint, roofline_curve, roofline_points
from repro.hwsim.transfer import TransferReport, analyze_transfers

__all__ = [
    "CacheHierarchy", "CacheStats", "HierarchyStats", "SetAssociativeCache",
    "CacheSpec", "DeviceSpec",
    "ALL_DEVICES", "JETSON_TX2", "RTX_2080TI", "XAVIER_NX", "XEON_4114",
    "get_device", "parse_device_list",
    "KernelCounters", "KernelProfile", "nvsa_table4_kernels",
    "simulate_kernel",
    "ProjectedTrace", "project_trace",
    "RooflinePoint", "roofline_curve", "roofline_points",
    "TransferReport", "analyze_transfers",
    "EnergyReport", "estimate_energy",
    "HeterogeneousSystem", "SystemCost", "SystemReport",
    "default_placement", "gpu_only_placement", "phase_placement",
]
