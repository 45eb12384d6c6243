"""The four platforms of the paper's testbed (Sec. IV-A).

Published figures: peak FP32, memory bandwidth, cache geometry, TDP.

* Intel Xeon Silver 4114 — 10 cores @ 2.2 GHz, AVX-512 (1 FMA port):
  10 * 2.2e9 * 16 lanes * 2 = ~704 GFLOP/s; 6-channel DDR4-2400
  ~ 115 GB/s (sustained ~85).
* Nvidia RTX 2080 Ti (250 W) — 68 SMs, 13.45 TFLOP/s FP32, 616 GB/s
  GDDR6, 64 KiB L1/SM (4.25 MiB aggregate), 5.5 MiB L2, PCIe3 x16.
* Nvidia Jetson TX2 (15 W) — 256-core Pascal @ 1.3 GHz: 665 GFLOP/s
  FP32; 58.3 GB/s shared LPDDR4; 512 KiB L2; unified memory.
* Nvidia Xavier NX (20 W) — 384-core Volta @ 1.1 GHz: ~845 GFLOP/s
  FP32; 51.2 GB/s LPDDR4x; 512 KiB L2; unified memory.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Tuple

from repro.hwsim.device import (CacheSpec, DeviceSpec,
                                default_cpu_efficiencies,
                                default_cpu_memory_efficiencies,
                                default_gpu_efficiencies,
                                default_gpu_memory_efficiencies)

RTX_2080TI = DeviceSpec(
    name="RTX 2080 Ti",
    peak_flops=13.45e12,
    dram_bandwidth=616e9,
    l1=CacheSpec(size=68 * 64 * 1024, line_size=128, associativity=4,
                 bandwidth=14e12),
    l2=CacheSpec(size=5767168, line_size=128,  # 5.5 MiB
                 associativity=16, bandwidth=2.0e12),
    num_cores=68,
    clock_hz=1.545e9,
    kernel_launch_overhead=5e-6,
    host_transfer_bandwidth=12e9,
    is_gpu=True,
    tdp_watts=250.0,
    category_efficiency=default_gpu_efficiencies(),
    memory_efficiency=default_gpu_memory_efficiencies(),
    saturation_flops=5e7,
)

XEON_4114 = DeviceSpec(
    name="Xeon Silver 4114",
    peak_flops=704e9,
    dram_bandwidth=115e9,
    l1=CacheSpec(size=10 * 32 * 1024, line_size=64, associativity=8,
                 bandwidth=3e12),
    l2=CacheSpec(size=10 * 1024 * 1024, line_size=64, associativity=16,
                 bandwidth=1e12),
    num_cores=10,
    clock_hz=2.2e9,
    kernel_launch_overhead=2e-7,
    host_transfer_bandwidth=0.0,   # host memory: no PCIe hop
    is_gpu=False,
    tdp_watts=85.0,
    category_efficiency=default_cpu_efficiencies(),
    memory_efficiency=default_cpu_memory_efficiencies(),
    saturation_flops=1e6,
)

JETSON_TX2 = DeviceSpec(
    name="Jetson TX2",
    peak_flops=665e9,
    dram_bandwidth=58.3e9,
    l1=CacheSpec(size=2 * 64 * 1024, line_size=128, associativity=4,
                 bandwidth=1.3e12),
    l2=CacheSpec(size=512 * 1024, line_size=128, associativity=16,
                 bandwidth=300e9),
    num_cores=2,
    clock_hz=1.3e9,
    kernel_launch_overhead=1.2e-5,
    host_transfer_bandwidth=0.0,   # unified memory
    is_gpu=True,
    tdp_watts=15.0,
    category_efficiency=default_gpu_efficiencies(),
    memory_efficiency=default_gpu_memory_efficiencies(),
    saturation_flops=5e6,
)

XAVIER_NX = DeviceSpec(
    name="Xavier NX",
    peak_flops=845e9,
    dram_bandwidth=51.2e9,
    l1=CacheSpec(size=6 * 64 * 1024, line_size=128, associativity=4,
                 bandwidth=2e12),
    l2=CacheSpec(size=512 * 1024, line_size=128, associativity=16,
                 bandwidth=400e9),
    num_cores=6,
    clock_hz=1.1e9,
    kernel_launch_overhead=8e-6,
    host_transfer_bandwidth=0.0,   # unified memory
    is_gpu=True,
    tdp_watts=20.0,
    category_efficiency=default_gpu_efficiencies(),
    memory_efficiency=default_gpu_memory_efficiencies(),
    saturation_flops=8e6,
)

#: The paper's desktop system: symbolic control flow on the CPU, tensor
#: kernels on the GPU, transfers over PCIe.
ALL_DEVICES: Tuple[DeviceSpec, ...] = (
    RTX_2080TI, XEON_4114, JETSON_TX2, XAVIER_NX)

_BY_NAME: Dict[str, DeviceSpec] = {d.name: d for d in ALL_DEVICES}
_ALIASES: Dict[str, str] = {
    "rtx": "RTX 2080 Ti",
    "rtx2080ti": "RTX 2080 Ti",
    "2080ti": "RTX 2080 Ti",
    "xeon": "Xeon Silver 4114",
    "cpu": "Xeon Silver 4114",
    "tx2": "Jetson TX2",
    "jetson": "Jetson TX2",
    "nx": "Xavier NX",
    "xavier": "Xavier NX",
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by full name or alias (case-insensitive)."""
    if name in _BY_NAME:
        return _BY_NAME[name]
    key = name.replace(" ", "").replace("-", "").lower()
    if key in _ALIASES:
        return _BY_NAME[_ALIASES[key]]
    raise KeyError(f"unknown device: {name!r}; known: {sorted(_BY_NAME)}")


def parse_device_list(spec: str) -> List[DeviceSpec]:
    """Comma-separated names/aliases -> devices (``"rtx,xeon"``).

    The serving layer uses this to bind a heterogeneous worker pool:
    worker *i* binds ``devices[i % len(devices)]``.
    """
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise KeyError(f"no device names in {spec!r}")
    return [get_device(name) for name in names]


def device_arg(value: str, many: bool = False) -> str:
    """The argparse ``type=`` of every ``--device`` flag.

    Returns ``value`` as given once it resolves: one device name or
    alias, or with ``many`` a comma-separated list of them
    (:func:`parse_device_list`).  Anything else is a usage error
    (exit 2) naming the bad value and the known devices, not a
    ``KeyError`` traceback.
    """
    try:
        if many:
            parse_device_list(value)
        else:
            get_device(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return value
