"""Kernel archetypes and the Table IV counter model.

The paper's Table IV contrasts GPU performance counters of two neural
kernels (``sgemm_nn``, ``relu_nn``) against two symbolic kernels
(``vectorized_elem``, ``elementwise``) from the NVSA workload.  We
reproduce those counters with a hybrid model:

* **Hit rates** come from replaying a structurally-faithful address
  stream through a set-associative hierarchy whose L1 is one SM's
  slice (reuse across thread-blocks on other SMs cannot hit in a
  private L1, only in the shared L2):

  - ``sgemm_nn``   — shared-memory-tiled GEMM: every A/B tile line
    passes through L1 once per consuming thread-block (temporal reuse
    lives in shared memory/registers, invisible to L1), so the L1 hit
    rate is near zero while the L2 catches cross-block tile reuse.
  - ``relu_nn``    — activation epilogue: in-place read-then-write per
    line over GEMM output still resident in L2 (~50% L1 hits from the
    write following the read, high L2 hits from residency).
  - ``vectorized_elem`` — NVSA vector-symbolic kernel: two huge
    streaming operands (hypervector arrays much larger than L2) plus a
    small broadcast codebook slice that stays L1-resident.
  - ``elementwise`` — in-place binary op over two huge operands
    (``a += b``): read-miss, read-miss, write-hit per element triple.

* **Timing and utilization** come from an analytic pipe model.  Each
  kernel's elapsed time is the max over pipe times (instruction issue,
  FMA, L1, L2, DRAM, with sustained-efficiency deratings); counters are
  pipe-time over elapsed-time ratios:

  - compute throughput — issue/FMA pipe activity share;
  - ALU utilization    — compute throughput weighted by the FP share
    of the instruction mix;
  - L1/L2 throughput   — cache-level traffic time over elapsed;
  - DRAM BW utilization — achieved DRAM bandwidth over peak.

  ``relu_nn`` carries ``fused_epilogue=True``: profiled inside NVSA it
  executes fused with (or back-to-back after) the producing GEMM, so
  its SM-activity counter reflects the producer's near-peak pipeline
  rather than its own tiny instruction stream; we model that activity
  as 95% derated by any exposed DRAM stall.

Counter semantics approximate (not equal) Nsight Compute's; the point
reproduced is the qualitative contrast — neural kernels busy and
cache-friendly, symbolic kernels DRAM-saturated with idle ALUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.hwsim.cache import CacheHierarchy
from repro.hwsim.device import CacheSpec, DeviceSpec

Stream = Tuple[np.ndarray, np.ndarray]  # (line addresses, is_write flags)

#: sustained fractions of peak for the pipe-time deratings
_FMA_SUSTAIN = 0.95
_DRAM_SUSTAIN = 0.90
#: warp schedulers per SM, each issuing one warp instruction per clock
_SCHEDULERS_PER_CORE = 4


@dataclass
class KernelProfile:
    """One kernel archetype: stream generator + analytic traffic model."""

    name: str
    kind: str                     # "neural" | "symbolic"
    flops: float                  # full-size FLOP count
    warp_insts: float             # full-size warp instructions issued
    fp_inst_share: float          # fraction of instructions on FP pipes
    l1_bytes: float               # full-size L1-*structure* traffic (on
                                  # NVIDIA, L1 and shared memory are one
                                  # physical structure, so GEMM register
                                  # tile loads count here)
    global_bytes: float           # full-size global-memory access traffic
                                  # (what the address stream models)
    compulsory_bytes: float       # full-size compulsory DRAM traffic
    sim_compulsory_bytes: float   # compulsory DRAM traffic of the sim stream
    stream: Callable[[], Stream]  # scaled-down address stream
    warm: Optional[Callable[[], np.ndarray]] = None  # lines pre-resident in L2
    fused_epilogue: bool = False  # SM activity inherited from producer kernel


@dataclass
class KernelCounters:
    """Our reproduction of one Table IV column."""

    name: str
    kind: str
    compute_throughput_pct: float
    alu_utilization_pct: float
    l1_throughput_pct: float
    l2_throughput_pct: float
    l1_hit_rate_pct: float
    l2_hit_rate_pct: float
    dram_bw_utilization_pct: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "Compute Throughput (%)": self.compute_throughput_pct,
            "ALU Utilization (%)": self.alu_utilization_pct,
            "L1 Cache Throughput (%)": self.l1_throughput_pct,
            "L2 Cache Throughput (%)": self.l2_throughput_pct,
            "L1 Cache Hit Rate (%)": self.l1_hit_rate_pct,
            "L2 Cache Hit Rate (%)": self.l2_hit_rate_pct,
            "DRAM BW Utilization (%)": self.dram_bw_utilization_pct,
        }


# ---------------------------------------------------------------------------
# address-stream generators (line granularity; one access = one 128B
# transaction serving 32 consecutive fp32 elements)
# ---------------------------------------------------------------------------

def _gemm_stream(m: int, n: int, k: int, line_size: int,
                 bm: int = 64, bn: int = 64, bk: int = 32) -> Stream:
    """Shared-memory-tiled GEMM: A/B tile lines stream through L1 once
    per consuming thread-block; C written once at the end of each block."""
    epl = line_size // 4  # fp32 elements per line
    a_base = 0
    b_base = m * k // epl + 1
    c_base = b_base + k * n // epl + 1
    addrs, writes = [], []
    for mb in range(m // bm):
        for nb in range(n // bn):
            for kb in range(k // bk):
                # A tile: rows mb*bm..+bm, cols kb*bk..+bk (row-major)
                for row in range(bm):
                    line0 = ((mb * bm + row) * k + kb * bk) // epl
                    for line in range(line0, line0 + max(1, bk // epl)):
                        addrs.append(a_base + line)
                        writes.append(False)
                # B tile: rows kb*bk..+bk, cols nb*bn..+bn
                for row in range(bk):
                    line0 = ((kb * bk + row) * n + nb * bn) // epl
                    for line in range(line0, line0 + max(1, bn // epl)):
                        addrs.append(b_base + line)
                        writes.append(False)
            # C tile writes
            for row in range(bm):
                line0 = ((mb * bm + row) * n + nb * bn) // epl
                for line in range(line0, line0 + max(1, bn // epl)):
                    addrs.append(c_base + line)
                    writes.append(True)
    return np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool)


def _relu_stream(n_elems: int, line_size: int) -> Stream:
    """In-place activation: read line then write the same line."""
    epl = line_size // 4
    n_lines = n_elems // epl
    lines = np.arange(n_lines, dtype=np.int64)
    addrs = np.repeat(lines, 2)
    writes = np.tile(np.array([False, True]), n_lines)
    return addrs, writes


def _vectorized_elem_stream(n_elems: int, table_elems: int,
                            line_size: int) -> Stream:
    """Chained NVSA vector ops: two streaming operands, a broadcast
    codebook slice read twice, and two fused stages whose intermediate
    is written then read back while still L2-resident.

    Per element line: a(r), table(r), b(r), table(r), c(w), c(r),
    d(w), d(r) — the c/d read-backs model the producer-consumer chains
    of NVSA's rule algebra (bind -> bundle -> normalize).
    """
    epl = line_size // 4
    n_lines = n_elems // epl
    t_lines = max(1, table_elems // epl)
    a = np.arange(n_lines, dtype=np.int64)
    b = a + n_lines + 1
    c = b + n_lines + 1
    d = c + n_lines + 1
    table = d + n_lines + 1 + (np.arange(n_lines) % t_lines)
    per = 8
    addrs = np.empty(per * n_lines, dtype=np.int64)
    addrs[0::per], addrs[1::per], addrs[2::per], addrs[3::per] = a, table, b, table
    addrs[4::per], addrs[5::per], addrs[6::per], addrs[7::per] = c, c, d, d
    writes = np.zeros(per * n_lines, dtype=bool)
    writes[4::per] = True
    writes[6::per] = True
    return addrs, writes


def _elementwise_stream(n_elems: int, line_size: int) -> Stream:
    """In-place binary op (a += b): read a, read b, write a."""
    epl = line_size // 4
    n_lines = n_elems // epl
    a = np.arange(n_lines, dtype=np.int64)
    b = a + n_lines + 1
    addrs = np.empty(3 * n_lines, dtype=np.int64)
    addrs[0::3], addrs[1::3], addrs[2::3] = a, b, a
    writes = np.zeros(3 * n_lines, dtype=bool)
    writes[2::3] = True
    return addrs, writes


# ---------------------------------------------------------------------------
# the four Table IV archetypes
# ---------------------------------------------------------------------------

def nvsa_table4_kernels(device: DeviceSpec) -> Tuple[KernelProfile, ...]:
    """Kernel profiles sized after NVSA's actual workloads.

    Full sizes: the GEMM is a conv-lowered layer (m=2048, n=256,
    k=1152); relu acts on its output; the symbolic kernels stream
    codebook-scale hypervector arrays (32M elements, far beyond L2).
    Streams are scaled down for simulation; hit rates are
    structure-determined and size-stable.
    """
    line = device.l1.line_size
    epl = line // 4

    # -- sgemm_nn ----------------------------------------------------------
    m, n, k = 2048, 256, 1152
    sm, sn, sk = 512, 256, 288
    bm = bn = 64
    gemm_flops = 2.0 * m * n * k
    gemm_insts = gemm_flops / 2 / 32 * 1.10   # FMA warp-insts + 10% overhead
    register_block = 8                         # smem->register tile reuse
    gemm_l1_bytes = 2.0 * m * n * k / register_block * 4
    gemm_global = (m * n * k * (1.0 / bm + 1.0 / bn) + m * n) * 4
    gemm_compulsory = 4.0 * (m * k + k * n + m * n)
    sim_compulsory = 4.0 * (sm * sk + sk * sn + sm * sn)

    # -- relu_nn -----------------------------------------------------------
    relu_elems = m * n
    relu_sim = 512 * 1024
    relu_flops = 2.0 * relu_elems
    relu_insts = 8.0 * relu_elems / 32        # ld/bias/fadd/fmax/st + addressing
    relu_l1_bytes = 8.0 * relu_elems
    relu_residency = 0.92                     # fraction served from L2, not DRAM
    relu_compulsory = (1 - relu_residency) * 8.0 * relu_elems
    relu_sim_compulsory = (1 - relu_residency) * 8.0 * relu_sim

    # -- vectorized_elem ----------------------------------------------------
    vec_elems = 32 * 1024 * 1024
    vec_sim = 2 * 1024 * 1024
    table_elems = 4 * 1024                    # codebook slice, L1-resident
    vec_flops = 4.0 * vec_elems
    vec_insts = 10.0 * vec_elems / 32
    vec_l1_bytes = 32.0 * vec_elems            # 8 accesses/element line
    vec_compulsory = 20.0 * vec_elems          # a, b in; c, d out + c fetch
    vec_sim_compulsory = 20.0 * vec_sim

    # -- elementwise ---------------------------------------------------------
    ew_elems = 32 * 1024 * 1024
    ew_sim = 2 * 1024 * 1024
    ew_flops = 1.0 * ew_elems
    ew_insts = 3.0 * ew_elems / 32
    ew_l1_bytes = 12.0 * ew_elems
    ew_compulsory = 12.0 * ew_elems            # a in/out, b in
    ew_sim_compulsory = 12.0 * ew_sim

    return (
        KernelProfile(
            name="sgemm_nn", kind="neural",
            flops=gemm_flops, warp_insts=gemm_insts, fp_inst_share=0.93,
            l1_bytes=gemm_l1_bytes, global_bytes=gemm_global,
            compulsory_bytes=gemm_compulsory,
            sim_compulsory_bytes=sim_compulsory,
            stream=lambda: _gemm_stream(sm, sn, sk, line),
        ),
        KernelProfile(
            name="relu_nn", kind="neural",
            flops=relu_flops, warp_insts=relu_insts, fp_inst_share=0.50,
            l1_bytes=relu_l1_bytes, global_bytes=relu_l1_bytes,
            compulsory_bytes=relu_compulsory,
            sim_compulsory_bytes=relu_sim_compulsory,
            stream=lambda: _relu_stream(relu_sim, line),
            warm=lambda: np.arange(relu_sim // epl, dtype=np.int64),
            fused_epilogue=True,
        ),
        KernelProfile(
            name="vectorized_elem", kind="symbolic",
            flops=vec_flops, warp_insts=vec_insts, fp_inst_share=0.60,
            l1_bytes=vec_l1_bytes, global_bytes=vec_l1_bytes,
            compulsory_bytes=vec_compulsory,
            sim_compulsory_bytes=vec_sim_compulsory,
            stream=lambda: _vectorized_elem_stream(vec_sim, table_elems, line),
        ),
        KernelProfile(
            name="elementwise", kind="symbolic",
            flops=ew_flops, warp_insts=ew_insts, fp_inst_share=0.50,
            l1_bytes=ew_l1_bytes, global_bytes=ew_l1_bytes,
            compulsory_bytes=ew_compulsory,
            sim_compulsory_bytes=ew_sim_compulsory,
            stream=lambda: _elementwise_stream(ew_sim, line),
        ),
    )


# ---------------------------------------------------------------------------
# counter synthesis
# ---------------------------------------------------------------------------

def _per_core_l1(device: DeviceSpec) -> CacheSpec:
    """One SM's private L1 slice (cross-SM reuse only hits in L2)."""
    slice_size = max(device.l1.line_size * device.l1.associativity,
                     device.l1.size // device.num_cores)
    # round down to a valid geometry
    unit = device.l1.line_size * device.l1.associativity
    slice_size = (slice_size // unit) * unit
    return CacheSpec(size=slice_size, line_size=device.l1.line_size,
                     associativity=device.l1.associativity,
                     bandwidth=device.l1.bandwidth)


def pipe_counters(name: str, kind: str, device: DeviceSpec, *,
                  warp_insts: float, flops: float, fp_share: float,
                  l1_bytes: float, l2_bytes: float, dram_bytes: float,
                  l1_hit_rate_pct: float, l2_hit_rate_pct: float,
                  overhead: float = 0.0, fused_epilogue: bool = False
                  ) -> Optional[Tuple[KernelCounters, float]]:
    """The analytic pipe-timing model: counters and elapsed seconds.

    Elapsed time is the slowest pipe (instruction issue, FMA, L1, L2,
    DRAM, with sustained-efficiency deratings) plus ``overhead``;
    the throughput counters are pipe-time over elapsed-time ratios,
    and ALU utilization is compute throughput weighted by
    ``fp_share``.  ``fused_epilogue`` models a kernel that runs fused
    with its producer (see the module docstring).  ``None`` when the
    elapsed time is not positive.
    """
    issue_bw = device.num_cores * _SCHEDULERS_PER_CORE * device.clock_hz
    t_issue_ideal = warp_insts / issue_bw
    t_fma_ideal = flops / device.peak_flops
    t_fma = t_fma_ideal / _FMA_SUSTAIN
    t_l1 = l1_bytes / device.l1.bandwidth
    t_l2 = l2_bytes / device.l2.bandwidth
    t_dram = dram_bytes / (device.dram_bandwidth * _DRAM_SUSTAIN)
    t_total = max(t_issue_ideal, t_fma, t_l1, t_l2, t_dram) + overhead
    if t_total <= 0.0:
        return None

    if fused_epilogue:
        # SM activity inherited from the producing kernel's pipeline,
        # derated by any DRAM stall this kernel itself exposes
        exposed = max(0.0, t_dram - max(t_issue_ideal, t_fma, t_l1, t_l2))
        compute_pct = 95.0 * (1.0 - exposed / t_total)
    else:
        compute_pct = 100.0 * max(t_issue_ideal, t_fma_ideal) / t_total
    counters = KernelCounters(
        name=name,
        kind=kind,
        compute_throughput_pct=min(100.0, compute_pct),
        alu_utilization_pct=min(100.0, fp_share * compute_pct),
        l1_throughput_pct=min(100.0, 100.0 * t_l1 / t_total),
        l2_throughput_pct=min(100.0, 100.0 * t_l2 / t_total),
        l1_hit_rate_pct=l1_hit_rate_pct,
        l2_hit_rate_pct=l2_hit_rate_pct,
        dram_bw_utilization_pct=min(
            100.0, 100.0 * (dram_bytes / device.dram_bandwidth) / t_total),
    )
    return counters, t_total


def simulate_kernel(profile: KernelProfile,
                    device: DeviceSpec) -> KernelCounters:
    """Replay the kernel's stream through the cache hierarchy and apply
    the analytic pipe-timing model; returns one Table IV column."""
    hierarchy = CacheHierarchy(_per_core_l1(device), device.l2)
    if profile.warm is not None:
        hierarchy.warm(profile.warm())
    addrs, writes = profile.stream()
    hierarchy.replay(addrs, writes)
    stats = hierarchy.stats()

    # scale simulated per-level traffic up to the full problem size:
    # L2 keeps the simulated L2:global traffic ratio; DRAM scales by the
    # ratio of full-size to simulated compulsory traffic (with the
    # full-size compulsory traffic as a floor)
    dram_scale = (profile.compulsory_bytes
                  / max(profile.sim_compulsory_bytes, 1.0))
    l2_bytes = profile.global_bytes * (stats.l2_bytes / max(stats.l1_bytes, 1))
    dram_bytes = max(stats.dram_bytes * dram_scale, profile.compulsory_bytes)

    modeled = pipe_counters(
        profile.name, profile.kind, device,
        warp_insts=profile.warp_insts, flops=profile.flops,
        fp_share=profile.fp_inst_share, l1_bytes=profile.l1_bytes,
        l2_bytes=l2_bytes, dram_bytes=dram_bytes,
        l1_hit_rate_pct=100.0 * stats.l1.hit_rate,
        l2_hit_rate_pct=100.0 * stats.l2.hit_rate,
        fused_epilogue=profile.fused_epilogue)
    if modeled is None:
        raise ValueError(f"kernel {profile.name!r} models no work")
    return modeled[0]
