"""Nsight-Compute-style kernel statistics for real traces.

Table IV of the paper ties GPU performance counters (compute/ALU
utilization, L1/L2 throughput and hit rates, DRAM BW) to individual
neural vs. symbolic kernels — but :mod:`repro.hwsim.kernels` models
only four hand-picked NVSA archetypes.  This module generalizes that
counter synthesis to *every span of every workload*: it folds a span's
(or category's) attributed :class:`~repro.core.profiler.TraceEvent`
counters through the same analytic pipe-time model the archetypes use
(issue, FMA, L1, L2, DRAM pipes with sustained-efficiency deratings,
counters as pipe-time ratios) on any
:class:`~repro.hwsim.device.DeviceSpec`.

Where the archetypes replay a structurally-faithful address stream to
obtain hit rates, real trace events carry only aggregate footprints,
so hit rates here come from a two-term locality model per operator
category:

* **line reuse** — short-window temporal reuse that survives streaming
  (the read-miss/read-miss/write-hit 1/3 law of an in-place binary op);
* **capacity reuse** — reuse that needs the working set resident,
  scaled by ``min(1, capacity / working_set)`` at each cache level
  (one SM's L1 slice, then the shared L2).

The per-category mix table (:data:`CATEGORY_MIX`) is keyed by the
``OpCategory`` *value strings* so the RL002 lint check can statically
verify it stays in lockstep with :data:`repro.core.taxonomy.OP_CATEGORIES`.

Counter semantics approximate (not equal) Nsight Compute's, exactly as
:mod:`repro.hwsim.kernels` documents; :func:`archetype_kstats` exposes
the four Table IV archetypes through the same result type so the two
paths stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import CATEGORY_ORDER, OpCategory
from repro.hwsim import kernels as _kernels
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.hwsim.kernels import KernelCounters
from repro.hwsim.roofline import RooflinePoint
from repro.obs.spans import SpanRecord

#: warp width assumed by the instruction-count estimates
_WARP = 32.0
#: hit rates are capped here — even perfectly resident working sets
#: pay compulsory misses
_MAX_HIT = 0.98


@dataclass(frozen=True)
class CategoryMix:
    """Instruction mix and cache-locality model of one operator category.

    ``insts_per_flop`` / ``insts_per_word`` estimate the scalar
    instruction stream from the event's FLOP and 4-byte-word traffic
    counts (an FMA-dominated GEMM issues ~0.55 insts/FLOP; a streaming
    in-place add issues ~1 inst/FLOP plus ~0.67 insts/word for
    loads/stores and addressing).  ``l1_amplification`` is
    L1-*structure* traffic per global byte (register-tile loads on a
    tiled GEMM pass through the L1/shared-memory structure ~8x).
    ``*_line_reuse`` / ``*_capacity_reuse`` parameterize the two-term
    hit-rate model described in the module docstring.
    """

    kind: str                 # "neural" | "symbolic" (Table IV contrast)
    insts_per_flop: float
    insts_per_word: float
    fp_inst_share: float
    l1_amplification: float
    l1_line_reuse: float
    l1_capacity_reuse: float
    l2_line_reuse: float
    l2_capacity_reuse: float


#: Per-category counter-synthesis model, keyed by ``OpCategory.value``
#: strings.  RL002 statically checks the keys resolve through
#: ``repro.core.taxonomy`` and cover every category (both directions).
CATEGORY_MIX: Dict[str, CategoryMix] = {
    "convolution": CategoryMix(
        kind="neural", insts_per_flop=0.62, insts_per_word=0.0,
        fp_inst_share=0.90, l1_amplification=6.0,
        l1_line_reuse=0.35, l1_capacity_reuse=0.50,
        l2_line_reuse=0.30, l2_capacity_reuse=0.60),
    "matmul": CategoryMix(
        kind="neural", insts_per_flop=0.55, insts_per_word=0.0,
        fp_inst_share=0.93, l1_amplification=8.0,
        l1_line_reuse=0.02, l1_capacity_reuse=0.30,
        l2_line_reuse=0.35, l2_capacity_reuse=0.55),
    "elementwise": CategoryMix(
        kind="symbolic", insts_per_flop=1.0, insts_per_word=0.67,
        fp_inst_share=0.50, l1_amplification=1.6,
        l1_line_reuse=0.33, l1_capacity_reuse=0.50,
        l2_line_reuse=0.33, l2_capacity_reuse=0.55),
    "transform": CategoryMix(
        kind="symbolic", insts_per_flop=0.50, insts_per_word=1.0,
        fp_inst_share=0.20, l1_amplification=2.0,
        l1_line_reuse=0.20, l1_capacity_reuse=0.45,
        l2_line_reuse=0.25, l2_capacity_reuse=0.50),
    "movement": CategoryMix(
        kind="symbolic", insts_per_flop=0.0, insts_per_word=0.80,
        fp_inst_share=0.05, l1_amplification=1.0,
        l1_line_reuse=0.0, l1_capacity_reuse=0.40,
        l2_line_reuse=0.20, l2_capacity_reuse=0.50),
    "other": CategoryMix(
        kind="symbolic", insts_per_flop=2.0, insts_per_word=1.5,
        fp_inst_share=0.30, l1_amplification=1.2,
        l1_line_reuse=0.30, l1_capacity_reuse=0.60,
        l2_line_reuse=0.30, l2_capacity_reuse=0.60),
}


@dataclass
class KernelStats:
    """One row of the generalized Table IV: a span or category group."""

    label: str
    kind: str                  # "neural" | "symbolic" | "mixed"
    events: int
    flops: float
    bytes: float               # global traffic (read + written)
    wall_time: float           # measured host seconds (context only)
    modeled_time: float        # analytic pipe-model seconds on the device
    counters: KernelCounters
    roofline: Optional[RooflinePoint] = None

    @property
    def bound(self) -> str:
        """Roofline verdict (``"compute"`` / ``"memory"`` / ``"n/a"``)."""
        return self.roofline.bound if self.roofline is not None else "n/a"


def _group_kind(events: Sequence[TraceEvent]) -> str:
    """Neural/symbolic kind of a group from its phase tags.

    Falls back to the dominant (by FLOPs) category's mix kind when
    the events are untagged; mixed-phase groups report ``"mixed"``.
    """
    phases = {e.phase for e in events if e.phase}
    if phases == {"neural"} or phases == {"symbolic"}:
        return next(iter(phases))
    if len(phases) > 1:
        return "mixed"
    flops_by_kind: Dict[str, float] = {}
    for event in events:
        kind = CATEGORY_MIX[event.category.value].kind
        flops_by_kind[kind] = flops_by_kind.get(kind, 0.0) \
            + max(event.flops, 1.0)
    return max(flops_by_kind, key=lambda k: flops_by_kind[k]) \
        if flops_by_kind else "symbolic"


def synthesize_kstats(label: str, events: Sequence[TraceEvent],
                      device: DeviceSpec = RTX_2080TI,
                      kind: Optional[str] = None) -> Optional[KernelStats]:
    """Fold ``events`` through the device model into one counter row.

    Returns ``None`` for empty groups.  The pipe-time model is
    :func:`repro.hwsim.kernels.pipe_counters`, the one
    :func:`~repro.hwsim.kernels.simulate_kernel` applies; hit rates
    come from the per-category locality model, traffic-weighted across
    the group's events.  Per-event kernel-launch overhead is added to
    the elapsed time, so a span of many tiny symbolic kernels shows
    the launch-bound idle ALUs the paper characterizes.
    """
    events = list(events)
    if not events:
        return None
    l1_slice = device.l1.size / max(device.num_cores, 1)

    flops = 0.0
    gbytes = 0.0
    warp_insts = 0.0
    fp_insts = 0.0
    l1_bytes = 0.0
    l2_bytes = 0.0
    dram_bytes = 0.0
    l1_hit_weighted = 0.0
    l2_hit_weighted = 0.0
    wall = 0.0
    for event in events:
        mix = CATEGORY_MIX[event.category.value]
        traffic = float(event.total_bytes)
        words = traffic / 4.0
        scalar_insts = (event.flops * mix.insts_per_flop
                        + words * mix.insts_per_word)
        warp_insts += scalar_insts / _WARP
        fp_insts += scalar_insts / _WARP * mix.fp_inst_share
        flops += event.flops
        gbytes += traffic
        wall += event.wall_time
        l1_bytes += traffic * mix.l1_amplification
        working_set = max(traffic, 1.0)
        l1_hit = min(_MAX_HIT, mix.l1_line_reuse
                     + mix.l1_capacity_reuse
                     * min(1.0, l1_slice / working_set))
        to_l2 = traffic * (1.0 - l1_hit)
        l2_hit = min(_MAX_HIT, mix.l2_line_reuse
                     + mix.l2_capacity_reuse
                     * min(1.0, device.l2.size / working_set))
        l1_hit_weighted += l1_hit * traffic
        l2_hit_weighted += l2_hit * to_l2
        l2_bytes += to_l2
        dram_bytes += to_l2 * (1.0 - l2_hit)

    modeled = _kernels.pipe_counters(
        label, kind if kind is not None else _group_kind(events), device,
        warp_insts=warp_insts, flops=flops,
        fp_share=fp_insts / warp_insts if warp_insts > 0 else 0.0,
        l1_bytes=l1_bytes, l2_bytes=l2_bytes, dram_bytes=dram_bytes,
        l1_hit_rate_pct=(100.0 * l1_hit_weighted / gbytes
                         if gbytes > 0 else 0.0),
        l2_hit_rate_pct=(100.0 * l2_hit_weighted / l2_bytes
                         if l2_bytes > 0 else 0.0),
        overhead=len(events) * device.kernel_launch_overhead)
    if modeled is None:
        return None
    counters, t_total = modeled

    roofline: Optional[RooflinePoint] = None
    if gbytes > 0 and flops > 0:
        oi = flops / gbytes
        roofline = RooflinePoint(
            label=label,
            operational_intensity=oi,
            achieved_flops=flops / t_total,
            attainable_flops=device.attainable_flops(oi),
            ridge=device.ridge_point)

    return KernelStats(
        label=label, kind=counters.kind, events=len(events),
        flops=flops, bytes=gbytes, wall_time=wall,
        modeled_time=t_total, counters=counters, roofline=roofline)


def kstats_by_span(trace: Trace,
                   device: DeviceSpec = RTX_2080TI) -> List[KernelStats]:
    """One counter row per span with directly attributed events.

    Spans are ordered by span id (start order); events dispatched
    outside any span (or loaded from pre-attribution archives) fold
    into a trailing ``<unattributed>`` row.  This is the Fig. 3c
    per-span view: each row carries its own
    :class:`~repro.hwsim.roofline.RooflinePoint` and memory- vs
    compute-bound verdict.
    """
    # each span's directly attributed events: one inside a child
    # span belongs to the child, not to every ancestor
    groups: Dict[Optional[int], List[TraceEvent]] = {}
    for event in trace:
        groups.setdefault(event.sid, []).append(event)
    spans = sorted((s for s in trace.spans
                    if isinstance(s, SpanRecord) and s.sid in groups),
                   key=lambda s: s.sid)
    out: List[KernelStats] = []
    for record in spans:
        stats = synthesize_kstats(f"{record.name}#{record.sid}",
                                  groups[record.sid], device)
        if stats is not None:
            out.append(stats)
    if None in groups:
        stats = synthesize_kstats("<unattributed>", groups[None], device)
        if stats is not None:
            out.append(stats)
    return out


def kstats_by_category(trace: Trace,
                       device: DeviceSpec = RTX_2080TI,
                       phase: Optional[str] = None) -> List[KernelStats]:
    """One counter row per operator category (Fig. 3a x Table IV).

    ``phase`` restricts the fold to one phase's events, so the
    neural/symbolic counter contrast can be read per category.
    """
    groups: Dict[OpCategory, List[TraceEvent]] = {}
    for event in trace:
        if phase is None or event.phase == phase:
            groups.setdefault(event.category, []).append(event)
    out: List[KernelStats] = []
    for category in CATEGORY_ORDER:
        stats = synthesize_kstats(
            category.value, groups.get(category, ()), device,
            kind=CATEGORY_MIX[category.value].kind)
        if stats is not None:
            out.append(stats)
    return out


def archetype_kstats(device: DeviceSpec = RTX_2080TI) -> List[KernelStats]:
    """The four NVSA Table IV archetypes as :class:`KernelStats`.

    Delegates to the address-stream-replay model
    (:func:`repro.hwsim.kernels.simulate_kernel`), so these counters
    are bit-identical to ``repro.core.inefficiency.analyze_inefficiency``
    — the bridge that keeps the generalized per-span path comparable
    with the paper's hand-modeled baseline.
    """
    out: List[KernelStats] = []
    for profile in _kernels.nvsa_table4_kernels(device):
        counters = _kernels.simulate_kernel(profile, device)
        oi = profile.flops / max(profile.compulsory_bytes, 1.0)
        point = RooflinePoint(
            label=profile.name,
            operational_intensity=oi,
            achieved_flops=device.attainable_flops(oi),
            attainable_flops=device.attainable_flops(oi),
            ridge=device.ridge_point)
        out.append(KernelStats(
            label=profile.name, kind=profile.kind, events=1,
            flops=profile.flops, bytes=profile.global_bytes,
            wall_time=0.0, modeled_time=0.0, counters=counters,
            roofline=point))
    return out


def render_kstats(stats: Iterable[KernelStats],
                  title: str = "") -> str:
    """Text matrix in Table IV layout: counter rows x group columns."""
    from repro.core.report import render_table
    stats = list(stats)
    if not stats:
        return "(no kernel statistics: empty trace)"
    counter_rows = list(stats[0].counters.as_dict())
    rows = []
    for row_label in counter_rows:
        rows.append([row_label]
                    + [f"{s.counters.as_dict()[row_label]:.1f}"
                       for s in stats])
    rows.append(["bound (roofline)"] + [s.bound for s in stats])
    return render_table(["counter"] + [s.label for s in stats], rows,
                        title=title or "kernel statistics")
