"""Self-profiling ledger: where per-op dispatch time actually goes.

The paper's central finding is that neuro-symbolic workloads lose
time to *framework overhead*, not raw FLOPs.  This suite's dispatcher
(:func:`repro.tensor.dispatch.run_op`) is itself a framework: every
op pays for taxonomy lookup, input splitting, fault-hook
consultation, counter recording, span/observer bookkeeping, and
metrics — on top of the numpy kernel.  Before the compiled execution
tier (ROADMAP item 1) can claim to eliminate that overhead, we have
to be able to *measure* it.

When :data:`ENABLED` is on (off by default; use
:func:`scoped_ledger`), the dispatcher brackets each named component
with paired :func:`repro.obs.clock.perf_ns` probes and feeds the
integer-ns deltas into the active :class:`DispatchLedger`.  Probes are
placed at *segment boundaries*, so the component times of one op
telescope — they tile the op's instrumented wall time exactly, by
construction (asserted in ``tests/test_selfprof.py``).  When the flag
is off each probe point costs one ``None`` test; the traced events are
bit-identical either way (same counters digest).  Compiled replays
(:mod:`repro.compile`) go through the same probes.

The ledger rolls up per **operator category** and exposes the
**compiled-tier headroom** estimate: the fraction of projected
workload latency a plan that eliminated per-op dispatch overhead
could reclaim.  Two splits are maintained, in
the same deterministic/measured discipline as
:class:`repro.serve.stats.ServerStats`:

* ``deterministic`` — per-category op counts and the *modeled*
  overhead (op count x :data:`MODELED_COMPONENT_NS`), bit-identical
  across two seeded runs and therefore gateable by
  :mod:`repro.obs.history`;
* ``measured`` — the probe-accumulated ns, machine-dependent,
  reported for context and benched in
  ``benchmarks/bench_dispatch_overhead.py``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "COMPONENTS", "OVERHEAD_COMPONENTS", "MODELED_COMPONENT_NS",
    "MODELED_OVERHEAD_NS_PER_OP", "DispatchLedger", "ENABLED",
    "scoped_ledger", "active_ledger",
]

#: Dispatch components in probe order.  ``kernel`` is the numpy
#: compute itself; everything else is dispatch overhead a compiled
#: plan could amortize or eliminate.
COMPONENTS: Tuple[str, ...] = (
    "taxonomy",   # thread-state read + category_for() (replay: step check)
    "inputs",     # _split_inputs: coercion, byte counts, parent eids
    "fault",      # fault-hook consultation
    "kernel",     # the numpy kernel (compute(*arrays) + asarray)
    "counters",   # flops/bytes/sparsity (replay: captured) + injection
    "span",       # eid allocation + innermost-sid lookup
    "record",     # allocation tracking + TraceEvent + ctx.record
    "observer",   # op-observer notification (repro.fuzz harvest)
    "metrics",    # metrics-registry branch (observe_op when enabled)
)

#: Dispatch overhead: every component except the kernel itself.
OVERHEAD_COMPONENTS: Tuple[str, ...] = tuple(
    c for c in COMPONENTS if c != "kernel")

#: Canonical per-component dispatch cost model, in nanoseconds per op.
#: Calibrated once from the measured ledger on the reference machine
#: (CPython 3.11, x86-64; see benchmarks/bench_dispatch_overhead.py —
#: measured values are re-reported there on every run so drift in the
#: calibration is visible).  The *model* is deliberately frozen: it
#: makes modeled overhead and headroom projections pure functions of
#: the op stream, so two seeded runs agree bit-for-bit and the history
#: gate can hold a hard line on them.
MODELED_COMPONENT_NS: Dict[str, int] = {
    "taxonomy": 150,
    "inputs": 450,
    "fault": 120,
    "counters": 400,
    "span": 150,
    "record": 600,
    "observer": 60,
    "metrics": 70,
}

#: Modeled dispatch overhead of one eager op, ns (sum of the model).
MODELED_OVERHEAD_NS_PER_OP: int = sum(MODELED_COMPONENT_NS.values())


class DispatchLedger:
    """Per-category attribution of dispatch wall time into components.

    Thread-safe: serve worker threads dispatching concurrently feed
    one ledger.  All accumulators are integer nanoseconds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: category -> component -> accumulated ns
        self._ns: Dict[str, Dict[str, int]] = {}
        #: category -> op count
        self._ops: Dict[str, int] = {}

    # -- recording (dispatcher-facing) ----------------------------------------
    def record(self, category: str, parts: Dict[str, int]) -> None:
        """Fold one op's component-ns map into the ledger."""
        with self._lock:
            self._ops[category] = self._ops.get(category, 0) + 1
            bucket = self._ns.setdefault(category, {})
            for component, ns in parts.items():
                bucket[component] = bucket.get(component, 0) + ns

    # -- totals ---------------------------------------------------------------
    @property
    def ops(self) -> int:
        with self._lock:
            return sum(self._ops.values())

    def ops_by_category(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._ops)

    def component_ns(self, category: Optional[str] = None) -> Dict[str, int]:
        """Accumulated ns per component (one category, or all)."""
        with self._lock:
            if category is not None:
                return dict(self._ns.get(category, {}))
            out: Dict[str, int] = {}
            for bucket in self._ns.values():
                for component, ns in bucket.items():
                    out[component] = out.get(component, 0) + ns
            return out

    @property
    def total_ns(self) -> int:
        return sum(self.component_ns().values())

    @property
    def kernel_ns(self) -> int:
        return self.component_ns().get("kernel", 0)

    @property
    def overhead_ns(self) -> int:
        totals = self.component_ns()
        return sum(ns for component, ns in totals.items()
                   if component != "kernel")

    @property
    def measured_headroom(self) -> float:
        """Measured fraction of dispatch wall time that is overhead."""
        total = self.total_ns
        return self.overhead_ns / total if total else 0.0

    # -- deterministic model --------------------------------------------------
    def modeled_overhead_ns(self) -> int:
        """Modeled dispatch overhead of the whole run (deterministic)."""
        return self.ops * MODELED_OVERHEAD_NS_PER_OP

    def modeled_headroom(self, projected_kernel_s: float) -> float:
        """Compiled-tier headroom against an analytic kernel latency.

        ``projected_kernel_s`` is the device-model projection of the
        kernel work itself (e.g. ``latency_breakdown(...).total_time``)
        — deterministic per seed — so the returned fraction is too:
        ``overhead / (overhead + kernel)``, the share of end-to-end
        time a compiled plan that eliminates per-op dispatch could
        reclaim on a host whose dispatch costs match the model.
        """
        overhead_s = self.modeled_overhead_ns() * 1e-9
        denominator = overhead_s + max(projected_kernel_s, 0.0)
        return overhead_s / denominator if denominator else 0.0

    # -- serialization --------------------------------------------------------
    def deterministic_dict(self) -> Dict[str, object]:
        """The gateable, bit-identical-across-seeded-runs view."""
        ops = self.ops_by_category()
        return {
            "ops": sum(ops.values()),
            "ops_by_category": {k: ops[k] for k in sorted(ops)},
            "modeled_component_ns": dict(
                sorted(MODELED_COMPONENT_NS.items())),
            "modeled_overhead_ns_per_op": MODELED_OVERHEAD_NS_PER_OP,
            "modeled_overhead_ns": self.modeled_overhead_ns(),
        }

    def measured_dict(self) -> Dict[str, object]:
        """The probe-accumulated, machine-dependent view."""
        with self._lock:
            per_category = {
                category: {c: bucket.get(c, 0) for c in COMPONENTS
                           if c in bucket}
                for category, bucket in sorted(self._ns.items())}
        return {
            "component_ns": {c: ns for c, ns in sorted(
                self.component_ns().items())},
            "per_category_ns": per_category,
            "total_ns": self.total_ns,
            "overhead_ns": self.overhead_ns,
            "kernel_ns": self.kernel_ns,
            "measured_headroom": self.measured_headroom,
        }

    def to_dict(self) -> Dict[str, object]:
        return {"deterministic": self.deterministic_dict(),
                "measured": self.measured_dict()}

    def digest(self) -> str:
        """sha256 over the deterministic view (history/baseline key)."""
        canonical = json.dumps(self.deterministic_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- rendering ------------------------------------------------------------
    def render(self) -> str:
        """Text rollup: per-category component shares + headroom."""
        from repro.core.report import render_table  # deferred (cycle)
        totals = self.component_ns()
        total = max(self.total_ns, 1)
        rows: List[List[object]] = []
        for category in sorted(self._ns):
            bucket = self.component_ns(category)
            cat_total = max(sum(bucket.values()), 1)
            cat_overhead = sum(ns for c, ns in bucket.items()
                               if c != "kernel")
            rows.append([
                category, self._ops.get(category, 0),
                f"{cat_total / 1e6:.3f}",
                f"{100.0 * cat_overhead / cat_total:.1f}%",
                " ".join(f"{c}={100.0 * bucket.get(c, 0) / cat_total:.0f}%"
                         for c in COMPONENTS if bucket.get(c, 0)),
            ])
        table = render_table(
            ["category", "ops", "wall ms", "overhead", "components"],
            rows, title="dispatch-overhead ledger")
        summary = (
            f"\ntotal {total / 1e6:.3f} ms over {self.ops} ops: "
            f"kernel {100.0 * totals.get('kernel', 0) / total:.1f}%, "
            f"overhead {100.0 * self.measured_headroom:.1f}% measured "
            f"({self.modeled_overhead_ns() / 1e6:.3f} ms modeled at "
            f"{MODELED_OVERHEAD_NS_PER_OP} ns/op)")
        return table + summary


# ---------------------------------------------------------------------------
# process-wide enable state (mirrors repro.obs.metrics)
# ---------------------------------------------------------------------------

#: Hot-path flag: the dispatcher reads this once per op and takes the
#: instrumented path only when true.  Do not write directly — use
#: :func:`scoped_ledger`.
ENABLED = False

_state_lock = threading.Lock()
_active: Optional[DispatchLedger] = None


def active_ledger() -> Optional[DispatchLedger]:
    """The installed ledger, or ``None`` when self-profiling is off."""
    return _active


@contextmanager
def scoped_ledger() -> Iterator[DispatchLedger]:
    """Enable self-profiling for a block; yields the fresh ledger.

    Scopes do not nest: the dispatcher feeds exactly one ledger, so a
    nested scope would silently steal the outer scope's ops.
    """
    global ENABLED, _active
    ledger = DispatchLedger()
    with _state_lock:
        if _active is not None:
            raise RuntimeError("self-profiling scopes do not nest")
        _active = ledger
        ENABLED = True
    try:
        yield ledger
    finally:
        with _state_lock:
            _active = None
            ENABLED = False
