"""Self-profiling ledger: where per-op dispatch time actually goes.

The paper's central finding is that neuro-symbolic workloads lose
time to *framework overhead*, not raw FLOPs.  This suite's dispatcher
(:func:`repro.tensor.dispatch.run_op`) is itself a framework: every
op pays for taxonomy lookup, input splitting, fault-hook
consultation, counter recording, and span/observer bookkeeping — on
top of the numpy kernel.  The ledger measures that overhead.

When :data:`ENABLED` is on (off by default; use
:func:`scoped_ledger`), the dispatcher brackets each named component
with paired ``time.perf_counter_ns`` probes and feeds the
integer-ns deltas into the active :class:`DispatchLedger`.  Probes are
placed at *segment boundaries*, so the component times of one op
telescope — they tile the op's instrumented wall time exactly, by
construction (asserted in ``tests/test_selfprof.py``).  When the flag
is off each probe point costs one ``None`` test; the traced events are
bit-identical either way (same counters digest).  Replays
(:mod:`repro.compile`) go through the same probes.

The ledger rolls up per **operator category**, in two views:

* ``deterministic`` — per-category op counts, bit-identical across
  two seeded runs;
* ``measured`` — the probe-accumulated ns and the measured share of
  dispatch time that is overhead, machine-dependent; the per-layer
  benchmark (``benchmarks/perf``) and
  ``benchmarks/bench_dispatch_overhead.py`` read it.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "COMPONENTS", "DispatchLedger", "ENABLED",
    "scoped_ledger", "active_ledger",
]

#: Dispatch components in probe order.  ``kernel`` is the numpy
#: compute itself; everything else is dispatch overhead a replay
#: could amortize or eliminate.
COMPONENTS: Tuple[str, ...] = (
    "taxonomy",   # thread-state read + category_for() (replay: step check)
    "inputs",     # _split_inputs: coercion, byte counts, parent eids
    "fault",      # fault-hook consultation
    "kernel",     # the numpy kernel (compute(*arrays) + asarray)
    "counters",   # flops/bytes/sparsity (replay: captured) + injection
    "span",       # eid allocation + innermost-sid lookup
    "record",     # allocation tracking + TraceEvent + ctx.record
    "observer",   # op-observer notification (repro.fuzz harvest)
)

#: Ops a ledger queues before the recording thread folds them in.
#: Each queued op holds two collector-tracked objects (its tuple and
#: parts dict); 2 x 256 stays under the collector's first-generation
#: threshold (700), so queueing triggers no garbage collections.
_FOLD_BACKLOG = 256


class DispatchLedger:
    """Per-category attribution of dispatch wall time into components.

    Thread-safe: serve worker threads dispatching concurrently feed
    one ledger.  All accumulators are integer nanoseconds.  Recording
    only queues the op; the queue is folded into the totals in batches,
    by a reader or once :data:`_FOLD_BACKLOG` ops are waiting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: category -> component -> accumulated ns
        self._ns: Dict[str, Dict[str, int]] = {}
        #: category -> op count
        self._ops: Dict[str, int] = {}
        #: (category, parts) of ops not yet folded; deque appends and
        #: pops are atomic, so recording takes no lock
        self._pending: Deque[Tuple[str, Dict[str, int]]] = deque()

    # -- recording (dispatcher-facing) ----------------------------------------
    def record(self, category: str, parts: Dict[str, int]) -> None:
        """Queue one op's component-ns map for folding into the ledger."""
        pending = self._pending
        pending.append((category, parts))
        if len(pending) >= _FOLD_BACKLOG:
            with self._lock:
                self._fold()

    def _fold(self) -> None:
        """Fold the queued ops into the totals; caller holds the lock.

        Ops are grouped by category and component keys, so each group
        is summed column by column instead of op by op.
        """
        pending = self._pending
        groups: Dict[Tuple[str, Tuple[str, ...]], List[Dict[str, int]]] = {}
        for _ in range(len(pending)):
            category, parts = pending.popleft()
            groups.setdefault((category, tuple(parts)), []).append(parts)
        for (category, components), rows in groups.items():
            self._ops[category] = self._ops.get(category, 0) + len(rows)
            bucket = self._ns.setdefault(category, {})
            columns = zip(*map(dict.values, rows))
            for component, column in zip(components, columns):
                bucket[component] = bucket.get(component, 0) + sum(column)

    # -- totals ---------------------------------------------------------------
    @property
    def ops(self) -> int:
        return sum(self.ops_by_category().values())

    def ops_by_category(self) -> Dict[str, int]:
        with self._lock:
            self._fold()
            return dict(self._ops)

    def component_ns(self, category: Optional[str] = None) -> Dict[str, int]:
        """Accumulated ns per component (one category, or all)."""
        with self._lock:
            self._fold()
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

    # -- serialization --------------------------------------------------------
    def deterministic_dict(self) -> Dict[str, object]:
        """Op counts per category: bit-identical across seeded runs."""
        ops = self.ops_by_category()
        return {
            "ops": sum(ops.values()),
            "ops_by_category": {k: ops[k] for k in sorted(ops)},
        }

    def measured_dict(self) -> Dict[str, object]:
        """The probe-accumulated, machine-dependent view."""
        with self._lock:
            self._fold()
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

    # -- rendering ------------------------------------------------------------
    def render(self) -> str:
        """Text rollup: per-category component shares, measured."""
        from repro.core.report import render_table  # deferred (cycle)
        ops = self.ops_by_category()
        totals = self.component_ns()
        total = max(self.total_ns, 1)
        rows: List[List[object]] = []
        for category in sorted(ops):
            bucket = self.component_ns(category)
            cat_total = max(sum(bucket.values()), 1)
            cat_overhead = sum(ns for c, ns in bucket.items()
                               if c != "kernel")
            rows.append([
                category, ops[category],
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
            f"overhead {100.0 * self.measured_headroom:.1f}%")
        return table + summary


# ---------------------------------------------------------------------------
# process-wide enable state: at most one installed ledger at a time
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
