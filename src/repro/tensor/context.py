"""Profiling context for the instrumented tensor runtime.

A :class:`ProfileContext` collects :class:`~repro.core.profiler.TraceEvent`
objects while workload code executes.  Usage::

    from repro import tensor as T

    with T.profile("nvsa") as prof:
        with T.phase("neural"):
            ...                      # ops recorded as neural
        with T.phase("symbolic"), T.stage("rule_detection"):
            ...                      # ops recorded as symbolic
    trace = prof.trace

Ops executed outside any active context still compute but skip all
bookkeeping, so library code is usable unprofiled.

Live-memory tracking: every tensor allocated under an active context
adds its byte size to a live counter and keeps the release, the
contexts it credited and its byte count, in a slot of its own
(:class:`Tracked`); its ``__del__`` subtracts the bytes again when it
is freed, whether its last reference goes or the cycle collector
finds it.  A copy or an unpickled tensor is untracked, as an array
made outside a profile is.  Each event snapshots the counter, which
powers the Fig. 3b memory analysis.  Allocation and free deltas
propagate up the whole context stack: an outer ``profile()`` wrapping
an inner one sees the inner run's allocations in its own
``live_bytes``/``peak_live_bytes``, so nested profiling never
under-reports memory.

Runtime metrics are not collected here: the closed trace is the
record, and :func:`repro.obs.metrics.fold_trace` folds it when asked
for.

Span tracing: entering a :class:`ProfileContext` opens a root
``profile:<workload>`` span and installs the trace as a span
collector; ``phase()`` and ``stage()`` open child spans.  The
resulting span tree lands on ``trace.spans`` and gives exporters
(:mod:`repro.obs`) a hierarchical timeline above the flat op list.

Per-thread dispatch state: the profiling-context stack, the fault-hook
stack, the op-observer stack and the plan-session stack of a thread
live in one :class:`DispatchState`, whose attributes mirror each
stack's top, so the dispatcher reads all four with one thread-local
lookup per op.  It also holds the thread's stack of open spans
(:func:`repro.obs.spans.open_spans`), so the span an op belongs to is
one attribute read away.

Fault hooks: a hook (in practice a
:class:`repro.resilience.faults.FaultPlan`) is consulted by the
dispatcher once per recorded operation through its
``consider(name, phase, stage)`` method and may answer with an
injection — poisoned counters, simulated latency, an allocation
blowup, or a raised :class:`InjectedFaultError`.  The tensor layer
only defines the protocol; all fault policy lives in
:mod:`repro.resilience`.

Op observers: *op observers* are objects with an
``observe_op(event, inputs, output)`` method that the
dispatcher calls once per recorded tensor op, passing the freshly
recorded :class:`~repro.core.profiler.TraceEvent` together with the
raw input values and output array; observers must not mutate any of
the three.  Observers see what the trace cannot: dtypes and exact
input byte counts.  The fuzzing harvester (:mod:`repro.fuzz.harvest`)
is the canonical observer; install one with the :func:`op_observer`
context manager.

Plan sessions: :func:`repro.compile.executor.plan_session` pushes a
session; while it is open the dispatcher replays each op against the
event an earlier eager trace of the same workload recorded at its eid.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.profiler import Trace
from repro.obs import spans as _spans


class DispatchState:
    """What the dispatcher consults on every op, for one thread.

    The innermost profiling context, fault hook, op observer and plan
    session (``None`` when absent) are kept as plain attributes, so the
    dispatcher reads them all through one thread-local lookup per op.
    Each slot is a stack: :meth:`push` and :meth:`pop` keep the
    attribute equal to its top.  Outside this module they may only be
    called from ``__enter__``/``__exit__`` pairs or ``@contextmanager``
    functions (lint check RL005): an unbalanced stack re-routes every
    later op of the thread.
    """

    __slots__ = ("context", "fault_hook", "observer", "session", "spans",
                 "_stacks")

    def __init__(self) -> None:
        self.context: Optional[ProfileContext] = None
        self.fault_hook: Optional[object] = None
        self.observer: Optional[object] = None
        #: a :class:`repro.compile.executor.PlanSession`; the dispatcher
        #: replays ops against it while it is open
        self.session: Optional[object] = None
        #: this thread's open spans, innermost last (read only here)
        self.spans: List[_spans.SpanRecord] = _spans.open_spans()
        self._stacks: Dict[str, List[object]] = {
            slot: [] for slot in ("context", "fault_hook", "observer",
                                  "session")}

    def push(self, slot: str, value: object) -> None:
        """Make ``value`` the innermost entry of ``slot``."""
        self._stacks[slot].append(value)
        setattr(self, slot, value)

    def pop(self, slot: str, value: object) -> None:
        """Remove ``value``; it must be the innermost entry of ``slot``."""
        stack = self._stacks[slot]
        if not stack or stack[-1] is not value:
            raise RuntimeError(f"{slot} entries exited out of order")
        stack.pop()
        setattr(self, slot, stack[-1] if stack else None)


class _ThreadLocal(threading.local):
    def __init__(self) -> None:
        self.dispatch = DispatchState()


#: ``thread_local.dispatch`` is the calling thread's :class:`DispatchState`.
thread_local = _ThreadLocal()


def active_context() -> Optional["ProfileContext"]:
    """The innermost active profiling context, or ``None``."""
    return thread_local.dispatch.context


class InjectedFaultError(RuntimeError):
    """An operation failure deliberately raised by an installed fault plan.

    ``transient`` mirrors the fault spec that produced it: transient
    faults model recoverable conditions (the resilient runner retries
    them), deterministic ones model reproducible bugs (it does not).
    """

    def __init__(self, message: str, *, op_name: str = "",
                 op_index: int = -1, transient: bool = False):
        super().__init__(message)
        self.op_name = op_name
        self.op_index = op_index
        self.transient = transient


def push_fault_hook(hook: object) -> None:
    """Install ``hook`` as the active fault hook for this thread."""
    thread_local.dispatch.push("fault_hook", hook)


def pop_fault_hook(hook: object) -> None:
    """Remove ``hook``; it must be the innermost installed hook."""
    thread_local.dispatch.pop("fault_hook", hook)


def push_op_observer(observer: object) -> None:
    """Install ``observer`` as the active op observer for this thread."""
    thread_local.dispatch.push("observer", observer)


def pop_op_observer(observer: object) -> None:
    """Remove ``observer``; it must be the innermost installed one."""
    thread_local.dispatch.pop("observer", observer)


@contextmanager
def op_observer(observer: object) -> Iterator[object]:
    """Install an op observer for the dynamic extent of the block."""
    push_op_observer(observer)
    try:
        yield observer
    finally:
        pop_op_observer(observer)


def _release(contexts: Tuple["ProfileContext", ...], nbytes: int) -> None:
    """Return freed bytes to every context that was credited."""
    for ctx in contexts:
        ctx.live_bytes -= nbytes


class Tracked:
    """An object whose bytes count as live while it exists.

    ``_live`` holds ``(contexts, nbytes)`` from
    :meth:`ProfileContext.track_allocation`, or ``None`` when nothing
    was credited; ``__del__`` gives the bytes back.  Subclasses must
    set ``_live`` when they are built and rebuild untracked copies in
    ``__reduce__``, so a copy's death never releases twice.
    """

    __slots__ = ()

    # the release is bound at definition: a tensor freed while the
    # interpreter shuts down may no longer see this module's globals
    def __del__(self, _release=_release) -> None:
        live = self._live
        if live is not None:
            _release(*live)


class ProfileContext:
    """Collects trace events and tracks phase/stage labels and live bytes."""

    def __init__(self, workload: str = ""):
        self.trace = Trace(workload)
        self.current_phase = ""
        self.current_stage = ""
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self._next_eid = 0
        #: while entered, this context and every enclosing one,
        #: innermost first: the contexts an allocation made under it is
        #: credited to.  Empty otherwise, so a finished context is in
        #: no reference cycle and its trace is freed with it.
        self._chain: Tuple["ProfileContext", ...] = ()
        self._span: Optional[object] = None

    # -- event bookkeeping ---------------------------------------------------
    def next_eid(self) -> int:
        eid = self._next_eid
        self._next_eid += 1
        return eid

    @property
    def pending_eid(self) -> int:
        """The eid the next recorded event will get."""
        return self._next_eid

    # -- live memory ---------------------------------------------------------
    def track_allocation(self, nbytes: int
                         ) -> Optional[Tuple[Tuple["ProfileContext", ...],
                                             int]]:
        """Count ``nbytes`` as live; returns the release for the
        allocation's ``_live`` slot (``None`` when nothing is counted).

        The delta is credited to this context *and* every enclosing
        one (the chain captured at ``__enter__``), so an outer
        ``profile()`` wrapping an inner one reports the true peak
        instead of only its directly attributed allocations.
        """
        if nbytes <= 0:
            return None
        chain = self._chain or (self,)
        for ctx in chain:
            ctx.live_bytes += nbytes
            if ctx.live_bytes > ctx.peak_live_bytes:
                ctx.peak_live_bytes = ctx.live_bytes
        return chain, nbytes

    # -- context-manager protocol ---------------------------------------------
    def __enter__(self) -> "ProfileContext":
        state = thread_local.dispatch
        outer = state.context
        self._chain = (self,) + (outer._chain if outer is not None else ())
        state.push("context", self)
        _spans.install_collector(self.trace.spans)
        self._span = _spans.push_span(
            "profile:" + (self.trace.workload or "untitled"),
            {"workload": self.trace.workload})
        return self

    def __exit__(self, *exc_info: object) -> None:
        thread_local.dispatch.pop("context", self)
        if self._span is not None:
            _spans.pop_span(self._span)
            self._span = None
        _spans.uninstall_collector(self.trace.spans)
        self._chain = ()


def profile(workload: str = "") -> ProfileContext:
    """Create a profiling context (use with ``with``)."""
    return ProfileContext(workload)


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Tag all ops in the block with phase ``name`` (neural/symbolic)."""
    ctx = active_context()
    if ctx is None:
        yield
        return
    prev = ctx.current_phase
    ctx.current_phase = name
    record = _spans.push_span("phase:" + name, {"phase": name})
    try:
        yield
    finally:
        _spans.pop_span(record)
        ctx.current_phase = prev


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Tag all ops in the block with fine-grained stage ``name``."""
    ctx = active_context()
    if ctx is None:
        yield
        return
    prev = ctx.current_stage
    ctx.current_stage = name
    record = _spans.push_span("stage:" + name, {"stage": name})
    try:
        yield
    finally:
        _spans.pop_span(record)
        ctx.current_stage = prev
