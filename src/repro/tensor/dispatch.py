"""Op dispatch: compute with numpy, record a trace event.

Every public op in :mod:`repro.tensor.ops` funnels through
:func:`run_op`.  The dispatcher

1. coerces inputs, collecting byte counts and producer event ids,
2. times the numpy kernel,
3. computes FLOPs (explicit or ``flop_factor * output.size``),
4. measures output sparsity,
5. emits a :class:`~repro.core.profiler.TraceEvent` into the active
   profiling context (if any), and
6. returns a :class:`~repro.tensor.tensor.Tensor` whose ``producer``
   points at the new event.

An op's category is its name's entry in
:data:`repro.core.taxonomy.OP_CATEGORIES`, looked up once per name.

There is also :func:`record_region` for control-flow-heavy symbolic
code (rule search loops, theorem-prover traversals) that does not map
onto a single tensor kernel: it wraps a Python block, measures its wall
time, and records one aggregate event in the paper's "Others" operator
category, which captures fuzzy-logic and logic-rule work.

Both entry points build their event in one place (:func:`_record`)
and read the thread's context, fault hook, observer and plan session
from one :class:`~repro.tensor.context.DispatchState`.  Replay
and self-profiling are branches of :func:`run_op`, not separate paths.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from time import perf_counter_ns as _perf_ns
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.profiler import TraceEvent
from repro.core.taxonomy import OpCategory, category_for
from repro.obs import selfprof as _selfprof
from repro.obs.spans import now as _now
from repro.tensor.context import (DispatchState, InjectedFaultError,
                                  ProfileContext)
from repro.tensor.context import thread_local as _thread_local
from repro.tensor.tensor import Tensor

#: Arrays larger than this skip sparsity measurement (keeps dispatch cheap).
_SPARSITY_MEASURE_LIMIT = 1 << 26

#: float32/float64 outputs of at least this many elements are counted
#: as ``count_nonzero(arr != 0)``: a vectorized compare and a bool
#: count beat ``count_nonzero``'s per-element truth test from about 2K
#: elements (one Xeon core: 16K float32 17 -> 5 µs), and lose below.
#: Both count the same elements (NaN and ±inf are nonzero, ±0.0 are
#: zero), so the sparsity is the same float.  float16 compares are not
#: vectorized and bool and integer arrays are counted fastest as they
#: are; those keep the plain count.
_SPARSITY_COMPARE_MIN = 2048
_SPARSITY_COMPARE_DTYPES = frozenset((np.dtype(np.float32),
                                      np.dtype(np.float64)))

InputLike = Union[Tensor, np.ndarray, float, int, bool]

#: op name -> its registry category, filled by the first traced op of
#: each name (the registry is constant, so an entry never goes stale).
#: A hit is one dict lookup; ``category_for`` takes about 0.2 µs for an
#: exact name and 9 µs for a ``to_*`` wildcard one (one Xeon core).
_CATEGORIES: Dict[str, OpCategory] = {}


def _current_sid(state: DispatchState) -> Optional[int]:
    """Span id of the thread's innermost open span, ``None`` untraced."""
    spans = state.spans
    return spans[-1].sid if spans else None


def _split_inputs(inputs: Sequence[InputLike]) -> Tuple[List[np.ndarray], int,
                                                        Tuple[Tuple[int, ...], ...],
                                                        Tuple[int, ...]]:
    """Separate raw arrays, byte counts, shapes, and producer eids."""
    arrays: List[np.ndarray] = []
    bytes_read = 0
    shapes: List[Tuple[int, ...]] = []
    parents: List[int] = []
    for value in inputs:
        if isinstance(value, Tensor):
            arrays.append(value.data)
            bytes_read += value.data.nbytes
            shapes.append(value.data.shape)
            if value.producer is not None:
                parents.append(value.producer)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
            bytes_read += value.nbytes
            shapes.append(value.shape)
        else:  # python scalar
            arrays.append(value)  # type: ignore[arg-type]
            bytes_read += 8
            shapes.append(())
    return arrays, bytes_read, tuple(shapes), tuple(parents)


def _consider_fault(hook: object, ctx: Optional[ProfileContext],
                    name: str) -> Optional[object]:
    """Ask the fault hook about this op; raise if it says so.

    Returns the injection object (or ``None``) so the caller can apply
    the non-raising effects: counter poisoning, simulated latency, and
    allocation blowups.
    """
    phase = ctx.current_phase if ctx is not None else ""
    stage = ctx.current_stage if ctx is not None else ""
    injection = hook.consider(name, phase, stage)
    if injection is None:
        return None
    if getattr(injection, "raises", False):
        raise InjectedFaultError(
            f"injected fault in op {name!r} "
            f"(index {getattr(injection, 'op_index', -1)})",
            op_name=name,
            op_index=getattr(injection, "op_index", -1),
            transient=getattr(injection, "transient", False))
    return injection


def _poison_array(arr: np.ndarray, value: float) -> np.ndarray:
    """Corrupt one element of a float array with ``value`` (NaN/Inf).

    Integer and boolean outputs cannot hold non-finite values; they are
    returned untouched (the recorded counters are still poisoned, which
    is what the health checks observe).
    """
    if arr.size == 0 or not np.issubdtype(arr.dtype, np.floating):
        return arr
    poisoned = arr.copy()
    poisoned.flat[0] = value
    return poisoned


def _apply_injection(injection: Optional[object],
                     elapsed: float) -> Tuple[float, Optional[float], int]:
    """Resolve an injection into (elapsed, poison value, extra live bytes).

    A *blocking* latency fault really sleeps (so wall-clock timeouts can
    be exercised); a plain one only inflates the recorded wall time.
    """
    if injection is None:
        return elapsed, None, 0
    extra = float(getattr(injection, "extra_latency", 0.0))
    if extra > 0.0:
        if getattr(injection, "blocking", False):
            time.sleep(extra)
        elapsed += extra
    poison = getattr(injection, "poison", None)
    extra_live = int(getattr(injection, "extra_live_bytes", 0))
    return elapsed, poison, extra_live


def _measure_sparsity(arr: np.ndarray) -> float:
    """Fraction of exactly-zero elements of an op's output."""
    size = arr.size
    if size == 0 or size > _SPARSITY_MEASURE_LIMIT:
        return 0.0
    if arr.dtype == object:  # pragma: no cover - defensive
        return 0.0
    if size >= _SPARSITY_COMPARE_MIN and \
            arr.dtype in _SPARSITY_COMPARE_DTYPES:
        return 1.0 - np.count_nonzero(arr != 0) / size
    return 1.0 - np.count_nonzero(arr) / size


def _live_bytes(state, ctx: ProfileContext, eid: int) -> int:
    """Live bytes after event ``eid`` of an event the caller records.

    Replayed ops skip allocation tracking, so under a plan session the
    context's count is stale and the plan's recorded value stands in.
    """
    if state.session is None:
        return ctx.live_bytes
    return state.session.live_bytes(eid)


def _record(ctx: ProfileContext, eid: int, sid: Optional[int], name: str,
            category: OpCategory, flops: float, bytes_read: int,
            bytes_written: int, wall_time: float, t_start: float,
            live_bytes: int, parents: Tuple[int, ...] = (),
            input_shapes: Tuple[Tuple[int, ...], ...] = (),
            output_shape: Tuple[int, ...] = (),
            output_sparsity: float = 0.0) -> TraceEvent:
    """Build one trace event and append it to ``ctx``'s trace.

    The only place an op or a region becomes a
    :class:`~repro.core.profiler.TraceEvent`; phase and stage are read
    from ``ctx`` here, so every event is labelled the same way.
    """
    # positional, in field order: keyword construction costs about
    # three times as much, on every op
    event = TraceEvent(eid, name, category, ctx.current_phase,
                       ctx.current_stage, float(flops), bytes_read,
                       bytes_written, input_shapes, output_shape,
                       output_sparsity, wall_time, parents, live_bytes,
                       t_start, sid)
    ctx.trace.append(event)
    return event


def run_op(name: str,
           compute: Callable[..., np.ndarray],
           inputs: Sequence[InputLike],
           *,
           flops: Optional[float] = None,
           flop_factor: float = 1.0,
           extra_bytes_read: int = 0,
           bytes_written: Optional[int] = None,
           measure_sparsity: bool = True) -> Tensor:
    """Execute ``compute`` on raw arrays and record one trace event.

    The event's operator-taxonomy category is ``name``'s entry in the
    :data:`repro.core.taxonomy.OP_CATEGORIES` registry
    (:func:`~repro.core.taxonomy.category_for`, memoized per name); an
    unregistered name raises ``KeyError`` when traced.  An untraced op
    resolves nothing.

    Parameters
    ----------
    flops:
        Explicit FLOP count.  When ``None``, the count defaults to
        ``flop_factor * output.size`` (the convention for element-wise
        kernels; reductions pass explicit counts).
    extra_bytes_read:
        Additional traffic not visible from the inputs (e.g. lookup
        tables touched inside the kernel).
    bytes_written:
        Override for written bytes; defaults to the output's nbytes.

    With a plan session open on this thread (replay,
    :mod:`repro.compile.executor`), the op must be the one the plan
    trace recorded at this eid; that event's counters (category,
    FLOPs, bytes, shapes, sparsity, parents, live bytes) stand in for
    counting and allocation tracking.  Everything else — kernel, eid,
    phase/stage, span id, timing, observer, ledger — is the eager path.

    With self-profiling on (:func:`repro.obs.selfprof.scoped_ledger`),
    nine ``time.perf_counter_ns`` probes at shared segment
    boundaries split the op into the eight
    :data:`~repro.obs.selfprof.COMPONENTS`, whose integer-ns deltas
    telescope to the op's instrumented wall time; the parts go to the
    active :class:`~repro.obs.selfprof.DispatchLedger`.
    """
    ledger = _selfprof.active_ledger() if _selfprof.ENABLED else None
    if ledger is not None:
        p0 = _perf_ns()
    state = _thread_local.dispatch
    ctx = state.context
    recorded = None
    if ctx is None:
        category = None
    elif state.session is not None:
        recorded = state.session.expect(ctx.pending_eid, name)
        category = recorded.category
    else:
        try:
            category = _CATEGORIES[name]
        except KeyError:
            category = _CATEGORIES[name] = category_for(name)
    if ledger is not None:
        p1 = _perf_ns()                                # taxonomy
    if recorded is None:
        arrays, bytes_read, shapes, parents = _split_inputs(inputs)
    else:
        arrays = []
        for value in inputs:
            arrays.append(value.data if isinstance(value, Tensor) else value)
    if ledger is not None:
        p2 = _perf_ns()                                # inputs
    hook = state.fault_hook
    injection = None if hook is None else _consider_fault(hook, ctx, name)
    if ledger is not None:
        p3 = _perf_ns()                                # fault
    if ctx is None:
        # untraced dispatch records no event, so there is nothing to
        # attribute: compute, apply the injection, skip the ledger
        out_arr = np.asarray(compute(*arrays))
        _, poison, _ = _apply_injection(injection, 0.0)
        if poison is not None:
            out_arr = _poison_array(out_arr, poison)
        return Tensor(out_arr, _track=False)

    t_start = _now()
    out = compute(*arrays)
    elapsed = _now() - t_start
    out_arr = np.asarray(out)
    if ledger is not None:
        p4 = _perf_ns()                                # kernel
    poison, extra_live = None, 0
    if injection is not None:
        elapsed, poison, extra_live = _apply_injection(injection, elapsed)
        if poison is not None:
            out_arr = _poison_array(out_arr, poison)
    if recorded is None:
        if flops is None:
            flops = flop_factor * out_arr.size
        bytes_read += extra_bytes_read
        written = out_arr.nbytes if bytes_written is None else bytes_written
        sparsity = _measure_sparsity(out_arr) if measure_sparsity else 0.0
    else:
        if out_arr.shape != recorded.output_shape:
            state.session.diverged(recorded, out_arr.shape)
        flops = recorded.flops
        bytes_read = recorded.bytes_read
        written = recorded.bytes_written
        sparsity = recorded.output_sparsity
        shapes = recorded.input_shapes
        parents = recorded.parents
    if poison is not None:
        flops = poison
        sparsity = poison
    if ledger is not None:
        p5 = _perf_ns()                                # counters
    eid = ctx.next_eid()
    sid = _current_sid(state)
    if ledger is not None:
        p6 = _perf_ns()                                # span
    result = Tensor(out_arr, eid, False)    # untracked; tracked here
    if recorded is None:
        result._live = ctx.track_allocation(out_arr.nbytes)
        live_bytes = ctx.live_bytes + extra_live
    else:
        live_bytes = recorded.live_bytes + extra_live
    event = _record(ctx, eid, sid, name, category, flops, bytes_read,
                    written, elapsed, t_start, live_bytes, parents,
                    shapes, out_arr.shape, sparsity)
    if ledger is not None:
        p7 = _perf_ns()                                # record
    if state.observer is not None:
        # observers see dtypes and exact input values, which the trace
        # event intentionally omits (repro.fuzz.harvest relies on this)
        state.observer.observe_op(event, arrays, out_arr)
    if ledger is not None:
        p8 = _perf_ns()                                # observer
        ledger.record(category.value, {
            "taxonomy": p1 - p0,
            "inputs": p2 - p1,
            "fault": p3 - p2,
            "kernel": p4 - p3,
            "counters": p5 - p4,
            "span": p6 - p5,
            "record": p7 - p6,
            "observer": p8 - p7,
        })
    return result


class RegionCounters:
    """The work counters of one :func:`record_region` event.

    The region's body may overwrite them once it knows how much work
    it did; they are read when the region closes.
    """

    __slots__ = ("flops", "bytes_read", "bytes_written")

    def __init__(self, flops: float, bytes_read: int, bytes_written: int):
        self.flops = flops
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written


@contextmanager
def record_region(name: str,
                  *,
                  flops: float = 0.0,
                  bytes_read: int = 0,
                  bytes_written: int = 0,
                  parents: Tuple[int, ...] = ()) -> Iterator[RegionCounters]:
    """Record a Python region (e.g. a logic-rule search loop) as one event.

    The event's category is always ``OpCategory.OTHER``, and ``name``
    must have no taxonomy-registry entry: replay tells a region from an
    op by that.  The supplied ``flops``/``bytes`` describe the
    aggregate work done by the region; wall time is measured.  Use for
    symbolic computations that execute as host-side control flow
    rather than tensor kernels.
    The block receives the region's :class:`RegionCounters` and may set
    them; a poisoning fault still overrides the FLOPs.
    """
    counters = RegionCounters(flops, bytes_read, bytes_written)
    state = _thread_local.dispatch
    ctx = state.context
    if ctx is None:
        yield counters
        return
    # a raising fault aborts the region before its body runs
    hook = state.fault_hook
    injection = None if hook is None else _consider_fault(hook, ctx, name)
    t_start = _now()
    try:
        yield counters
    finally:
        elapsed = _now() - t_start
        elapsed, poison, extra_live = _apply_injection(injection, elapsed)
        eid = ctx.next_eid()
        _record(ctx, eid, _current_sid(state), name, OpCategory.OTHER,
                flops=counters.flops if poison is None else poison,
                bytes_read=counters.bytes_read,
                bytes_written=counters.bytes_written, wall_time=elapsed,
                t_start=t_start,
                live_bytes=_live_bytes(state, ctx, eid) + extra_live,
                parents=parents)
