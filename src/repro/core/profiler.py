"""Trace data model: the suite's equivalent of the PyTorch Profiler.

The instrumented tensor runtime (:mod:`repro.tensor`) emits one
:class:`TraceEvent` per executed operation.  A :class:`Trace` is the
ordered collection of those events for one workload run, together with
phase annotations (``neural`` / ``symbolic``) and fine-grained stage
labels (e.g. ``rule_detection``).  All downstream analyses — latency
breakdown, operator-category split, memory accounting, roofline
placement, operation-graph extraction, sparsity — take a trace and
read its :attr:`Trace.columns`.

This module deliberately has no dependency on the tensor runtime so it
can be imported from anywhere without cycles.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from repro.core.taxonomy import OpCategory

if TYPE_CHECKING:
    from repro.core.columns import TraceColumns

#: Phase labels used throughout the suite.
PHASE_NEURAL = "neural"
PHASE_SYMBOLIC = "symbolic"


class TraceEvent(NamedTuple):
    """A single executed tensor operation.

    An immutable tuple of the fields below, in this order: assigning a
    field raises ``AttributeError``, so a recorded event is never
    edited.  A changed copy is ``event._replace(field=value)``, and
    ``event._asdict()`` maps each field name to its value.

    Attributes
    ----------
    eid:
        Monotonically increasing event id, unique within one trace.
    name:
        Operation name as dispatched (``matmul``, ``conv2d``, ``add`` ...).
    category:
        One of the paper's six operator categories.
    phase:
        ``"neural"``, ``"symbolic"``, or ``""`` when untagged.
    stage:
        Fine-grained module label within a phase (e.g. ``pmf_to_vsa``).
    flops:
        Floating point operations performed (0 for pure data ops).
    bytes_read / bytes_written:
        Memory traffic in bytes, computed from actual array sizes.
    input_shapes / output_shape:
        Array shapes involved.
    output_sparsity:
        Fraction of zero elements in the output array (0.0 = dense).
    wall_time:
        Measured host wall-clock seconds spent in the numpy kernel.
    parents:
        Event ids of the operations that produced this op's inputs;
        defines the operation-dependency DAG used by Fig. 4 analysis.
    live_bytes:
        Runtime-tracked live tensor bytes *after* this event, used by
        the memory analysis (Fig. 3b).
    t_start:
        Measured start timestamp, seconds since the process-wide
        tracing epoch (:func:`repro.obs.spans.now`).  Places the op on
        the same absolute timeline as the span tree; 0.0 in traces
        archived before the observability layer existed.
    sid:
        Span id of the innermost open span
        (:func:`repro.obs.spans.current_span`) when the op was
        dispatched — the attribution link that lets per-span analyses
        (:mod:`repro.obs.kstats`, :mod:`repro.obs.flame`) fold
        counters through the span tree.
        ``None`` for ops dispatched outside any span and in traces
        archived before counter attribution existed.
    """

    eid: int
    name: str
    category: OpCategory
    phase: str = ""
    stage: str = ""
    flops: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    input_shapes: Tuple[Tuple[int, ...], ...] = ()
    output_shape: Tuple[int, ...] = ()
    output_sparsity: float = 0.0
    wall_time: float = 0.0
    parents: Tuple[int, ...] = ()
    live_bytes: int = 0
    t_start: float = 0.0
    sid: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        """Total memory traffic (read + written)."""
        return self.bytes_read + self.bytes_written

    def facts(self) -> Dict[str, object]:
        """The fields a replay reproduces, by name: every field except
        the measured ``wall_time`` and ``t_start`` and the run-local
        ``sid``, with the category as its value.

        The ``events`` history pin digests them
        (:func:`repro.obs.history.event_facts`) and ``repro compile
        diff`` compares them event by event.
        """
        facts = self._asdict()
        del facts["wall_time"], facts["t_start"], facts["sid"]
        facts["category"] = self.category.value
        return facts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(eid={self.eid}, name={self.name!r}, "
            f"category={self.category.value}, phase={self.phase!r}, "
            f"flops={self.flops:.3g}, bytes={self.total_bytes})"
        )


class Trace:
    """An ordered, read-only sequence of :class:`TraceEvent` for one
    workload run.

    :meth:`append` is the only way to add an event, and ``len``,
    iteration, indexing and slicing the only ways to read one: nothing
    replaces or removes an appended event, which is what lets
    :attr:`columns` key its cache on the event count alone.
    """

    def __init__(self, workload: str = "", events: Optional[Iterable[TraceEvent]] = None):
        self.workload = workload
        self._events: List[TraceEvent] = list(events) if events is not None else []
        #: free-form metadata recorded by workloads (task size, dims ...)
        self.metadata: Dict[str, object] = {}
        #: hierarchical timeline collected by the observability layer
        #: (:class:`repro.obs.spans.SpanRecord` instances); empty for
        #: traces built outside a profiling context.
        self.spans: List[object] = []
        self._columns: Optional["TraceColumns"] = None

    # -- collection protocol -------------------------------------------------
    def append(self, event: TraceEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, idx: int) -> TraceEvent:
        return self._events[idx]

    # -- analysis input ------------------------------------------------------
    @property
    def columns(self) -> "TraceColumns":
        """The events as :class:`~repro.core.columns.TraceColumns`, the
        input of every analysis and check.

        Extracted on the first read and kept; a read after the event
        count changed extracts them again.  :meth:`append` itself does
        no extra work.
        """
        columns = self._columns
        if columns is None or columns.n != len(self._events):
            from repro.core.columns import TraceColumns  # deferred (cycle)
            columns = self._columns = TraceColumns(self._events)
        return columns


def merge_traces(traces: Sequence[Trace], workload: str = "") -> Trace:
    """Concatenate ``traces`` into one, renumbering event ids.

    Parent links are remapped so the dependency DAG stays consistent.
    Span attribution (``sid``) is dropped: span ids are only unique
    within one collected run, so a merged trace cannot attribute
    events across its sources' separate span trees.
    """
    merged = Trace(workload)
    offset = 0
    for trace in traces:
        id_map = {e.eid: e.eid + offset for e in trace}
        for event in trace:
            merged.append(event._replace(
                eid=id_map[event.eid],
                parents=tuple(id_map[p] for p in event.parents if p in id_map),
                sid=None))
        if trace:
            offset = merged[-1].eid + 1
    return merged
