"""Thread-local span tracing: the hierarchical timeline under a run.

A *span* is a named interval with a start/end timestamp, free-form
attributes, and a parent link — the building block every tracing
system (OpenTelemetry, Chrome tracing, Perfetto) shares.  The suite
opens spans at three altitudes:

* :class:`~repro.tensor.context.ProfileContext` opens a root
  ``profile:<workload>`` span and collects every span finished inside
  it onto ``trace.spans``;
* ``T.phase(...)`` / ``T.stage(...)`` open ``phase:*`` / ``stage:*``
  child spans, so the flat op list gains a tree above it;
* the resilient runner opens ``run:*`` / ``attempt#N`` /
  ``health_check`` / ``backoff`` spans around workload execution.

All timestamps are offsets from one process-wide monotonic epoch
(:func:`now`), so runner-level spans and op events recorded deep
inside a profiled workload share a single timeline and can be merged
by the exporters in :mod:`repro.obs.chrome` / :mod:`repro.obs.jsonl`.

A span may belong to a trace (``trace_id``): one opened with an
explicit id carries it, and any other span takes the id of its
parent, the innermost open span on its thread.  The serving worker
opens ``serve:batch`` with its batch's trace id, so every runner,
profile, phase and stage span beneath it carries that id without
any layer knowing about requests.

When no collector is installed, :func:`span` is a no-op that never
touches the stacks — library code stays usable untraced, mirroring
how ops dispatched outside a profiling context skip bookkeeping.

The thread-local stacks here are private: ``push_span`` /
``pop_span`` / ``install_collector`` / ``uninstall_collector`` may
only be called from ``__enter__``/``__exit__`` pairs or
``@contextmanager`` functions (enforced by lint check RL005), because
an unbalanced stack corrupts parent links for every span that
follows.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Process-wide monotonic epoch.  Every span and op timestamp in this
#: process is a ``perf_counter`` offset from this origin.
_EPOCH = perf_counter()


def now() -> float:
    """Seconds since the process-wide tracing epoch (monotonic)."""
    return perf_counter() - _EPOCH


@dataclass
class SpanRecord:
    """One finished interval of the hierarchical timeline."""

    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Trace this span belongs to: given at open, else its parent's;
    #: ``None`` for spans outside any traced tree.
    trace_id: Optional[str] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "sid": self.sid, "parent": self.parent,
            "name": self.name, "start": self.start, "end": self.end,
            "attrs": dict(self.attrs)}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "SpanRecord":
        trace_id = raw.get("trace_id")
        return cls(sid=int(raw["sid"]),
                   parent=(None if raw.get("parent") is None
                           else int(raw["parent"])),  # type: ignore[arg-type]
                   name=str(raw["name"]),
                   start=float(raw["start"]),  # type: ignore[arg-type]
                   end=float(raw.get("end", 0.0)),  # type: ignore[arg-type]
                   attrs=dict(raw.get("attrs", {})),  # type: ignore[arg-type]
                   trace_id=(None if trace_id is None else str(trace_id)))


_state = threading.local()

# Span ids are allocated from one process-wide counter.  A per-thread
# counter (the original design) hands sid 0 to the first span of
# *every* thread, so a runner span on the main thread and a profile
# span on a worker thread collide — and once serving worker pools run
# workloads concurrently, per-op sid attribution becomes ambiguous.
# The global counter keeps sids unique across threads while staying
# deterministic for sequential runs: it resets to zero when the last
# collector leaves and no span is open anywhere in the process.
_sid_lock = threading.Lock()
_sid_counter = 0
_open_spans = 0
_active_collectors = 0


def _span_stack() -> List[SpanRecord]:
    if not hasattr(_state, "spans"):
        _state.spans = []
    return _state.spans


def _collector_stack() -> List[List[SpanRecord]]:
    if not hasattr(_state, "collectors"):
        _state.collectors = []
    return _state.collectors


def _adjust_counts(open_delta: int = 0, collector_delta: int = 0) -> None:
    """Track process-wide open spans / installed collectors.

    When both reach zero the sid counter resets, so successive
    independent runs number their spans identically (deterministic
    exported timelines) while overlapping runs never share a sid.
    """
    global _sid_counter, _open_spans, _active_collectors
    with _sid_lock:
        _open_spans = max(0, _open_spans + open_delta)
        _active_collectors = max(0, _active_collectors + collector_delta)
        if _open_spans == 0 and _active_collectors == 0:
            _sid_counter = 0


def tracing_active() -> bool:
    """True when at least one span collector is installed."""
    return bool(_collector_stack())


def current_span() -> Optional[SpanRecord]:
    """The innermost open span on this thread, or ``None``."""
    stack = _span_stack()
    return stack[-1] if stack else None


def _next_sid() -> int:
    global _sid_counter
    with _sid_lock:
        sid = _sid_counter
        _sid_counter += 1
        return sid


def push_span(name: str, attrs: Optional[Dict[str, object]] = None,
              trace_id: Optional[str] = None) -> SpanRecord:
    """Open a span (internal; use :func:`span` or the tensor contexts).

    The span carries ``trace_id`` when given, else its parent's.
    """
    stack = _span_stack()
    parent = stack[-1] if stack else None
    if trace_id is None and parent is not None:
        trace_id = parent.trace_id
    record = SpanRecord(sid=_next_sid(),
                        parent=parent.sid if parent is not None else None,
                        name=name, start=now(), attrs=dict(attrs or {}),
                        trace_id=trace_id)
    stack.append(record)
    _adjust_counts(open_delta=+1)
    return record


def pop_span(record: SpanRecord) -> None:
    """Close ``record``; it must be the innermost open span."""
    stack = _span_stack()
    if not stack or stack[-1] is not record:  # pragma: no cover - misuse
        raise RuntimeError("spans exited out of order")
    stack.pop()
    record.end = now()
    # every active collector receives the span, so an outer
    # (runner-level) collector also sees workload-internal spans
    for sink in _collector_stack():
        sink.append(record)
    _adjust_counts(open_delta=-1)


def install_collector(sink: List[SpanRecord]) -> None:
    """Install ``sink`` to receive every span finished on this thread."""
    _collector_stack().append(sink)
    _adjust_counts(collector_delta=+1)


def uninstall_collector(sink: List[SpanRecord]) -> None:
    """Remove ``sink``; it must be the innermost installed collector.

    When the last collector leaves and no span is open anywhere in the
    process, the (process-global) span-id counter resets so successive
    independent runs number their spans identically — exported
    timelines stay deterministic per seed — while concurrent runs on
    worker threads keep allocating unique sids.
    """
    stack = _collector_stack()
    if not stack or stack[-1] is not sink:  # pragma: no cover - misuse
        raise RuntimeError("span collectors exited out of order")
    stack.pop()
    _adjust_counts(collector_delta=-1)


class SpanCollector:
    """Context manager collecting every span finished while installed.

    Usage::

        with SpanCollector() as collector:
            ... run traced code ...
        tree = span_roots(collector.spans)
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []

    def __enter__(self) -> "SpanCollector":
        install_collector(self.spans)
        return self

    def __exit__(self, *exc_info: object) -> None:
        uninstall_collector(self.spans)


@contextmanager
def span(name: str, trace_id: Optional[str] = None,
         **attrs: object) -> Iterator[Optional[SpanRecord]]:
    """Open a child span for the block; no-op when tracing is inactive.

    Yields the open :class:`SpanRecord` (or ``None`` on the no-op
    path) so callers can attach attributes discovered mid-flight::

        with obs.span("attempt", workload=name) as rec:
            ...
            if rec is not None:
                rec.attrs["status"] = "ok"

    Passing ``trace_id=`` puts this span in that trace, and with it
    every span opened inside the block that names no trace of its
    own.  Serve-path spans are required to pass it (lint check RL106).
    """
    if not tracing_active():
        yield None
        return
    record = push_span(name, attrs, trace_id)
    try:
        yield record
    finally:
        pop_span(record)


def span_roots(spans: List[SpanRecord]) -> List[SpanRecord]:
    """Root spans of a collected list (parent missing from the list)."""
    sids = {record.sid for record in spans}
    return [record for record in spans
            if record.parent is None or record.parent not in sids]


def children_of(spans: List[SpanRecord],
                parent: SpanRecord) -> List[SpanRecord]:
    """Direct children of ``parent`` within ``spans``, by start time."""
    return sorted((r for r in spans if r.parent == parent.sid),
                  key=lambda r: (r.start, r.sid))


def render_spans(spans: List[SpanRecord]) -> str:
    """Indented text rendering of a span tree (debugging aid)."""
    lines: List[str] = []

    def walk(record: SpanRecord, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
        lines.append(f"{'  ' * depth}{record.name} "
                     f"[{record.duration * 1e3:.3f} ms]"
                     + (f" {attrs}" if attrs else ""))
        for child in children_of(spans, record):
            walk(child, depth + 1)

    for root in sorted(span_roots(spans), key=lambda r: (r.start, r.sid)):
        walk(root, 0)
    return "\n".join(lines)
