"""Span recording and per-layer self-time attribution.

The benchmark times layers from the outside: it wraps public functions
of ``repro`` (see ``child.py``) so each call records a :class:`Span`.
A span knows its parent (the innermost open span on the same thread),
the *key* of the work it belongs to (a closed-loop call or a served
batch), and how much dispatcher time the tensor ledger saw on its
thread while it was open.

:func:`attribute` splits one request's wall time into layer self times:
each instant goes to the innermost span covering it, tensor kernel and
dispatch time move from the span that dispatched them to the
``tensor_kernel`` / ``tensor_dispatch`` layers, and instants no span
covers go to ``unattributed``.  The parts add up to the request's wall
time by construction.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple)

UNATTRIBUTED = "unattributed"
TENSOR_KERNEL = "tensor_kernel"
TENSOR_DISPATCH = "tensor_dispatch"


class Span:
    """One timed call (or benchmark-derived interval) of one layer."""

    __slots__ = ("sid", "parent", "name", "layer", "key", "thread",
                 "start", "end", "kernel_ns", "dispatch_ns", "attrs")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 layer: Optional[str], key: Hashable, thread: int,
                 start: float, end: float = 0.0):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.key = key
        self.thread = thread
        self.start = start
        self.end = end
        #: tensor ledger time on this thread while the span was open
        self.kernel_ns = 0
        self.dispatch_ns = 0
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {"sid": self.sid, "parent": self.parent, "name": self.name,
                "layer": self.layer, "key": list(self.key or ()),
                "thread": self.thread, "start": self.start,
                "end": self.end, "kernel_ns": self.kernel_ns,
                "dispatch_ns": self.dispatch_ns, "attrs": self.attrs}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.key: Hashable = None
        self.kernel_ns = 0
        self.dispatch_ns = 0


class Tracer:
    """In-memory span store fed from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._state = _ThreadState()

    def set_key(self, key: Hashable) -> None:
        """Tag this thread's later spans with ``key`` until changed."""
        self._state.key = key

    def add_tensor(self, kernel_ns: int, dispatch_ns: int) -> None:
        """Credit ledger time of one op to the calling thread."""
        state = self._state
        state.kernel_ns += kernel_ns
        state.dispatch_ns += dispatch_ns

    @contextmanager
    def span(self, name: str, layer: Optional[str]) -> Iterator[Span]:
        state = self._state
        parent = state.stack[-1].sid if state.stack else None
        record = Span(next(self._ids), parent, name, layer, state.key,
                      threading.get_ident(), self.clock())
        kernel0, dispatch0 = state.kernel_ns, state.dispatch_ns
        state.stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            record.kernel_ns = state.kernel_ns - kernel0
            record.dispatch_ns = state.dispatch_ns - dispatch0
            state.stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with every call recorded as a span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    def add(self, name: str, layer: Optional[str], start: float,
            end: float, key: Hashable) -> Span:
        """Record an interval the benchmark derived, not a call."""
        record = Span(next(self._ids), None, name, layer, key, 0,
                      start, end)
        with self._lock:
            self.spans.append(record)
        return record

    def by_key(self) -> Dict[Hashable, List[Span]]:
        out: Dict[Hashable, List[Span]] = {}
        for record in self.spans:
            out.setdefault(record.key, []).append(record)
        return out

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda s: s.sid):
                handle.write(json.dumps(record.to_dict()) + "\n")


def direct_tensor(spans: Iterable[Span]) -> Dict[int, Tuple[int, int]]:
    """Ledger ns each span dispatched itself, outside its child spans."""
    spans = list(spans)
    direct = {s.sid: [s.kernel_ns, s.dispatch_ns] for s in spans}
    for record in spans:
        if record.parent in direct:
            direct[record.parent][0] -= record.kernel_ns
            direct[record.parent][1] -= record.dispatch_ns
    return {sid: (k, d) for sid, (k, d) in direct.items()}


def attribute(start: float, end: float, spans: Iterable[Span],
              direct: Dict[int, Tuple[int, int]]) -> Dict[str, float]:
    """Seconds of ``[start, end]`` per layer; the values sum to the wall.

    ``spans`` are the spans of one request, nested per thread and
    sequential across threads.  Each elementary interval goes to the
    innermost span covering it (latest start, then earliest end).
    """
    inside = [s for s in spans if s.end > start and s.start < end]
    cuts = sorted({start, end}
                  | {min(max(s.start, start), end) for s in inside}
                  | {min(max(s.end, start), end) for s in inside})
    out: Dict[str, float] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        cover = [s for s in inside if s.start <= lo and s.end >= hi]
        layer = UNATTRIBUTED
        if cover:
            layer = max(cover, key=lambda s: (s.start, -s.end)).layer \
                or UNATTRIBUTED
        out[layer] = out.get(layer, 0.0) + (hi - lo)
    for record in inside:
        kernel_ns, dispatch_ns = direct.get(record.sid, (0, 0))
        if not (kernel_ns or dispatch_ns) \
                or record.start < start or record.end > end:
            continue
        moved = (kernel_ns + dispatch_ns) * 1e-9
        layer = record.layer or UNATTRIBUTED
        out[layer] = out.get(layer, 0.0) - moved
        out[TENSOR_KERNEL] = out.get(TENSOR_KERNEL, 0.0) + kernel_ns * 1e-9
        out[TENSOR_DISPATCH] = (out.get(TENSOR_DISPATCH, 0.0)
                                + dispatch_ns * 1e-9)
    return out
