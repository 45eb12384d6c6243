"""A trace as columns: one numpy array per event field.

Every analysis view (Figs. 2a, 3a–c, 4 and 5), the counters digest and
both trace checks read the same dozen event fields.
:class:`TraceColumns` transposes the
:class:`~repro.core.profiler.TraceEvent` tuples once, so each view is
a few numpy operations over the columns instead of a Python loop over
the events.  A trace's columns are :attr:`Trace.columns
<repro.core.profiler.Trace.columns>`, the one place that decides when
they are extracted.

Sums stay bit-identical to the per-event loops they replace because
they stay sequential in event order: :func:`sums_by` adds through
``np.bincount(..., weights=)`` (or ``np.add.at`` for integer columns)
and :func:`seq_sum` through ``np.cumsum``, both of which add one value
at a time, whereas ``np.sum`` reduces pairwise and would move the low
bits.  A float column's total is :func:`seq_sum`, not the builtin
``sum``, which from Python 3.12 on compensates float rounding and would
make the total depend on the Python version.  Integer counters are
int64 columns, and a column falls back to float64 when one of its
values is not an integer (a poisoned NaN or inf, or a float a caller
wrote) or does not fit in int64, and so does the byte total when a
read and a write count add past int64.  Event and parent ids are int64.
Category, phase and stage labels are integer codes; the phase and stage
labels are listed in first appearance, which is the order every
per-label dict of a view keeps.
"""

from __future__ import annotations

import itertools
import math
from operator import add, attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiler import TraceEvent
from repro.core.taxonomy import CATEGORY_ORDER

_CATEGORY_CODE = {category.value: code
                  for code, category in enumerate(CATEGORY_ORDER)}

#: per-event numbers that must be finite, in the order errors name
#: them; each is also the name of its column
COUNTER_FIELDS = ("flops", "bytes_read", "bytes_written", "wall_time",
                  "live_bytes", "output_sparsity")


def _counts(values: Sequence[object]) -> np.ndarray:
    """An integer counter's column: int64, or float64 when a value is
    not an integer or does not fit in int64."""
    column = np.array(values, dtype=None if values else np.int64)
    if column.dtype != np.int64:
        column = column.astype(np.float64)
    return column


def _codes(labels: Sequence[str]) -> Tuple[List[str], np.ndarray]:
    """Distinct labels in first appearance and each value's index."""
    distinct = list(dict.fromkeys(labels))
    index = {label: code for code, label in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, labels), np.intp,
                                 len(labels))


class TraceColumns:
    """The event fields of one trace, one array per field, in trace order.

    Built from the trace's events and holding no reference to the
    trace, so a trace that keeps its columns stays out of reference
    cycles and is freed as soon as its last reference goes.

    ``phase`` and ``stage`` are codes into ``phases`` and ``stages``
    (every label, ``""`` included, in first appearance); ``category``
    codes index :data:`~repro.core.taxonomy.CATEGORY_ORDER`.
    ``parents`` is flat: event ``i``'s parents are
    ``parents[parent_start[i]:parent_start[i + 1]]`` and
    ``parent_owner`` holds each one's event index.
    """

    __slots__ = ("n", "eid", "phases", "phase", "stages", "stage",
                 "category", "flops", "bytes_read", "bytes_written",
                 "total_bytes", "elements", "output_sparsity",
                 "wall_time", "live_bytes", "parents", "parent_start",
                 "parent_owner", "increasing")

    def __init__(self, events: Sequence[TraceEvent]):
        n = len(events)
        self.n = n
        # the event tuples transposed: one tuple per field, in field order
        (eid, _, category, phase, stage, flops, bytes_read, bytes_written,
         _, output_shape, output_sparsity, wall_time, parents, live_bytes,
         _, _) = tuple(zip(*events)) or ((),) * len(TraceEvent._fields)
        self.eid = np.fromiter(eid, np.int64, n)
        self.phases, self.phase = _codes(phase)
        self.stages, self.stage = _codes(stage)
        # the enum's own value: OpCategory hashes in Python, a str in C
        self.category = np.fromiter(
            map(_CATEGORY_CODE.__getitem__,
                map(attrgetter("_value_"), category)), np.intp, n)
        self.flops = np.fromiter(flops, np.float64, n)
        self.bytes_read = _counts(bytes_read)
        self.bytes_written = _counts(bytes_written)
        self.total_bytes = self.bytes_read + self.bytes_written
        if self.total_bytes.dtype == np.int64 and (
                (self.bytes_read ^ self.total_bytes)
                & (self.bytes_written ^ self.total_bytes) < 0).any():
            # two int64 counts whose sum is past int64 wrapped: take
            # each event's exact total, as its per-event field is
            self.total_bytes = _counts(list(map(add, bytes_read,
                                                bytes_written)))
        self.elements = _counts(list(map(math.prod, output_shape)))
        self.output_sparsity = np.fromiter(output_sparsity, np.float64, n)
        self.wall_time = np.fromiter(wall_time, np.float64, n)
        self.live_bytes = _counts(live_bytes)
        counts = np.fromiter(map(len, parents), np.intp, n)
        self.parent_start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=self.parent_start[1:])
        self.parents = np.fromiter(itertools.chain.from_iterable(parents),
                                   np.int64, int(self.parent_start[-1]))
        self.parent_owner = np.repeat(np.arange(n), counts)
        #: eids strictly increase, as the profiler numbers them
        self.increasing = bool((self.eid[1:] > self.eid[:-1]).all())

    def in_phase(self, phase: Optional[str]) -> np.ndarray:
        """Mask of the events of ``phase`` (every event for ``None``)."""
        if phase is None:
            return np.ones(self.n, dtype=bool)
        if phase not in self.phases:
            return np.zeros(self.n, dtype=bool)
        return self.phase == self.phases.index(phase)

    def positions(self, eids: np.ndarray, last: bool) -> np.ndarray:
        """Index of each of ``eids`` among the events, -1 when absent.

        A repeated eid resolves to its first event, or with ``last`` to
        its last one.
        """
        n = self.n
        if not n:
            return np.full(len(eids), -1, dtype=np.intp)
        if self.increasing:
            order, ordered = None, self.eid
        else:
            order = self.eid.argsort(kind="stable")
            ordered = self.eid[order]
        if last:
            at = ordered.searchsorted(eids, side="right") - 1
            np.maximum(at, 0, out=at)
        else:
            at = ordered.searchsorted(eids, side="left")
            np.minimum(at, n - 1, out=at)
        return np.where(ordered[at] == eids,
                        at if order is None else order[at], -1)


def sums_by(codes: np.ndarray, values: np.ndarray, k: int) -> list:
    """Per-code sums of ``values`` as Python numbers, each added in
    event order exactly as a per-event ``out[code] += value`` loop."""
    if values.dtype.kind == "f":
        return np.bincount(codes, weights=values, minlength=k).tolist()
    out = np.zeros(k, dtype=values.dtype)
    np.add.at(out, codes, values)
    return out.tolist()


def untagged_as_label(labels: List[str], codes: np.ndarray
                      ) -> Tuple[List[str], np.ndarray]:
    """``labels`` and ``codes`` with ``""`` read as ``"<untagged>"``
    (a literal ``"<untagged>"`` label merges with it)."""
    keys = [label or "<untagged>" for label in labels]
    distinct = list(dict.fromkeys(keys))
    remap = np.array([distinct.index(key) for key in keys], dtype=np.intp)
    return distinct, remap[codes]


def first_seen(codes: np.ndarray) -> List[int]:
    """The distinct codes of ``codes`` in order of first appearance."""
    return list(dict.fromkeys(codes.tolist()))


def seq_sum(values: np.ndarray) -> float:
    """The total a loop ``total = 0.0; for value in values: total +=
    value`` reaches over a float column, adding one value at a time.

    ``np.cumsum`` adds in that order but starts at the first value,
    not at 0.0; adding 0.0 at the end turns the one result where that
    differs, the -0.0 of an all-(-0.0) column, into the loop's 0.0.
    """
    if not len(values):
        return 0.0
    return float(values.cumsum()[-1]) + 0.0
