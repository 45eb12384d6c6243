"""Keyed LRU cache of built workload artifacts.

Building a roster workload is dominated by symbolic setup — VSA
codebooks, knowledge bases, rendered datasets — which the profile
itself then reuses.  In a serving context that setup cost would be
paid per request; the cache pays it **once per batch key** and
amortizes it across every request (and every batch) that shares the
key.

Correctness requires one subtlety: several workloads mutate state
while profiling (the LNN tightens knowledge-base bounds across
passes), so executing a cached instance twice is *not* deterministic.
:meth:`ArtifactCache.checkout` therefore keeps the built instance
pristine and hands out a :func:`copy.deepcopy` per execution —
deep-copying a built workload is 5-10x cheaper than rebuilding it,
and every checkout starts from identical state, which is what makes
repeated ``repro serve bench`` runs bit-identical.

Hit/miss/eviction accounting is deterministic under concurrency: a
per-key build gate ensures exactly one thread builds on a cold key
(counted as the sole miss) while racers block and count hits.

Each entry also keeps its key's **plan** once the key repeats: the
trace of an eager run of the key, which later runs of the key replay
(:mod:`repro.compile`).  Workers hand traces back through
:meth:`ArtifactCache.offer`; a key's first offer only marks it as
having run, so a key that never repeats never holds a trace it would
not use.  The plan is evicted with its entry.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.profiler import Trace


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of a cached build: workload + seed + frozen params."""

    workload: str
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()


class _Entry:
    """One key's pristine build and, once the key repeats, its plan."""

    __slots__ = ("master", "ran", "plan")

    def __init__(self, master: object):
        self.master = master
        self.ran = False
        self.plan: Optional[Trace] = None


class ArtifactCache:
    """Thread-safe LRU of pristine built :class:`Workload` instances."""

    def __init__(self, capacity: int = 32,
                 builder: Optional[Callable[..., object]] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if builder is None:
            from repro.workloads import create as builder  # deferred (cycle)
        self.capacity = capacity
        self._builder = builder
        self._lock = threading.Lock()
        self._entries: "OrderedDict[ArtifactKey, _Entry]" = OrderedDict()
        self._gates: Dict[ArtifactKey, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.build_errors = 0

    # -- core ----------------------------------------------------------------
    def checkout(self, key: ArtifactKey) -> object:
        """A fresh deep copy of the built workload for ``key``.

        Cold keys are built under a per-key gate: exactly one thread
        builds (the one miss); concurrent checkouts of the same key
        block on the gate and then count as hits.  The cached master
        instance is never executed, only copied.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                gate = self._gates.get(key)
                if gate is None:
                    gate = self._gates[key] = threading.Lock()
        if entry is not None:
            return copy.deepcopy(entry.master)

        with gate:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:        # a racer built it first
                    self._entries.move_to_end(key)
                    self.hits += 1
            if entry is None:
                try:
                    built = self._build(key)
                except BaseException:
                    # a failed build must not poison the key: drop the
                    # gate so the next checkout retries cleanly instead
                    # of queueing behind a lock that never resolves to
                    # an entry
                    with self._lock:
                        self.build_errors += 1
                        self._gates.pop(key, None)
                    raise
                entry = _Entry(built)
                with self._lock:
                    self.misses += 1
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                    self._gates.pop(key, None)
        return copy.deepcopy(entry.master)

    def plan(self, key: ArtifactKey) -> Optional[Trace]:
        """The plan ``key`` kept, if it has one (shared, never copied)."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.plan

    def offer(self, key: ArtifactKey, trace: Trace) -> bool:
        """Offer an eager run's trace as ``key``'s plan; ``True`` if kept.

        Offer only the trace of a fault-free run that succeeded on its
        first attempt.  The key's first offer marks it as having run
        and drops the trace; every later offer keeps its trace,
        replacing an earlier plan (a fallback's trace replaces the
        plan that diverged).  An evicted key starts over.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if not entry.ran:
                entry.ran = True
                return False
            entry.plan = trace
            return True

    def _build(self, key: ArtifactKey) -> object:
        workload = self._builder(key.workload, seed=key.seed,
                                 **dict(key.params))
        build = getattr(workload, "build", None)
        if callable(build):
            build()
        return workload

    # -- integration ---------------------------------------------------------
    def factory(self) -> Callable[..., object]:
        """A ``create``-compatible factory backed by this cache.

        Drop-in for :class:`~repro.resilience.runner.ResilientRunner`'s
        ``factory`` argument: ``make(name, seed=0, **params)`` returns
        a fresh executable copy, so runner retries with rotated seeds
        simply miss to a new key.
        """
        def make(name: str, seed: int = 0, **params: object) -> object:
            return self.checkout(ArtifactKey(
                workload=name, seed=seed,
                params=tuple(sorted(params.items()))))
        return make

    # -- accounting ----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "build_errors": self.build_errors,
                    "size": len(self._entries),
                    "capacity": self.capacity}
