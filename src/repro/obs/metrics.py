"""Process-wide metrics registry: counters, gauges, histograms.

A Prometheus-flavoured instrument set the runtime layers update as
they execute:

* the tensor dispatcher reports every recorded op
  (:func:`observe_op` -> ``repro_ops_total``, ``repro_flops_total``,
  ``repro_bytes_total``, per-category latency histograms, live-byte
  gauges);
* the fault layer reports injections (:func:`observe_fault` ->
  ``repro_faults_injected_total``);
* the resilient runner reports attempts, retries, and outcomes
  (:func:`observe_attempt` / :func:`observe_retry` /
  :func:`observe_run`).

Collection is **off by default**: the hot-path helpers check the
module-level :data:`ENABLED` flag and return immediately, so the
healthy profiling path pays one attribute load + branch per op
(measured <5% in ``benchmarks/bench_obs_overhead.py``).  Enable with
:func:`enable` (process-wide) or :func:`scoped_runtime` (isolated
registry for one block — what tests and the CLI use).

The thread-local runtime-override stack is private: ``push_runtime``
/ ``pop_runtime`` may only be called from ``__enter__``/``__exit__``
pairs or ``@contextmanager`` functions (lint check RL005), because an
unbalanced stack silently re-routes every later observation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[str, ...]


class Metric:
    """Base class: named instrument with optional label dimensions."""

    kind = ""

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} expects labels "
                f"{self.labelnames}, got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        """(label values, value) pairs, sorted for deterministic output."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.inc_key(self._key(labels), amount)

    def inc_key(self, key: LabelKey, amount: float = 1.0) -> None:
        """Pre-validated fast path for hot loops (key = label values
        in ``labelnames`` order; no validation, no kwargs)."""
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label combinations."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(Metric):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def set_key(self, key: LabelKey, value: float) -> None:
        """Pre-validated fast path for hot loops."""
        with self._lock:
            self._values[key] = value

    def set_max(self, value: float, **labels: object) -> None:
        """Keep the high-water mark (peak gauges)."""
        self.set_max_key(self._key(labels), float(value))

    def set_max_key(self, key: LabelKey, value: float) -> None:
        """Pre-validated high-water-mark fast path."""
        with self._lock:
            if value > self._values.get(key, float("-inf")):
                self._values[key] = value

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


#: Default latency buckets: 1µs .. 10s, decade-and-half steps.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        self.observe_key(self._key(labels), value)

    def observe_key(self, key: LabelKey, value: float) -> None:
        """Pre-validated fast path for hot loops."""
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts.setdefault(
                    key, [0] * len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._totals.get(self._key(labels), 0)

    def percentile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-th percentile (``q`` in (0, 100]).

        Linear interpolation inside the bucket the target rank falls
        into (Prometheus ``histogram_quantile`` semantics).  Returns
        0.0 for an empty series and ``+inf`` when the rank lands in
        the overflow region above the last finite bucket.
        """
        return self.percentile_key(self._key(labels), q)

    def percentile_key(self, key: LabelKey, q: float) -> float:
        """Pre-validated percentile (key = label values in order)."""
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile q must be in (0, 100], got {q}")
        with self._lock:
            total = self._totals.get(key, 0)
            counts = list(self._counts.get(key, ()))
        if total <= 0:
            return 0.0
        target = q / 100.0 * total
        running, prev_bound = 0, 0.0
        for bound, count in zip(self.buckets, counts):
            if count and running + count >= target:
                frac = (target - running) / count
                return prev_bound + (bound - prev_bound) * frac
            running += count
            prev_bound = bound
        # rank falls above the last finite bucket (overflow region)
        return float("inf")

    def summary(self, quantiles: Sequence[float] = (50.0, 95.0, 99.0),
                **labels: object) -> Dict[str, float]:
        """``{count, sum, mean, p50, p95, p99}`` for one label set."""
        key = self._key(labels)
        count = self._totals.get(key, 0)
        total = self._sums.get(key, 0.0)
        out: Dict[str, float] = {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
        }
        for q in quantiles:
            out[f"p{q:g}"] = self.percentile_key(key, q)
        return out

    def sum(self, **labels: object) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def cumulative_counts(self, key: LabelKey) -> List[int]:
        """Bucket counts as Prometheus cumulative ``le`` counts."""
        counts = self._counts.get(key, [0] * len(self.buckets))
        out, running = [], 0
        for count in counts:
            running += count
            out.append(running)
        return out

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted((key, float(total))
                      for key, total in self._totals.items())

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            self._totals.clear()


class MetricsRegistry:
    """Ordered collection of uniquely named metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        # registries are shared (the process registry, a runtime's):
        # the name-uniqueness check-then-insert must be atomic
        self._reg_lock = threading.Lock()

    def register(self, metric: Metric) -> Metric:
        with self._reg_lock:
            if metric.name in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self.register(
            Histogram(name, help_text, labelnames, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def reset(self) -> None:
        """Zero every metric (registrations are kept)."""
        for metric in self._metrics.values():
            metric.clear()

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump: metric -> {labels repr -> value}."""
        out: Dict[str, object] = {}
        for metric in self.metrics():
            values = {",".join(key) if key else "": value
                      for key, value in metric.samples()}
            out[metric.name] = {"kind": metric.kind,
                                "help": metric.help_text,
                                "values": values}
        return out


class RuntimeMetrics:
    """The suite's built-in instruments over one registry."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.enabled = False
        reg = self.registry
        self.ops_total = reg.counter(
            "repro_ops_total", "recorded tensor ops", ("category",))
        self.flops_total = reg.counter(
            "repro_flops_total", "recorded floating-point operations")
        self.bytes_total = reg.counter(
            "repro_bytes_total", "recorded memory traffic (read+written)")
        self.live_bytes = reg.gauge(
            "repro_live_bytes", "live tensor bytes after the last op")
        self.peak_live_bytes = reg.gauge(
            "repro_peak_live_bytes", "high-water mark of live bytes")
        self.op_latency = reg.histogram(
            "repro_op_latency_seconds",
            "measured wall time per recorded op", ("category",))
        self.faults_injected_total = reg.counter(
            "repro_faults_injected_total", "fault injections applied",
            ("kind",))
        self.attempts_total = reg.counter(
            "repro_attempts_total", "resilient-runner attempts",
            ("workload",))
        self.retries_total = reg.counter(
            "repro_retries_total", "resilient-runner retries",
            ("workload",))
        self.runs_total = reg.counter(
            "repro_runs_total", "resilient-runner outcomes",
            ("workload", "status"))
        # per-category label keys, interned once (hot-path allocation)
        self._cat_keys: Dict[str, LabelKey] = {}
        # one lock for the whole per-op update: six separate instrument
        # locks cost ~3x more than the arithmetic they protect
        self._op_lock = threading.Lock()

    def observe_op(self, category: str, seconds: float, flops: float,
                   nbytes: float, live_bytes: float) -> None:
        """Record one dispatched op (dispatcher hot path).

        Updates the op-derived instruments' storage directly under a
        single runtime-level lock — one interned key tuple per
        category, no kwargs, no label validation, one lock round-trip
        — so enabling collection stays inside the <5% overhead budget
        (``benchmarks/bench_obs_overhead.py``).  This method is the
        sole hot-path writer of these instruments; everything else
        (runner counters, user code) goes through the validated APIs.
        """
        # poisoned counters can be NaN/negative; clamp off-trace
        if not (flops == flops and flops > 0.0):
            flops = 0.0
        if nbytes < 0.0:
            nbytes = 0.0
        hist = self.op_latency
        with self._op_lock:
            key = self._cat_keys.get(category)
            if key is None:
                key = self._cat_keys.setdefault(category, (category,))
            values = self.ops_total._values
            values[key] = values.get(key, 0.0) + 1.0
            values = self.flops_total._values
            values[()] = values.get((), 0.0) + flops
            values = self.bytes_total._values
            values[()] = values.get((), 0.0) + nbytes
            counts = hist._counts.get(key)
            if counts is None:
                counts = hist._counts.setdefault(
                    key, [0] * len(hist.buckets))
            for i, bound in enumerate(hist.buckets):
                if seconds <= bound:
                    counts[i] += 1
                    break
            hist._sums[key] = hist._sums.get(key, 0.0) + seconds
            hist._totals[key] = hist._totals.get(key, 0) + 1
            values = self.live_bytes._values
            values[()] = live_bytes
            values = self.peak_live_bytes._values
            if live_bytes > values.get((), float("-inf")):
                values[()] = live_bytes


#: Process-default runtime (disabled until :func:`enable`).
_RUNTIME = RuntimeMetrics()

#: Fast-path flag consulted by the dispatcher before any function
#: call into this module's bookkeeping.  True whenever *any* runtime
#: (default or scoped) is currently enabled.
ENABLED = False

_enabled_count = 0
_enabled_lock = threading.Lock()

_state = threading.local()


def _runtime_stack() -> List[RuntimeMetrics]:
    if not hasattr(_state, "stack"):
        _state.stack = []
    return _state.stack


def active_runtime() -> RuntimeMetrics:
    """The innermost scoped runtime, or the process default."""
    stack = _runtime_stack()
    return stack[-1] if stack else _RUNTIME


def _count_enabled(delta: int) -> None:
    global ENABLED, _enabled_count
    with _enabled_lock:
        _enabled_count = max(0, _enabled_count + delta)
        ENABLED = _enabled_count > 0


def enable() -> None:
    """Turn on collection for the process-default runtime."""
    if not _RUNTIME.enabled:
        _RUNTIME.enabled = True
        _count_enabled(+1)


def disable() -> None:
    """Turn collection back off for the process-default runtime."""
    if _RUNTIME.enabled:
        _RUNTIME.enabled = False
        _count_enabled(-1)


def reset() -> None:
    """Zero the process-default runtime's metrics."""
    _RUNTIME.registry.reset()


def push_runtime(runtime: RuntimeMetrics) -> None:
    """Install a runtime override for this thread."""
    _runtime_stack().append(runtime)
    if runtime.enabled:
        _count_enabled(+1)


def pop_runtime(runtime: RuntimeMetrics) -> None:
    """Remove ``runtime``; it must be the innermost override."""
    stack = _runtime_stack()
    if not stack or stack[-1] is not runtime:  # pragma: no cover - misuse
        raise RuntimeError("metrics runtimes exited out of order")
    stack.pop()
    if runtime.enabled:
        _count_enabled(-1)


@contextmanager
def scoped_runtime(enabled: bool = True) -> Iterator[RuntimeMetrics]:
    """Fresh, isolated :class:`RuntimeMetrics` for the block.

    The CLI and tests use this so one measurement never leaks into
    another (or into the process-default registry).

    Isolation is **thread-local**: a worker thread spawned inside the
    scope does not inherit the override, so its observations fall
    through to the process default.  Worker pools (``repro.serve``)
    must re-install the owning scope's runtime on each worker thread
    with :func:`bind_runtime`.
    """
    runtime = RuntimeMetrics()
    runtime.enabled = enabled
    push_runtime(runtime)
    try:
        yield runtime
    finally:
        pop_runtime(runtime)


@contextmanager
def bind_runtime(runtime: RuntimeMetrics) -> Iterator[RuntimeMetrics]:
    """Install an *existing* runtime as this thread's override.

    The multi-thread companion of :func:`scoped_runtime`: the runtime
    override stack is thread-local, so a worker thread created inside
    a scoped block would otherwise report to the process default and
    the scope's registry would silently miss every op the worker
    dispatched.  A pool worker wraps its run loop::

        with metrics.bind_runtime(shared_runtime):
            ... execute requests ...

    Instrument updates are lock-protected, so any number of workers
    may bind the same runtime concurrently.
    """
    push_runtime(runtime)
    try:
        yield runtime
    finally:
        pop_runtime(runtime)


# -- hot-path observation helpers (called by runtime layers) ----------------

def observe_op(category: str, seconds: float, flops: float,
               nbytes: float, live_bytes: float) -> None:
    """Record one dispatched op (dispatcher hot path)."""
    stack = _runtime_stack()
    runtime = stack[-1] if stack else _RUNTIME
    if runtime.enabled:
        runtime.observe_op(category, seconds, flops, nbytes, live_bytes)


def observe_fault(kind: str) -> None:
    """Record one applied fault injection."""
    runtime = active_runtime()
    if runtime.enabled:
        runtime.faults_injected_total.inc(1.0, kind=kind)


def observe_attempt(workload: str) -> None:
    runtime = active_runtime()
    if runtime.enabled:
        runtime.attempts_total.inc(1.0, workload=workload)


def observe_retry(workload: str) -> None:
    runtime = active_runtime()
    if runtime.enabled:
        runtime.retries_total.inc(1.0, workload=workload)


def observe_run(workload: str, status: str) -> None:
    runtime = active_runtime()
    if runtime.enabled:
        runtime.runs_total.inc(1.0, workload=workload, status=status)
