"""Longitudinal perf history: trend the suite's own performance.

The BENCH trajectory problem: every PR lands with fresh benchmark
numbers, but nothing remembers the *previous* numbers, so performance
drifts silently between commits.  This module is the durable store
and the gate:

* a :class:`HistoryEntry` is one structured snapshot — dispatch
  overhead ledger metrics, compiled-tier headroom, compiled-plan step
  counts, plus whatever the structured benchmark results under
  ``benchmarks/results/*.json`` report — appended to a committed
  ``benchmarks/history.jsonl``;
* :func:`detect_regressions` diffs the newest entry against a robust
  baseline (median of the previous window) under per-metric
  direction-aware thresholds — ``repro obs history gate`` exits
  :data:`EXIT_TREND_REGRESSION` when any gated metric regresses;
* :func:`detect_change_points` runs deterministic binary segmentation
  over each metric's full series, so a slow drift that never trips a
  single-step threshold still surfaces in ``history show`` and in the
  trend section of the HTML run report (:mod:`repro.obs.report`).

Gated metrics are **deterministic by construction** (modeled ledger
overhead, analytic headroom, plan step counts — pure functions of the
op stream and the frozen cost model), so the gate holds a hard
line without machine noise.  Measured metrics (benchmark overheads,
serve throughput) are recorded and trended but ungated by default;
pass ``--threshold`` to gate them on a dedicated perf host.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HISTORY_VERSION", "DEFAULT_HISTORY", "EXIT_TREND_REGRESSION",
    "HistoryEntry", "append_entry", "load_history",
    "MetricPolicy", "DEFAULT_POLICIES", "policy_for",
    "TrendRegression", "detect_regressions", "detect_change_points",
    "entry_from_sources", "render_history", "sparkline_svg",
    "metric_series",
]

#: bump when the entry layout changes
HISTORY_VERSION = 1

#: the committed trajectory database
DEFAULT_HISTORY = "benchmarks/history.jsonl"

#: ``repro obs history gate`` exit code on a trend regression
#: (2/3 = faults, 4 = compare, 5 = fuzz divergence)
EXIT_TREND_REGRESSION = 6

#: baseline window: the candidate is compared against the median of
#: up to this many immediately preceding entries
BASELINE_WINDOW = 5


@dataclass
class HistoryEntry:
    """One structured perf snapshot on the longitudinal trajectory."""

    created: str = ""
    git_sha: str = ""
    label: str = "local"
    metrics: Dict[str, float] = field(default_factory=dict)
    #: digests and provenance (never compared numerically)
    meta: Dict[str, object] = field(default_factory=dict)
    version: int = HISTORY_VERSION

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "created": self.created,
            "git_sha": self.git_sha,
            "label": self.label,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "HistoryEntry":
        return cls(
            created=str(raw.get("created", "")),
            git_sha=str(raw.get("git_sha", "")),
            label=str(raw.get("label", "local")),
            metrics={str(k): float(v) for k, v in
                     dict(raw.get("metrics", {})).items()},  # type: ignore[arg-type]
            meta=dict(raw.get("meta", {})),  # type: ignore[arg-type]
            version=int(raw.get("version", HISTORY_VERSION)),  # type: ignore[arg-type]
        )

    def digest(self) -> str:
        """sha256 over metrics+meta (identity excludes created/sha)."""
        canonical = json.dumps(
            {"metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
             "meta": {k: self.meta[k] for k in sorted(self.meta)}},
            sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()


def append_entry(entry: HistoryEntry,
                 path: str = DEFAULT_HISTORY) -> None:
    """Append one entry to the history database at ``path``."""
    with open(path, "a") as handle:
        handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def load_history(path: str = DEFAULT_HISTORY) -> List[HistoryEntry]:
    """All entries, oldest first."""
    entries: List[HistoryEntry] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(HistoryEntry.from_dict(json.loads(line)))
    return entries


def metric_series(entries: Sequence[HistoryEntry],
                  metric: str) -> List[float]:
    """The metric's values across entries (entries missing it skipped)."""
    return [e.metrics[metric] for e in entries if metric in e.metrics]


# ---------------------------------------------------------------------------
# per-metric gating policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric (or metric-name prefix) is gated.

    ``threshold`` is the relative change that counts as a regression
    in the *worse* direction (``None`` = trend only, never gate);
    ``higher_is_worse`` orients it.
    """

    threshold: Optional[float]
    higher_is_worse: bool = True


#: longest-prefix-match policy table.  Deterministic dispatch/headroom
#: metrics gate hard (any growth beyond 5% of modeled overhead is a
#: real dispatcher change, not noise); measured bench metrics trend
#: but do not gate by default.
DEFAULT_POLICIES: Dict[str, MetricPolicy] = {
    "dispatch.": MetricPolicy(threshold=0.05, higher_is_worse=True),
    "headroom.": MetricPolicy(threshold=0.05, higher_is_worse=True),
    "bench.": MetricPolicy(threshold=None),
    "serve.": MetricPolicy(threshold=None, higher_is_worse=False),
    # compiled-plan step counts are deterministic; a drop is a real
    # capture change, not noise
    "compile.": MetricPolicy(threshold=0.05, higher_is_worse=False),
}


def policy_for(metric: str,
               overrides: Optional[Dict[str, MetricPolicy]] = None
               ) -> MetricPolicy:
    """Longest-prefix-match lookup (overrides shadow the defaults)."""
    table = dict(DEFAULT_POLICIES)
    if overrides:
        table.update(overrides)
    best: Optional[Tuple[str, MetricPolicy]] = None
    for prefix, policy in table.items():
        if metric == prefix or metric.startswith(prefix):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, policy)
    return best[1] if best else MetricPolicy(threshold=None)


def parse_policy_overrides(specs: Sequence[str]
                           ) -> Dict[str, MetricPolicy]:
    """``metric=0.1`` / ``metric=-0.1`` (negative: lower is worse) /
    ``metric=off`` CLI overrides."""
    out: Dict[str, MetricPolicy] = {}
    for spec in specs:
        if "=" not in spec:
            raise ValueError(
                f"bad threshold {spec!r}; expected METRIC=FRACTION "
                "(negative fraction: lower is worse) or METRIC=off")
        metric, _, value = spec.partition("=")
        if value.strip().lower() in ("off", "none"):
            out[metric.strip()] = MetricPolicy(threshold=None)
            continue
        fraction = float(value)
        out[metric.strip()] = MetricPolicy(
            threshold=abs(fraction), higher_is_worse=fraction >= 0)
    return out


# ---------------------------------------------------------------------------
# regression + change-point detection
# ---------------------------------------------------------------------------


@dataclass
class TrendRegression:
    """One gated metric that moved the wrong way."""

    metric: str
    baseline: float
    candidate: float
    rel_change: float       #: signed, positive = metric went up
    threshold: float
    higher_is_worse: bool

    def render(self) -> str:
        arrow = "^" if self.rel_change >= 0 else "v"
        return (f"REGRESSION {self.metric}: {self.baseline:.6g} -> "
                f"{self.candidate:.6g} ({arrow}{abs(self.rel_change):.1%}"
                f" vs +/-{self.threshold:.0%} budget, "
                f"{'higher' if self.higher_is_worse else 'lower'}"
                f"-is-worse)")


def _rel_change(baseline: float, candidate: float) -> float:
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return (candidate - baseline) / abs(baseline)


def detect_regressions(entries: Sequence[HistoryEntry],
                       overrides: Optional[Dict[str, MetricPolicy]] = None,
                       window: int = BASELINE_WINDOW
                       ) -> List[TrendRegression]:
    """Gate the newest entry against the preceding window's median.

    The median baseline makes the gate robust to one outlier entry:
    a single bad historical record cannot mask (or fake) a
    regression.  Metrics absent from the history (first appearance)
    pass — there is nothing to regress against.
    """
    if len(entries) < 2:
        return []
    candidate = entries[-1]
    regressions: List[TrendRegression] = []
    for metric in sorted(candidate.metrics):
        policy = policy_for(metric, overrides)
        if policy.threshold is None:
            continue
        previous = metric_series(entries[:-1], metric)[-window:]
        if not previous:
            continue
        baseline = statistics.median(previous)
        change = _rel_change(baseline, candidate.metrics[metric])
        worse = change > policy.threshold if policy.higher_is_worse \
            else change < -policy.threshold
        if worse:
            regressions.append(TrendRegression(
                metric=metric, baseline=baseline,
                candidate=candidate.metrics[metric],
                rel_change=(0.0 if change == float("inf") else change),
                threshold=policy.threshold,
                higher_is_worse=policy.higher_is_worse))
    return regressions


def detect_change_points(values: Sequence[float],
                         min_rel_shift: float = 0.05,
                         min_segment: int = 2) -> List[int]:
    """Deterministic binary segmentation over one metric series.

    Returns sorted indices ``i`` such that the mean of
    ``values[i:]`` differs from the mean of ``values[:i]`` by more
    than ``min_rel_shift`` (relative to the left mean) at the
    best-splitting point of a segment; recurses into both halves.
    Pure arithmetic on the input — same series, same split points.
    """
    points: List[int] = []

    def segment(lo: int, hi: int) -> None:
        n = hi - lo
        if n < 2 * min_segment:
            return
        best_split, best_shift = -1, 0.0
        for split in range(lo + min_segment, hi - min_segment + 1):
            left = values[lo:split]
            right = values[split:hi]
            left_mean = sum(left) / len(left)
            right_mean = sum(right) / len(right)
            denominator = max(abs(left_mean), 1e-12)
            shift = abs(right_mean - left_mean) / denominator
            if shift > best_shift:
                best_split, best_shift = split, shift
        if best_split >= 0 and best_shift > min_rel_shift:
            points.append(best_split)
            segment(lo, best_split)
            segment(best_split, hi)

    segment(0, len(values))
    return sorted(points)


# ---------------------------------------------------------------------------
# entry construction
# ---------------------------------------------------------------------------

#: ``benchmarks/results/<name>.json`` metrics harvested into entries:
#: experiment name -> (metric name, path into the document's meta)
_RESULT_METRICS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("obs_overhead", "bench.obs_overhead.nvsa",
     ("overheads", "nvsa")),
    ("obs_overhead", "bench.obs_overhead.prae",
     ("overheads", "prae")),
    ("resilience_overhead", "bench.resilience_overhead.nvsa",
     ("overheads", "nvsa")),
    ("resilience_overhead", "bench.resilience_overhead.prae",
     ("overheads", "prae")),
    ("serve_telemetry_overhead", "bench.serve_telemetry_overhead",
     ("overhead",)),
    ("serve_throughput", "serve.throughput_rps",
     ("throughput_rps",)),
    ("dispatch_overhead", "bench.dispatch_on_path_overhead",
     ("on_path_overheads", "nvsa")),
)


def _dig(doc: Dict[str, object], path: Tuple[str, ...]) -> Optional[float]:
    cursor: object = doc
    for key in path:
        if not isinstance(cursor, dict) or key not in cursor:
            return None
        cursor = cursor[key]
    try:
        return float(cursor)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def ingest_results(results_dir: str) -> Dict[str, float]:
    """Harvest known metrics from ``benchmarks/results/*.json``."""
    out: Dict[str, float] = {}
    root = Path(results_dir)
    for experiment, metric, path in _RESULT_METRICS:
        doc_path = root / f"{experiment}.json"
        if not doc_path.exists():
            continue
        try:
            doc = json.loads(doc_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        value = _dig(doc.get("meta", {}), path)
        if value is not None:
            out[metric] = value
    return out


def entry_from_sources(workloads: Sequence[str] = ("nvsa", "prae"),
                       results_dir: Optional[str] = None,
                       device: Optional[object] = None,
                       seed: int = 0,
                       label: str = "local",
                       created: Optional[str] = None,
                       sha: Optional[str] = None) -> HistoryEntry:
    """Profile ``workloads`` under the self-profiling ledger and build
    one history entry.

    All gated metrics are deterministic: modeled ledger overhead,
    analytic compiled-tier headroom (modeled overhead vs the device
    model's projected latency), and compiled-plan step counts.
    Pass ``created=""``/``sha=""`` to build identity-stable entries
    (tests assert two seeded builds are bit-identical).
    """
    from repro.compile.capture import PlanCapturer, capture_program_plan
    from repro.core.analysis import latency_breakdown
    from repro.hwsim.devices import RTX_2080TI
    from repro.obs import selfprof
    from repro.obs.runrec import counters_digest, git_sha
    from repro.tensor.context import op_observer
    device = device if device is not None else RTX_2080TI
    metrics: Dict[str, float] = {}
    meta: Dict[str, object] = {"seed": seed,
                               "device": getattr(device, "name", "")}
    digests: Dict[str, Dict[str, str]] = {}
    from repro.workloads import create
    for name in workloads:
        # the plan capturer rides the same ledgered run: observers see
        # every dispatched op, so one profile yields ledger + plan
        capturer = PlanCapturer()
        with selfprof.scoped_ledger() as ledger:
            with op_observer(capturer):
                trace = create(name, seed=seed).profile()
        projected = latency_breakdown(trace, device).total_time
        plan = capture_program_plan(trace, capturer, workload=name)
        metrics[f"dispatch.{name}.ops"] = float(ledger.ops)
        metrics[f"dispatch.{name}.modeled_overhead_ns"] = float(
            ledger.modeled_overhead_ns())
        metrics[f"headroom.{name}.pct"] = round(
            100.0 * ledger.modeled_headroom(projected), 6)
        metrics[f"compile.{name}.steps"] = float(len(plan.steps))
        digests[name] = {
            "ledger": ledger.digest(),
            "counters": counters_digest(trace),
            "plan": plan.digest(),
        }
    meta["digests"] = digests
    if results_dir is not None:
        metrics.update(ingest_results(results_dir))
    return HistoryEntry(
        created=(datetime.now(timezone.utc).isoformat(timespec="seconds")
                 if created is None else created),
        git_sha=git_sha() if sha is None else sha,
        label=label, metrics=metrics, meta=meta)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_SPARK_CHARS = " .:-=+*#%@"


def _ascii_spark(values: Sequence[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return "-" * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(_SPARK_CHARS[int(round((v - lo) * scale))]
                   for v in values)


def render_history(entries: Sequence[HistoryEntry],
                   metrics: Optional[Sequence[str]] = None) -> str:
    """Text trend table: per metric, series sparkline + change points."""
    from repro.core.report import render_table  # deferred (cycle)
    if not entries:
        return "history: empty"
    names = sorted(metrics if metrics is not None
                   else {m for e in entries for m in e.metrics})
    rows: List[List[object]] = []
    for metric in names:
        series = metric_series(entries, metric)
        if not series:
            continue
        policy = policy_for(metric)
        shifts = detect_change_points(series)
        delta = _rel_change(series[-2], series[-1]) \
            if len(series) >= 2 else 0.0
        rows.append([
            metric, len(series), f"{series[-1]:.6g}",
            (f"{delta:+.1%}" if abs(delta) != float("inf") else "new"),
            _ascii_spark(series[-24:]),
            ",".join(map(str, shifts)) or "-",
            ("-" if policy.threshold is None
             else f"{policy.threshold:.0%}"),
        ])
    header = (f"{len(entries)} entries "
              f"({entries[0].created or '?'} .. "
              f"{entries[-1].created or '?'})")
    return render_table(
        ["metric", "n", "last", "delta", "trend", "shifts@", "gate"],
        rows, title=f"perf history — {header}")


def sparkline_svg(values: Sequence[float], width: int = 140,
                  height: int = 28,
                  change_points: Sequence[int] = ()) -> str:
    """Inline-SVG sparkline (no external refs; report-embeddable)."""
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    margin = 2.0
    step = (width - 2 * margin) / (len(values) - 1)

    def x(index: int) -> float:
        return margin + index * step

    def y(value: float) -> float:
        return height - margin - (value - lo) / span \
            * (height - 2 * margin)

    points = " ".join(f"{x(i):.1f},{y(v):.1f}"
                      for i, v in enumerate(values))
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="trend">',
        f'<polyline points="{points}" fill="none" stroke="#4e79a7" '
        'stroke-width="1.5"/>',
    ]
    for split in change_points:
        if 0 < split < len(values):
            parts.append(
                f'<line x1="{x(split):.1f}" y1="{margin}" '
                f'x2="{x(split):.1f}" y2="{height - margin}" '
                'stroke="#e15759" stroke-dasharray="2 2"/>')
    parts.append(
        f'<circle cx="{x(len(values) - 1):.1f}" '
        f'cy="{y(values[-1]):.1f}" r="2.2" fill="#e15759"/>')
    parts.append("</svg>")
    return "".join(parts)
