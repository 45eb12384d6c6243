"""Longitudinal perf history: the one regression store and its gate.

Every figure and table this suite reproduces is a pure function of
per-op counters and the device model, so "did it drift?" has an exact
answer.  This module is the durable store and the only gate:

* a :class:`HistoryEntry` is one snapshot appended to the committed
  ``benchmarks/history.jsonl``.  Its ``pins`` are exact-match digests
  taken at one fixed roster (:data:`PIN_ROSTER` at seed
  :data:`PIN_SEED` on the RTX 2080 Ti model): per workload the
  counters digest, an events digest (every event's deterministic
  fields, which is what a replay reproduces) and a device-model
  digest (projected total and per-phase latency, peak live bytes,
  per-category kernel counters); plus one digest of the pinned serve
  schedule's ``deterministic`` stats section (:data:`PINNED_SERVE`).
  Its ``metrics`` (dispatched op counts, and whatever the structured
  benchmark results under ``benchmarks/results/*.json`` report) are
  trend-only;
* :func:`check_pins` compares the newest entry's pins with the
  previous pinned entry — ``repro obs history gate`` prints each
  mismatch as ``old → new`` and exits :data:`EXIT_PIN_MISMATCH`.  An
  intentional change is accepted by appending one entry;
* :func:`detect_change_points` runs deterministic binary segmentation
  over each metric's series, annotating ``history show`` and the
  trend section of the HTML run report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HISTORY_VERSION", "DEFAULT_HISTORY", "EXIT_PIN_MISMATCH",
    "PIN_ROSTER", "PIN_SEED", "PINNED_SERVE", "KSTATS_FIELDS",
    "HistoryEntry", "HistoryError", "append_entry", "load_history",
    "PinVerdict", "check_pins", "detect_change_points", "event_facts",
    "model_facts", "pin_workload", "run_pinned_serve", "serve_pin",
    "entry_from_sources", "ingest_results", "render_history",
    "sparkline_svg", "metric_series",
]

#: bump when the entry layout changes (2 adds ``pins``)
HISTORY_VERSION = 2

#: the committed trajectory database
DEFAULT_HISTORY = "benchmarks/history.jsonl"

#: ``repro obs history gate`` exit code on a pin mismatch
#: (2/3 = faults, 5 = fuzz divergence, 7 = replay divergence)
EXIT_PIN_MISMATCH = 6

#: the workloads pinned per entry, each at :data:`PIN_SEED` on the
#: RTX 2080 Ti model; pins only compare at this one roster
PIN_ROSTER: Tuple[str, ...] = ("nvsa", "prae", "lnn", "nlm", "ltn", "mcts")
PIN_SEED = 0

#: the seeded serve schedule whose ``deterministic`` stats are pinned:
#: an NVSA-heavy open-loop mix cut with LNN through admission, dynamic
#: batching, pooled execution and virtual dispatch on the Xeon model.
#: ``benchmarks/bench_serve_throughput.py`` serves the same schedule.
PINNED_SERVE: Dict[str, Any] = {
    "mix": "nvsa=3,lnn=1", "rate": 80.0, "duration": 3.0,
    "seed": PIN_SEED, "workers": 2, "device": "xeon",
    "max_batch": 32, "max_wait": 0.25,
}

#: the synthesized per-category kernel counters the ``model`` pin
#: covers, as :class:`repro.hwsim.kernels.KernelCounters` field names
KSTATS_FIELDS = (
    "compute_throughput_pct", "alu_utilization_pct",
    "l1_throughput_pct", "l2_throughput_pct",
    "l1_hit_rate_pct", "l2_hit_rate_pct",
    "dram_bw_utilization_pct")

#: how a pin missing from one side of a comparison prints
_ABSENT = "(absent)"


class HistoryError(ValueError):
    """A history line that is not a well-formed entry (names file:line)."""


@dataclass
class HistoryEntry:
    """One snapshot on the longitudinal trajectory."""

    created: str = ""
    git_sha: str = ""
    label: str = "local"
    #: trend-only figures (never gated)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: exact-match digests (``<workload>.<kind>`` and ``serve``)
    pins: Dict[str, str] = field(default_factory=dict)
    #: provenance (never compared)
    meta: Dict[str, object] = field(default_factory=dict)
    version: int = HISTORY_VERSION

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "created": self.created,
            "git_sha": self.git_sha,
            "label": self.label,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "pins": {k: self.pins[k] for k in sorted(self.pins)},
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
            pins={str(k): str(v) for k, v in
                  dict(raw.get("pins", {})).items()},  # type: ignore[arg-type]
            meta=dict(raw.get("meta", {})),  # type: ignore[arg-type]
            version=int(raw.get("version", HISTORY_VERSION)),  # type: ignore[arg-type]
        )

    def digest(self) -> str:
        """sha256 over metrics+pins+meta (identity excludes created/sha)."""
        return _sha256({"metrics": self.metrics, "pins": self.pins,
                        "meta": self.meta})

    def describe(self) -> str:
        sha = f"@{self.git_sha}" if self.git_sha else ""
        return f"'{self.label}'{sha} ({self.created or 'undated'})"


def _sha256(doc: object) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def append_entry(entry: HistoryEntry,
                 path: str = DEFAULT_HISTORY) -> None:
    """Append one entry to the history database at ``path``."""
    with open(path, "a") as handle:
        handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def load_history(path: str = DEFAULT_HISTORY) -> List[HistoryEntry]:
    """All entries, oldest first.

    Raises :class:`HistoryError` naming the file and line when a line
    is not JSON, not an object, or holds a malformed field.
    """
    entries: List[HistoryEntry] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError("not a JSON object")
                entries.append(HistoryEntry.from_dict(raw))
            except (TypeError, ValueError) as exc:
                raise HistoryError(
                    f"{path}:{lineno}: malformed history entry: {exc}"
                ) from None
    return entries


def metric_series(entries: Sequence[HistoryEntry],
                  metric: str) -> List[float]:
    """The metric's values across entries (entries missing it skipped)."""
    return [e.metrics[metric] for e in entries if metric in e.metrics]


# ---------------------------------------------------------------------------
# the gate: exact pins
# ---------------------------------------------------------------------------


@dataclass
class PinVerdict:
    """The newest entry's pins against the previous pinned entry."""

    candidate: Optional[HistoryEntry]
    #: the previous pinned entry (``None``: nothing to compare against)
    baseline: Optional[HistoryEntry]
    #: ``(pin, old, new)`` for every pin that differs
    mismatches: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.candidate is None or self.baseline is None:
            return ("history gate: no earlier pinned entry; nothing to "
                    "compare against")
        pinned = len(set(self.baseline.pins) | set(self.candidate.pins))
        lines = [f"PIN {pin}: {old} → {new}"
                 for pin, old, new in self.mismatches]
        if self.ok:
            lines.append(f"history gate: OK — {pinned} pins match "
                         f"{self.baseline.describe()}")
        else:
            lines.append(
                f"history gate: {len(self.mismatches)} of {pinned} pins "
                f"changed since {self.baseline.describe()}; if the "
                "change is intended, accept it by appending an entry "
                "(repro obs history record)")
        return "\n".join(lines)


def check_pins(entries: Sequence[HistoryEntry]) -> PinVerdict:
    """Compare the newest entry's pins with the previous pinned entry.

    A pin present on one side only is a mismatch.  Metrics are never
    compared: measured figures are trend-only.
    """
    if not entries:
        return PinVerdict(candidate=None, baseline=None)
    candidate = entries[-1]
    baseline = next((e for e in reversed(entries[:-1]) if e.pins), None)
    if baseline is None:
        return PinVerdict(candidate=candidate, baseline=None)
    mismatches = [
        (pin, baseline.pins.get(pin, _ABSENT),
         candidate.pins.get(pin, _ABSENT))
        for pin in sorted(set(baseline.pins) | set(candidate.pins))
        if baseline.pins.get(pin) != candidate.pins.get(pin)]
    return PinVerdict(candidate=candidate, baseline=baseline,
                      mismatches=mismatches)


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


def event_facts(trace) -> Dict[str, Any]:
    """The per-event view of one trace that the ``events`` pin digests:
    each event's :meth:`~repro.core.profiler.TraceEvent.facts`."""
    return {"events": [event.facts() for event in trace],
            "peak_live_bytes": trace.metadata["peak_live_bytes"]}


def model_facts(trace, device) -> Dict[str, Any]:
    """The device-model view of one trace that the ``model`` pin digests."""
    from repro.core.analysis import latency_breakdown  # deferred (cycle)
    from repro.hwsim.latency import project_trace
    from repro.obs.kstats import kstats_by_category  # deferred (cycle)
    breakdown = latency_breakdown(project_trace(trace, device))
    peak = trace.metadata.get("peak_live_bytes",
                              max(trace.columns.live_bytes.tolist(),
                                  default=0))
    return {
        "projected_latency_s": float(breakdown.total_time),
        "phase_latency_s": {phase or "untagged": float(seconds)
                            for phase, seconds
                            in breakdown.phase_times.items()},
        "peak_live_bytes": float(peak),
        "category_kstats": {
            stats.label: {name: float(getattr(stats.counters, name))
                          for name in KSTATS_FIELDS}
            for stats in kstats_by_category(trace, device)},
    }


def pin_workload(name: str) -> Tuple[Dict[str, str], Dict[str, float]]:
    """Profile ``name`` once at :data:`PIN_SEED` under the dispatch
    ledger; its three pins and its trend metric."""
    from repro.hwsim.devices import RTX_2080TI
    from repro.obs import selfprof
    from repro.obs.runrec import counters_digest
    from repro.workloads import create
    with selfprof.scoped_ledger() as ledger:
        trace = create(name, seed=PIN_SEED).profile()
    pins = {
        f"{name}.counters": counters_digest(trace),
        f"{name}.events": _sha256(event_facts(trace)),
        f"{name}.model": _sha256(model_facts(trace, RTX_2080TI)),
    }
    return pins, {f"dispatch.{name}.ops": float(ledger.ops)}


def run_pinned_serve():
    """Serve :data:`PINNED_SERVE` once; the :class:`ServeReport`."""
    from repro.hwsim.devices import get_device
    from repro.serve import (BatchPolicy, InferenceServer, LoadSpec,
                             ServeConfig, open_loop, parse_mix)
    spec = LoadSpec.make(parse_mix(PINNED_SERVE["mix"]),
                         rate=PINNED_SERVE["rate"],
                         duration=PINNED_SERVE["duration"],
                         seed=PINNED_SERVE["seed"])
    config = ServeConfig(
        workers=PINNED_SERVE["workers"],
        devices=(get_device(PINNED_SERVE["device"]),),
        batch=BatchPolicy(max_batch_size=PINNED_SERVE["max_batch"],
                          max_wait=PINNED_SERVE["max_wait"]))
    return InferenceServer(config).run_schedule(open_loop(spec))


def serve_pin() -> str:
    """Digest of the pinned serve schedule's ``deterministic`` stats."""
    return _sha256(run_pinned_serve().summary()["deterministic"])


def entry_from_sources(results_dir: Optional[str] = None,
                       label: str = "local",
                       created: Optional[str] = None,
                       sha: Optional[str] = None) -> HistoryEntry:
    """Pin the full roster and the serve schedule into one entry.

    Trend metrics come from the same captures, plus the structured
    benchmark results under ``results_dir`` when given.  Pass
    ``created=""``/``sha=""`` to build identity-stable entries (tests
    assert two builds are bit-identical).
    """
    from repro.hwsim.devices import RTX_2080TI
    from repro.obs.runrec import git_sha
    pins: Dict[str, str] = {}
    metrics: Dict[str, float] = {}
    for name in PIN_ROSTER:
        workload_pins, workload_metrics = pin_workload(name)
        pins.update(workload_pins)
        metrics.update(workload_metrics)
    pins["serve"] = serve_pin()
    if results_dir is not None:
        metrics.update(ingest_results(results_dir))
    return HistoryEntry(
        created=(datetime.now(timezone.utc).isoformat(timespec="seconds")
                 if created is None else created),
        git_sha=git_sha() if sha is None else sha,
        label=label, metrics=metrics, pins=pins,
        meta={"seed": PIN_SEED, "device": RTX_2080TI.name})


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


def _rel_change(baseline: float, candidate: float) -> float:
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return (candidate - baseline) / abs(baseline)


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
        shifts = detect_change_points(series)
        delta = _rel_change(series[-2], series[-1]) \
            if len(series) >= 2 else 0.0
        rows.append([
            metric, len(series), f"{series[-1]:.6g}",
            (f"{delta:+.1%}" if abs(delta) != float("inf") else "new"),
            _ascii_spark(series[-24:]),
            ",".join(map(str, shifts)) or "-",
        ])
    header = (f"{len(entries)} entries "
              f"({entries[0].created or '?'} .. "
              f"{entries[-1].created or '?'})")
    return render_table(
        ["metric", "n", "last", "delta", "trend", "shifts@"],
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
