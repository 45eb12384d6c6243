"""Order statistics and the regression verdict of the perf benchmark.

Pure Python, no ``repro`` import: both the benchmark child process and
``run.py compare`` use it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: The tail percentile reported: the highest one every workload's
#: window has ``TAIL_SAMPLES`` samples beyond.
TAIL_PCT = 90
#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer, one outlier would decide the value.
TAIL_SAMPLES = 10


class TailError(ValueError):
    """Too few samples lie beyond a percentile to report it."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(values: Sequence[float], pct: float,
                    need: int = TAIL_SAMPLES) -> float:
    """:func:`percentile`, refusing a sample too small for the tail."""
    if beyond(len(values), pct) < need:
        raise TailError(
            f"p{pct:g} of {len(values)} samples has "
            f"{beyond(len(values), pct)} beyond it; need {need}")
    return percentile(values, pct)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], head: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """Judge ``head`` against ``base`` for one metric.

    ``regressed`` when head's median is worse than base's by more than
    ``bound`` (a share of base's median).  When either side's own
    spread is wider than the bound the medians cannot be told apart,
    so the verdict is ``unresolved`` -- unless every head run beats
    every base run, which is ``ok``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    head_median = quartiles(head)[1]
    worse = (sign * (head_median - base_median) / abs(base_median)
             if base_median else 0.0)
    widest = max(spread(base), spread(head))
    if widest > bound:
        every_better = all(sign * h < sign * b for h in head for b in base)
        outcome = "ok" if every_better else "unresolved"
    else:
        outcome = "regressed" if worse > bound else "ok"
    return {"verdict": outcome, "worse": worse, "spread": widest}
