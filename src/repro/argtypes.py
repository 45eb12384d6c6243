"""Checked argparse ``type=`` callables shared by the command lines.

A value outside what the flag accepts is a usage error naming what was
expected, so the command prints one line and exits 2 instead of
starting work it cannot do.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable


def checked(kind: Callable[[str], float], accept: Callable[[float], bool],
            expected: str) -> Callable[[str], float]:
    """An argparse ``type=``: ``kind(text)`` when it is finite and
    ``accept`` holds, else a usage error naming ``expected``."""
    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        # an int is finite however large (math.isfinite would overflow)
        if not ((isinstance(value, int) or math.isfinite(value))
                and accept(value)):
            raise argparse.ArgumentTypeError(
                f"must be {expected}, got {text!r}")
        return value
    return parse


#: every ``--seed`` that seeds a workload or a numpy generator,
#: ``--max-retries``, ``faults --alloc-bytes``/``--op-index`` and
#: ``fuzz run --count``/``--chaos``/``--configs``
NON_NEGATIVE_INT = checked(int, lambda v: v >= 0, "an integer >= 0")
#: ``functions --top`` and the ``serve`` counts and sizes
POSITIVE_INT = checked(int, lambda v: v >= 1, "an integer >= 1")
#: ``--timeout`` and the other durations and rates
POSITIVE = checked(float, lambda v: v > 0, "a finite number > 0")
#: ``--max-wait-ms`` and ``faults --latency``
NON_NEGATIVE = checked(float, lambda v: v >= 0, "a finite number >= 0")
#: ``--sample-ratio`` and ``faults --rate``
RATIO = checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
