"""Run identity helpers: the counters digest and the git sha.

:func:`counters_digest` is the contract every figure rests on: two
traces with the same digest produce identical characterization
results.  ``repro compile diff`` checks a replay against it, the
perf benchmark checks its runs against it, and
:mod:`repro.obs.history` pins it per workload.
"""

from __future__ import annotations

import hashlib
import json
import subprocess

import numpy as np

from repro.core.columns import sums_by
from repro.core.profiler import Trace
from repro.core.taxonomy import CATEGORY_ORDER


def git_sha(short: bool = True) -> str:
    """Current git commit sha, or ``""`` outside a repository."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=5.0)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def counters_digest(trace: Trace) -> str:
    """Stable sha256 over the trace's analytic counters.

    Covers per-(phase, category) event counts, FLOPs, and bytes — the
    exact quantities every figure is computed from — so two traces
    with the same digest produce identical characterization results.
    Each is a float sum from 0.0 in event order, per
    ``"<phase>/<category>"`` key.
    """
    cols = trace.columns
    k = len(CATEGORY_ORDER)
    codes = cols.phase * k + cols.category
    size = len(cols.phases) * k
    counts, flops, nbytes = (
        sums_by(codes, values, size)
        for values in (np.ones(cols.n), cols.flops,
                       cols.total_bytes.astype(np.float64)))
    buckets = {f"{cols.phases[code // k]}/{CATEGORY_ORDER[code % k].value}":
               [counts[code], flops[code], nbytes[code]]
               for code in set(codes.tolist())}
    canonical = json.dumps(
        {key: buckets[key] for key in sorted(buckets)},
        separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
