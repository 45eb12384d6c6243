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
from typing import Dict, List

from repro.core.profiler import Trace


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
    """
    buckets: Dict[str, List[float]] = {}
    for event in trace.events:
        key = f"{event.phase}/{event.category.value}"
        bucket = buckets.setdefault(key, [0.0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += event.flops
        bucket[2] += event.total_bytes
    canonical = json.dumps(
        {key: buckets[key] for key in sorted(buckets)},
        separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
