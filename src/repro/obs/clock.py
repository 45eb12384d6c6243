"""Approved clock helpers: the only place raw clocks are read.

Every wall-time measurement in ``src/repro`` routes through this
module (enforced by lint check RL107).  Centralizing the raw
``time.*`` reads buys three things:

* **one clock discipline** — measurement code cannot accidentally mix
  ``time.time()`` (non-monotonic, NTP-skewed) with ``perf_counter``
  offsets; the helpers only expose monotonic clocks;
* **self-profiling stays honest** — the dispatch-overhead ledger
  (:mod:`repro.obs.selfprof`) times *components of the dispatcher
  itself* with :func:`perf_ns`; if other code read raw clocks through
  different paths, probe pairing could not guarantee that component
  times tile the measured total;
* **auditability** — ``grep perf_counter src/repro`` returning only
  this file is itself a reviewable invariant (and is what RL107
  checks statically).

The process-wide tracing epoch lives in :mod:`repro.obs.spans`
(:func:`repro.obs.spans.now`), built on :func:`perf_s`; use that for
timeline timestamps.  Use :func:`perf_s` / :func:`perf_ns` for plain
interval measurement where an epoch offset is not needed.
"""

from __future__ import annotations

import time

__all__ = ["perf_s", "perf_ns"]


#: Monotonic high-resolution clock in seconds (``perf_counter``).
perf_s = time.perf_counter

#: Monotonic high-resolution clock in integer nanoseconds
#: (``perf_counter_ns``).  The probe clock of the self-profiling
#: ledger: integer ns make the component-tiling invariant exact (sums of
#: ``int`` deltas telescope with no float rounding).
#:
#: Both helpers are the builtins themselves, not wrappers, so a ledger
#: probe costs one C call.
perf_ns = time.perf_counter_ns
