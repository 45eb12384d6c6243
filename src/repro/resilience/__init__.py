"""Resilient execution: fault injection, trace health, roster runner.

The characterization suite's answer to "what happens when a workload
misbehaves?".  Three layers:

* :mod:`repro.resilience.faults` — deterministic, seeded fault plans
  installed on the tensor runtime's fault-hook stack; they poison op
  outputs/counters (NaN/Inf), raise op exceptions, simulate latency
  spikes, and inflate allocation snapshots.
* :mod:`repro.resilience.health` — named health checks layered on top
  of :func:`repro.core.validate.validate_trace`: non-finite counters,
  empty phases, zero latency, live-bytes balance.
* :mod:`repro.resilience.runner` — :class:`ResilientRunner` wraps
  profiling with wall-clock timeouts, classified retries (exponential
  backoff + jitter, seed rotation), and per-workload circuit breakers;
  :func:`run_roster` degrades gracefully instead of aborting the
  Table III roster.
"""

from repro.resilience.faults import (FAULT_ALLOC, FAULT_INF, FAULT_KINDS,
                                     FAULT_LATENCY, FAULT_NAN, FAULT_RAISE,
                                     FaultPlan, FaultSpec, Injection)
from repro.resilience.health import (HealthCheck, HealthReport,
                                     check_trace_health)
from repro.resilience.runner import (CircuitBreaker, CircuitOpenError,
                                     ResilientRunner, RosterReport,
                                     WorkloadOutcome, WorkloadTimeout,
                                     backoff_delay, classify_error,
                                     run_roster)
from repro.tensor.context import InjectedFaultError

__all__ = [
    "FAULT_ALLOC", "FAULT_INF", "FAULT_KINDS", "FAULT_LATENCY",
    "FAULT_NAN", "FAULT_RAISE", "FaultPlan", "FaultSpec", "Injection",
    "HealthCheck", "HealthReport", "check_trace_health",
    "CircuitBreaker", "CircuitOpenError", "ResilientRunner",
    "RosterReport", "WorkloadOutcome", "WorkloadTimeout",
    "backoff_delay", "classify_error", "run_roster", "InjectedFaultError",
]
