"""Collapsed-stack flamegraph export of attributed traces.

Writes the ``frame;frame;frame <weight>`` line format consumed by
Brendan Gregg's ``flamegraph.pl`` and by speedscope: one line per
distinct stack, one integer weight per line.  The "stack" of an op is
its span chain — every :class:`~repro.core.profiler.TraceEvent`
carries the span id (``sid``) of the innermost span open at dispatch,
and the trace's collected :class:`~repro.obs.spans.SpanRecord` list
supplies the parent links, so the flat op list folds back into the
hierarchical timeline (``profile:nvsa → phase:neural →
stage:rule_detection → matmul``).

Because the span tree is structural (not sampled), the *weight* is a
choice of lens rather than a sample count:

* ``wall`` — measured host microseconds (the default; what a sampling
  profiler would approximate),
* ``latency`` — modeled device microseconds from
  :func:`repro.hwsim.latency.project_trace` (where would time go on
  the target accelerator),
* ``flops`` — floating-point work,
* ``bytes`` — memory traffic (read + written).

Events from pre-attribution archives (``sid is None``) fall back to a
synthetic ``workload;phase;stage`` chain so old traces still render.
Output is deterministic for a fixed trace: stacks are accumulated
exactly and emitted in sorted order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.profiler import Trace, TraceEvent
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.hwsim.latency import project_trace
from repro.obs.spans import SpanRecord

#: weight lenses accepted by :func:`collapsed_stacks` (CLI choices)
FLAME_WEIGHTS = ("wall", "latency", "flops", "bytes")

#: scale seconds to integer microseconds for the time-based lenses
_US = 1e6


def _frame(name: str) -> str:
    """Sanitize one frame label for the collapsed format.

    ``;`` separates frames and the final space separates the weight,
    so neither may appear inside a frame name.
    """
    return name.replace(";", ":").replace(" ", "_") or "<anon>"


def _span_chain(sid: Optional[int],
                by_sid: Dict[int, SpanRecord]) -> Optional[List[str]]:
    """Frame list root->``sid``, or ``None`` when the chain is unknown."""
    if sid is None or sid not in by_sid:
        return None
    chain: List[str] = []
    seen = set()
    cursor: Optional[int] = sid
    while cursor is not None and cursor in by_sid and cursor not in seen:
        seen.add(cursor)
        record = by_sid[cursor]
        chain.append(_frame(record.name))
        cursor = record.parent
    chain.reverse()
    return chain


def _fallback_chain(trace: Trace, event: TraceEvent) -> List[str]:
    """Synthetic chain for unattributed events (pre-PR4 archives)."""
    chain = [_frame(trace.workload or "<untraced>")]
    if event.phase:
        chain.append(_frame(f"phase:{event.phase}"))
    if event.stage:
        chain.append(_frame(f"stage:{event.stage}"))
    return chain


def _event_weights(trace: Trace, weight: str,
                   device: DeviceSpec) -> List[float]:
    """Each event's weight under lens ``weight``, in trace order."""
    if weight == "wall":
        return [event.wall_time * _US for event in trace]
    if weight == "latency":
        return (project_trace(trace, device).total * _US).tolist()
    if weight == "flops":
        return [event.flops for event in trace]
    if weight == "bytes":
        return [float(event.total_bytes) for event in trace]
    raise ValueError(
        f"unknown flame weight {weight!r} (choose from {FLAME_WEIGHTS})")


def collapsed_stacks(trace: Trace, weight: str = "wall",
                     device: DeviceSpec = RTX_2080TI) -> Dict[str, int]:
    """Accumulate ``stack -> integer weight`` for ``trace``.

    Weights are summed exactly per stack and rounded once at the end;
    stacks that round to zero are dropped (flamegraph.pl treats zero
    as absent anyway).
    """
    by_sid = {record.sid: record for record in trace.spans
              if isinstance(record, SpanRecord)}
    acc: Dict[str, float] = {}
    weights = _event_weights(trace, weight, device)
    for event, value in zip(trace, weights):
        chain = _span_chain(event.sid, by_sid)
        if chain is None:
            chain = _fallback_chain(trace, event)
        chain.append(_frame(event.name))
        stack = ";".join(chain)
        acc[stack] = acc.get(stack, 0.0) + value
    out: Dict[str, int] = {}
    for stack, value in acc.items():
        rounded = int(round(value))
        if rounded > 0:
            out[stack] = rounded
    return out


def trace_to_flame(trace: Trace, weight: str = "wall",
                   device: DeviceSpec = RTX_2080TI) -> str:
    """The collapsed-stack file as one string (sorted, trailing NL)."""
    stacks = collapsed_stacks(trace, weight=weight, device=device)
    lines = [f"{stack} {value}"
             for stack, value in sorted(stacks.items())]
    return "\n".join(lines) + ("\n" if lines else "")
