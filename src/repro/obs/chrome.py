"""Chrome Trace Event Format exporter.

Serializes a :class:`~repro.core.profiler.Trace` — ops *and* the span
tree collected by :mod:`repro.obs.spans` — to the JSON the Chrome
tracing ecosystem understands (load in Perfetto or
``chrome://tracing``):

* thread 0 carries the hierarchical span timeline (profile/phase/
  stage/runner spans nest by containment);
* each phase gets its own op track, named via ``thread_name``
  metadata;
* every op is a complete (``"ph": "X"``) event colored by its
  operator-taxonomy category (``cname``), so the six categories of
  Fig. 3a are visually separable on the timeline.

Timestamps use the measured process-epoch offsets recorded on each
event/span (microseconds, as the format requires).  Traces archived
before the observability layer existed carry no timestamps; those
fall back to a serial per-track layout from their measured wall
times, so old archives still open.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.profiler import Trace
from repro.core.taxonomy import OpCategory
from repro.obs.spans import SpanRecord

#: Chrome tracing reserved color names for the six operator categories.
CATEGORY_COLORS: Dict[OpCategory, str] = {
    OpCategory.CONVOLUTION: "thread_state_running",
    OpCategory.MATMUL: "rail_response",
    OpCategory.ELEMENTWISE: "thread_state_runnable",
    OpCategory.TRANSFORM: "rail_animation",
    OpCategory.MOVEMENT: "rail_idle",
    OpCategory.OTHER: "grey",
}

_PID = 1
_SPAN_TID = 0


def _has_timestamps(trace: Trace) -> bool:
    return any(e.t_start > 0.0 for e in trace)


def trace_to_chrome_events(trace: Trace,
                           group_by_request: bool = False) -> List[dict]:
    """The ``traceEvents`` list for one trace (metadata first).

    ``group_by_request=True`` lays spans carrying a trace id out on
    one named track per trace (negative tids below the shared span
    track), so a multi-request serving export reads as per-request
    waterfall lanes instead of one interleaved lane.
    """
    tracks: Dict[str, int] = {}
    cursors: Dict[str, float] = {}
    measured = _has_timestamps(trace)
    op_events: List[dict] = []
    for event in trace:
        phase = event.phase or "untagged"
        tid = tracks.setdefault(phase, len(tracks) + 1)
        duration_us = event.wall_time * 1e6
        if measured:
            start_us = event.t_start * 1e6
        else:
            start_us = cursors.get(phase, 0.0)
            cursors[phase] = start_us + duration_us
        op_events.append({
            "name": event.name,
            "cat": event.category.value,
            "ph": "X",
            "ts": start_us,
            "dur": duration_us,
            "pid": _PID,
            "tid": tid,
            "cname": CATEGORY_COLORS[event.category],
            "args": {
                "eid": event.eid,
                "sid": event.sid,
                "stage": event.stage,
                "flops": event.flops,
                "bytes": event.total_bytes,
                "shape": list(event.output_shape),
                "sparsity": round(event.output_sparsity, 4),
                "live_bytes": event.live_bytes,
            },
        })

    span_events: List[dict] = []
    span_tracks: Dict[str, int] = {}
    for record in trace.spans:
        if not isinstance(record, SpanRecord):  # pragma: no cover
            continue
        if group_by_request and record.trace_id is not None:
            # one track per trace (i.e. per request / per batch), so
            # multi-request serving timelines read as parallel lanes
            tid = span_tracks.setdefault(
                record.trace_id, -(len(span_tracks) + 1))
        else:
            tid = _SPAN_TID
        args = {"sid": record.sid, "parent": record.parent,
                **{str(k): v for k, v in record.attrs.items()}}
        if record.trace_id is not None:
            args["trace_id"] = record.trace_id
        span_events.append({
            "name": record.name,
            "cat": "span",
            "ph": "X",
            "ts": record.start * 1e6,
            "dur": record.duration * 1e6,
            "pid": _PID,
            "tid": tid,
            "args": args,
        })

    metadata: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": _PID,
         "args": {"name": f"repro:{trace.workload or 'trace'}"}},
        {"name": "thread_name", "ph": "M", "pid": _PID,
         "tid": _SPAN_TID, "args": {"name": "spans"}},
    ]
    metadata.extend(
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
         "args": {"name": f"trace:{trace_id}"}}
        for trace_id, tid in span_tracks.items())
    metadata.extend(
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
         "args": {"name": f"ops:{phase}"}}
        for phase, tid in tracks.items())
    return metadata + span_events + op_events


def trace_to_chrome(trace: Trace, group_by_request: bool = False) -> str:
    """Full Chrome Trace Event JSON document for one trace."""
    return json.dumps({
        "traceEvents": trace_to_chrome_events(
            trace, group_by_request=group_by_request),
        "displayTimeUnit": "ms",
        "otherData": {"workload": trace.workload,
                      "events": len(trace),
                      "spans": len(trace.spans)},
    })
