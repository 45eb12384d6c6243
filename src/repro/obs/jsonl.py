"""JSONL structured event log: the suite's one on-disk trace format.

One JSON object per line:

* a ``meta`` header (workload, trace metadata, format version),
* one ``op`` line per :class:`~repro.core.profiler.TraceEvent`,
  every field stored losslessly (:func:`event_to_dict`),
* one ``span`` line per collected
  :class:`~repro.obs.spans.SpanRecord`.

A log can be appended while a run is in flight, tailed by external
collectors, and truncated without losing every earlier record — the
shape log shippers (fluentd, vector, Loki) expect.  :func:`read_jsonl`
reconstructs an equivalent :class:`Trace` (identical per-phase and
per-category totals) including its span tree, so ``repro
analyze-trace`` re-runs the latency and operator analyses on a log
without re-executing the workload.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List

from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import OpCategory
from repro.obs.spans import SpanRecord

#: bump when the line layout changes
JSONL_VERSION = 2

#: versions :func:`trace_from_jsonl_lines` can still load.  Version 1
#: logs predate per-span counter attribution; their op lines load with
#: ``sid=None`` (handled by ``event_from_dict``).
SUPPORTED_JSONL_VERSIONS = (1, 2)


def safe_json_value(value):
    """``value`` if JSON-serializable, else its ``repr``."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def event_to_dict(e: TraceEvent) -> Dict:
    """One event's fields by name, in field order, with the category as
    its value: JSON-safe, since JSON writes the shape and parent tuples
    as lists."""
    fields = e._asdict()
    fields["category"] = e.category.value
    return fields


def _id(value) -> int:
    """An event or parent id: an integer that fits in int64, the type
    of a trace's id columns."""
    ident = int(value)
    if not -2 ** 63 <= ident < 2 ** 63:
        raise ValueError(f"id {ident} does not fit in 64 bits")
    return ident


def event_from_dict(raw: Dict) -> TraceEvent:
    """Inverse of :func:`event_to_dict` (missing keys default)."""
    return TraceEvent(
        eid=_id(raw["eid"]),
        name=raw["name"],
        category=OpCategory(raw["category"]),
        phase=raw.get("phase", ""),
        stage=raw.get("stage", ""),
        flops=float(raw.get("flops", 0.0)),
        bytes_read=int(raw.get("bytes_read", 0)),
        bytes_written=int(raw.get("bytes_written", 0)),
        input_shapes=tuple(tuple(s)
                           for s in raw.get("input_shapes", [])),
        output_shape=tuple(raw.get("output_shape", [])),
        output_sparsity=float(raw.get("output_sparsity", 0.0)),
        wall_time=float(raw.get("wall_time", 0.0)),
        parents=tuple(map(_id, raw.get("parents", []))),
        live_bytes=int(raw.get("live_bytes", 0)),
        t_start=float(raw.get("t_start", 0.0)),
        sid=(None if raw.get("sid") is None else int(raw["sid"])),
    )


def trace_to_jsonl_lines(trace: Trace) -> Iterator[str]:
    """Yield the log lines for ``trace`` (no trailing newlines)."""
    yield json.dumps({
        "type": "meta",
        "version": JSONL_VERSION,
        "workload": trace.workload,
        "metadata": {key: safe_json_value(value)
                     for key, value in trace.metadata.items()},
    })
    for event in trace:
        record: Dict[str, object] = {"type": "op"}
        record.update(event_to_dict(event))
        yield json.dumps(record)
    for span in trace.spans:
        if isinstance(span, SpanRecord):
            record = {"type": "span"}
            record.update(span.to_dict())
            yield json.dumps(record)


def trace_to_jsonl(trace: Trace) -> str:
    """The whole log as one string (trailing newline included)."""
    return "\n".join(trace_to_jsonl_lines(trace)) + "\n"


def write_jsonl(trace: Trace, path: str) -> None:
    """Write the JSONL event log for ``trace`` to ``path``."""
    with open(path, "w") as handle:
        for line in trace_to_jsonl_lines(trace):
            handle.write(line + "\n")


def trace_from_jsonl_lines(lines: List[str]) -> Trace:
    """Rebuild a :class:`Trace` (events + spans) from log lines.

    A log comes from outside the program: any malformed line raises
    ``ValueError`` naming its line number, and so does an event or
    parent id that does not fit in int64.
    """
    trace = Trace()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            _load_record(trace, json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: not JSON ({exc.msg} at "
                             f"column {exc.colno})") from exc
        except KeyError as exc:
            raise ValueError(f"line {number}: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {number}: {exc}") from exc
    return trace


def _load_record(trace: Trace, record: object) -> None:
    """Add one decoded log line to ``trace``."""
    if not isinstance(record, dict):
        raise ValueError(f"not a JSON object: {record!r}")
    kind = record.get("type")
    if kind == "meta":
        version = record.get("version")
        if version not in SUPPORTED_JSONL_VERSIONS:
            raise ValueError(
                f"unsupported JSONL log version: {version!r} "
                f"(supported: {SUPPORTED_JSONL_VERSIONS})")
        trace.workload = record.get("workload", "")
        trace.metadata = dict(record.get("metadata", {}))
    elif kind == "op":
        trace.append(event_from_dict(record))
    elif kind == "span":
        trace.spans.append(SpanRecord.from_dict(record))
    else:
        raise ValueError(f"unknown record type {kind!r}")


def read_jsonl(path: str) -> Trace:
    """Read a JSONL event log written by :func:`write_jsonl`."""
    with open(path) as handle:
        return trace_from_jsonl_lines(handle.readlines())
