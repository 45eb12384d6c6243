"""Request-scoped tracing for the serve stack.

A request's trace id is its own (:attr:`~repro.serve.request.Request.trace_id`,
a pure function of ``(rid, workload, seed)``), so nothing is minted at
admission and nothing beyond the request's plain fields has to travel
with it.  This module ties those ids to spans:

* **Batch ids** — :func:`batch_trace_id` names the execution one
  closed batch shares.  The worker opens its ``serve:batch`` span with
  that id and the member rids and trace ids as attributes; every span
  beneath it (runner attempts, profile phases, op stages) inherits the
  id from its parent, so one shared execution is linkable from each
  of the requests that rode it.
* **Span-tree synthesis** — the schedule-mode dispatcher is a
  virtual-time simulation, so per-request lifecycle spans are
  synthesized from the :class:`~repro.serve.request.Response` record
  rather than measured: a ``serve:request`` root tiled gap-free by
  ``serve:admit`` / ``serve:queue_wait`` (containing
  ``serve:batch_assemble``) / ``serve:dispatch`` / ``serve:execute``.
  Rejected requests get a ``serve:admit`` span carrying the
  classified rejection reason.
* **Invariants** — :func:`verify_span_trees` checks every response
  reconstructs as a complete causal tree (the fuzz chaos mode and the
  acceptance test both call it) and :func:`span_tree_digest` gives a
  sid-independent fingerprint for two-run determinism checks.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.profiler import Trace
from repro.obs.spans import SpanRecord
from repro.serve.batcher import Batch
from repro.serve.request import Response, STATUS_REJECTED

#: synthesized per-request lifecycle span names, in causal order
REQUEST_SPAN_NAMES = ("serve:request", "serve:admit", "serve:queue_wait",
                      "serve:batch_assemble", "serve:dispatch",
                      "serve:execute")

#: float slop when asserting the lifecycle spans tile the root
_TILE_TOLERANCE = 1e-9


# -- batch ids ---------------------------------------------------------------

def batch_trace_id(batch: Batch) -> str:
    """The trace id shared by the worker spans of one batch execution.

    One execution serves many requests, so it is a trace of its own:
    a digest of its members' trace ids, in batch order.
    """
    members = ",".join(request.trace_id for request in batch.requests)
    return hashlib.blake2s(f"batch:{members}".encode(),
                           digest_size=8).hexdigest()


# -- span-tree synthesis -----------------------------------------------------

def synthesize_response_spans(response: Response,
                              sid_base: int = 0) -> List[SpanRecord]:
    """The causal lifecycle span tree of one served (or shed) request.

    Spans are in virtual (service-clock) time and tile the root
    exactly: ``admit`` is the zero-width admission decision at
    arrival, ``queue_wait`` spans arrival → batch close (with
    ``batch_assemble`` covering the tail the batch spent forming),
    ``dispatch`` covers batch close → service start, and ``execute``
    covers the modeled service interval.  Sids are allocated locally
    from ``sid_base`` so synthesized trees can be grafted next to
    real (worker-thread) spans without collisions.
    """
    tid = response.trace_id
    sid = sid_base
    spans: List[SpanRecord] = []

    def emit(name: str, parent: Optional[int], start: float, end: float,
             **attrs: object) -> SpanRecord:
        nonlocal sid
        record = SpanRecord(sid=sid, parent=parent, name=name,
                            start=start, end=end, attrs=dict(attrs),
                            trace_id=tid)
        sid += 1
        spans.append(record)
        return record

    arrival = response.arrival
    if response.status == STATUS_REJECTED:
        root = emit("serve:request", None, arrival, arrival,
                    rid=response.rid, workload=response.workload,
                    status=response.status)
        emit("serve:admit", root.sid, arrival, arrival, admitted=False,
             reject_reason=response.reject_reason)
        return spans

    close = arrival + response.queue_wait
    service_start = max(response.service_start, close)
    completion = max(response.completion, service_start)
    root = emit("serve:request", None, arrival, completion,
                rid=response.rid, workload=response.workload,
                status=response.status, bid=response.bid,
                worker=response.worker, device=response.device)
    emit("serve:admit", root.sid, arrival, arrival, admitted=True)
    qw = emit("serve:queue_wait", root.sid, arrival, close,
              bid=response.bid)
    assemble_start = max(arrival, close - response.assemble_wait)
    emit("serve:batch_assemble", qw.sid, assemble_start, close,
         bid=response.bid, batch_size=response.batch_size)
    emit("serve:dispatch", root.sid, close, service_start,
         worker=response.worker)
    emit("serve:execute", root.sid, service_start, completion,
         bid=response.bid, batch_size=response.batch_size,
         worker=response.worker, device=response.device,
         modeled_latency=response.modeled_latency,
         attempts=response.attempts)
    return spans


def request_span_trees(responses: Sequence[Response],
                       sid_base: int = 0) -> List[SpanRecord]:
    """Synthesized lifecycle trees for every response, rid order."""
    spans: List[SpanRecord] = []
    sid = sid_base
    for response in sorted(responses, key=lambda r: r.rid):
        tree = synthesize_response_spans(response, sid_base=sid)
        sid += len(tree)
        spans.extend(tree)
    return spans


def serve_trace(report) -> Trace:
    """An exportable :class:`Trace` of one serving run's span trees.

    Carries every worker-thread span collected during batch execution
    (``serve:batch`` → runner → profile spans, stamped with batch
    trace ids) plus the synthesized per-request lifecycle trees, with
    request sids allocated past the real ones so nothing collides.
    The result feeds :func:`repro.obs.jsonl.write_jsonl` — the JSONL
    from which every request is reconstructible as a causal tree.
    """
    trace = Trace()
    trace.workload = "serve"
    spans: List[SpanRecord] = []
    for bid in sorted(report.batch_results):
        spans.extend(report.batch_results[bid].spans)
    sid_base = max((span.sid for span in spans), default=-1) + 1
    spans.extend(request_span_trees(report.responses, sid_base=sid_base))
    trace.spans = spans
    trace.metadata = {
        "kind": "serve",
        "requests": len(report.responses),
        "batches": len(report.batches),
    }
    return trace


# -- invariants --------------------------------------------------------------

def spans_by_trace(spans: Iterable[SpanRecord]) -> Dict[str, List[SpanRecord]]:
    """Group spans by trace id (spans without one are dropped)."""
    grouped: Dict[str, List[SpanRecord]] = {}
    for span in spans:
        if span.trace_id is not None:
            grouped.setdefault(span.trace_id, []).append(span)
    return grouped


def _tree_problems(tree: List[SpanRecord], response: Response) -> List[str]:
    """Structural problems of one request's lifecycle tree."""
    rid = response.rid
    problems: List[str] = []
    roots = [s for s in tree if s.name == "serve:request"]
    if len(roots) != 1:
        return [f"rid {rid}: expected exactly one serve:request root, "
                f"got {len(roots)}"]
    root = roots[0]
    sids = {span.sid for span in tree}
    if len(sids) != len(tree):
        problems.append(f"rid {rid}: duplicate sids in trace tree")
    for span in tree:
        if span is root:
            continue
        if span.parent is None or span.parent not in sids:
            problems.append(f"rid {rid}: span {span.name!r} (sid "
                            f"{span.sid}) is orphaned")
    admits = [s for s in tree if s.name == "serve:admit"]
    if len(admits) != 1:
        problems.append(f"rid {rid}: expected one serve:admit span, "
                        f"got {len(admits)}")
    if response.status == STATUS_REJECTED:
        if admits and admits[0].attrs.get("reject_reason") != \
                response.reject_reason:
            problems.append(
                f"rid {rid}: serve:admit carries reason "
                f"{admits[0].attrs.get('reject_reason')!r}, response "
                f"says {response.reject_reason!r}")
        return problems
    # non-rejected: the lifecycle children must tile the root gap-free
    by_sid = {span.sid: span for span in tree}
    for span in tree:
        parent = by_sid.get(span.parent) if span.parent is not None else None
        if parent is not None and (
                span.start < parent.start - _TILE_TOLERANCE
                or span.end > parent.end + _TILE_TOLERANCE):
            problems.append(f"rid {rid}: span {span.name!r} escapes its "
                            f"parent interval")
    phases = [s for s in tree
              if s.parent == root.sid and s.name != "serve:admit"]
    phases.sort(key=lambda s: (s.start, s.end, s.sid))
    expected = ["serve:queue_wait", "serve:dispatch", "serve:execute"]
    if [s.name for s in phases] != expected:
        problems.append(f"rid {rid}: lifecycle phases are "
                        f"{[s.name for s in phases]}, expected {expected}")
        return problems
    cursor = root.start
    for phase in phases:
        if abs(phase.start - cursor) > _TILE_TOLERANCE:
            problems.append(f"rid {rid}: gap before {phase.name} "
                            f"({cursor:.9f} -> {phase.start:.9f})")
        cursor = phase.end
    if abs(cursor - root.end) > _TILE_TOLERANCE:
        problems.append(f"rid {rid}: lifecycle ends at {cursor:.9f}, "
                        f"root ends at {root.end:.9f}")
    return problems


def verify_span_trees(spans: Iterable[SpanRecord],
                      responses: Sequence[Response]) -> List[str]:
    """Every response must reconstruct as a complete causal span tree.

    Returns a (possibly empty) list of human-readable problems:
    missing trace ids, missing trees, orphaned spans, lifecycle gaps,
    or unclassified rejections.  Empty list == all invariants hold.
    """
    problems: List[str] = []
    grouped = spans_by_trace(spans)
    for response in responses:
        if response.trace_id is None:
            problems.append(f"rid {response.rid}: response has no trace id")
            continue
        tree = grouped.get(response.trace_id)
        if not tree:
            problems.append(f"rid {response.rid}: no spans for trace "
                            f"{response.trace_id}")
            continue
        problems.extend(_tree_problems(tree, response))
    return problems


def response_event(response: Response) -> Dict[str, object]:
    """The plain-dict telemetry event one response publishes.

    This is the shape :class:`repro.obs.live.LiveTelemetry` ingests —
    kept as a dict (not the Response itself) so ``repro.obs`` never
    imports ``repro.serve``.
    """
    return {
        "t": (response.arrival if response.status == STATUS_REJECTED
              else response.completion),
        "rid": response.rid,
        "workload": response.workload,
        "status": response.status,
        "reject_reason": response.reject_reason,
        "trace_id": response.trace_id,
        "latency": response.latency,
        "queue_wait": response.queue_wait,
        "assemble_wait": response.assemble_wait,
        "dispatch_wait": response.dispatch_wait,
        "execute": response.modeled_latency,
        "deadline_exceeded": response.deadline_exceeded,
    }


def span_tree_digest(spans: Iterable[SpanRecord]) -> str:
    """Sid-independent fingerprint of a span forest.

    Two seeded runs of the same schedule must produce identical
    digests (virtual timestamps and trace ids are both deterministic);
    sids are excluded because the process-global counter's base
    depends on what ran before.
    """
    rows: List[Tuple[object, ...]] = []
    for span in spans:
        attrs = tuple(sorted((k, repr(v)) for k, v in span.attrs.items()))
        rows.append((span.trace_id or "", span.name,
                     round(span.start, 9), round(span.end, 9), attrs))
    rows.sort()
    payload = json.dumps(rows, sort_keys=True).encode()
    return hashlib.blake2s(payload, digest_size=16).hexdigest()
