"""Compiled-plan IR: positional steps over one captured trace.

A :class:`CompiledPlan` is the serializable artifact produced by one
instrumented eager run (``repro.compile.capture``).  It is
**positional**: step ``i`` describes the ``i``-th trace event the
workload will emit when re-run, so the dispatcher can index straight
into ``plan.steps[eid]`` without any matching logic.  That only works
because every workload here is seeded and deterministic — the replay
verifies the op name at every step and raises
:class:`PlanDivergenceError` the moment it leaves the captured graph.

Plan files are outside input: :meth:`CompiledPlan.from_dict` loads all
of a payload or refuses it with :class:`PlanError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.core.profiler import TraceEvent
from repro.core.taxonomy import OpCategory, category_for

__all__ = ["PlanError", "PlanCaptureError", "PlanDivergenceError",
           "PlanStep", "CompiledPlan", "PLAN_VERSION"]

#: Bumped whenever the serialized layout changes incompatibly.
PLAN_VERSION = 2


class PlanError(RuntimeError):
    """Base class for plan capture/build/replay failures."""


class PlanCaptureError(PlanError):
    """The eager capture run produced a graph we cannot compile."""


class PlanDivergenceError(PlanError):
    """Replay left the captured op graph (wrong op, shape, or count).

    Deliberately a deterministic error: replaying a stale plan against
    changed code or params is not transient, so
    :meth:`repro.resilience.runner.ResilientRunner.classify_error`
    fails fast instead of retrying, and the serving/runner layers fall
    back to eager execution.
    """


@dataclass(frozen=True)
class PlanStep:
    """One positional replay step — immutable once the plan is built.

    ``kind`` is ``"op"`` for dispatcher-observed tensor ops (replayed
    with the captured event's counters) and ``"region"`` for
    analytically recorded events (``record_event`` / ``record_region``
    emit those without notifying observers; the replay lets the
    workload re-record them eagerly and only checks alignment).
    """

    eid: int
    kind: str                      #: "op" | "region"
    name: str
    event: TraceEvent              #: captured event (counters only)
    output_dtype: str = ""

    def deterministic_dict(self) -> Dict[str, object]:
        """Serializable view excluding measured (wall-clock) fields."""
        e = self.event
        return {
            "eid": self.eid, "kind": self.kind, "name": self.name,
            "category": e.category.value, "phase": e.phase,
            "stage": e.stage, "flops": e.flops,
            "bytes_read": e.bytes_read, "bytes_written": e.bytes_written,
            "input_shapes": [list(s) for s in e.input_shapes],
            "output_shape": list(e.output_shape),
            "output_sparsity": e.output_sparsity,
            "parents": list(e.parents),
            "live_bytes": e.live_bytes,
            "output_dtype": self.output_dtype,
        }


@dataclass
class CompiledPlan:
    """A captured, serializable replay program."""

    workload: str
    params: Dict[str, object] = field(default_factory=dict)
    steps: List[PlanStep] = field(default_factory=list)
    peak_live_bytes: int = 0
    counters_digest: str = ""      #: digest of the capture trace
    version: int = PLAN_VERSION

    # -- derived counts ------------------------------------------------------
    @property
    def op_steps(self) -> int:
        return sum(1 for s in self.steps if s.kind == "op")

    @property
    def region_steps(self) -> int:
        return len(self.steps) - self.op_steps

    def stats(self) -> Dict[str, int]:
        """Deterministic plan facts (baseline- and history-gated)."""
        return {"steps": len(self.steps), "op_steps": self.op_steps,
                "region_steps": self.region_steps}

    # -- integrity -----------------------------------------------------------
    def validate(self) -> None:
        """Structural soundness: raise :class:`PlanError` on violation."""
        for index, step in enumerate(self.steps):
            if step.eid != index:
                raise PlanError(
                    f"plan step {index} carries eid {step.eid}; "
                    "steps must be positional")
            if step.kind == "op":
                # every replayed template must be a registered op
                try:
                    category_for(step.name)
                except KeyError:
                    raise PlanError(
                        f"plan step {index} replays op {step.name!r}, "
                        "which is not in the OP_CATEGORIES registry"
                    ) from None
            elif step.kind != "region":
                raise PlanError(f"unknown step kind {step.kind!r} "
                                f"at eid {step.eid}")

    # -- digest --------------------------------------------------------------
    def deterministic_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "workload": self.workload,
            "params": {k: repr(v) for k, v in sorted(self.params.items())},
            "counters_digest": self.counters_digest,
            "peak_live_bytes": self.peak_live_bytes,
            "stats": self.stats(),
            "steps": [s.deterministic_dict() for s in self.steps],
        }

    def digest(self) -> str:
        """sha256 over the deterministic view (no wall-clock fields)."""
        canonical = json.dumps(self.deterministic_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = self.deterministic_dict()
        out["params_values"] = _encode_params(self.params)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CompiledPlan":
        """Load a whole serialized plan, or raise :class:`PlanError`."""
        if not isinstance(payload, dict):
            raise PlanError("a plan must be a JSON object")
        version = payload.get("version")
        if version != PLAN_VERSION:
            raise PlanError(f"cannot load plan version {version}; "
                            f"this build reads version {PLAN_VERSION}")
        try:
            steps = []
            for raw in payload["steps"]:
                event = TraceEvent(
                    eid=int(raw["eid"]), name=str(raw["name"]),
                    category=OpCategory(raw["category"]),
                    phase=str(raw["phase"]), stage=str(raw["stage"]),
                    flops=float(raw["flops"]),
                    bytes_read=int(raw["bytes_read"]),
                    bytes_written=int(raw["bytes_written"]),
                    input_shapes=tuple(tuple(int(d) for d in s)
                                       for s in raw["input_shapes"]),
                    output_shape=tuple(int(d)
                                       for d in raw["output_shape"]),
                    output_sparsity=float(raw["output_sparsity"]),
                    parents=tuple(int(p) for p in raw["parents"]),
                    live_bytes=int(raw["live_bytes"]))
                steps.append(PlanStep(
                    eid=event.eid, kind=str(raw["kind"]), name=event.name,
                    event=event, output_dtype=str(raw["output_dtype"])))
            declared = int(payload["stats"]["steps"])
            plan = cls(workload=str(payload["workload"]),
                       params=dict(payload["params_values"]),
                       steps=steps,
                       peak_live_bytes=int(payload["peak_live_bytes"]),
                       counters_digest=str(payload["counters_digest"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan: missing or invalid field "
                            f"{exc}") from None
        if len(steps) != declared:
            raise PlanError(f"plan declares {declared} steps but holds "
                            f"{len(steps)}")
        plan.validate()
        return plan

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True,
                                         indent=1) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CompiledPlan":
        """Read a plan file; unreadable or malformed files raise PlanError."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise PlanError(f"cannot read plan {path}: {exc}") from None
        return cls.from_dict(payload)

    # -- presentation --------------------------------------------------------
    def render(self) -> str:
        from repro.core.report import render_table  # deferred (cycle)
        stats = self.stats()
        rows = [[key, stats[key]] for key in sorted(stats)]
        table = render_table(
            ["plan fact", "value"], rows,
            title=f"compiled plan: {self.workload or '<anonymous>'}")
        return (table + f"\ndigest {self.digest()[:16]}… · "
                f"counters {self.counters_digest[:16]}…")


def _encode_params(params: Dict[str, object]) -> Dict[str, object]:
    """JSON-safe workload params (scalars and strings only survive)."""
    out: Dict[str, object] = {}
    for key, value in sorted(params.items()):
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
