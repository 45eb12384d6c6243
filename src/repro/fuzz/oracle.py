"""Differential execution oracle for generated op programs.

Each generated :class:`~repro.fuzz.generate.OpProgram` is executed
**twice**, eagerly, under profiling plus the op-observer hook.  The
oracle then cross-checks five independent sources of truth:

1. **template predictions** — every node carries the expected output
   shape/dtype from its generation template; the realized tensor must
   match exactly (this is the eager-vs-static differential check);
2. **inferred rules** — every harvested instance must satisfy the
   shape/dtype/counter transfer rules fitted by
   :mod:`repro.fuzz.rules` over the workload harvest + calibration
   corpus;
3. **trace structure** — the recorded trace must pass
   :func:`repro.core.validate.validate_trace` (finite, non-negative,
   causally ordered counters);
4. **determinism** — both runs must produce byte-identical counter
   digests and identical terminal states;
5. **reference kernels** — every realized ``conv2d`` and ``maxpool2d``
   output must agree with the retained plain-numpy kernel in
   :mod:`repro.tensor.reference`: within its summation-order bound
   for conv2d, bit-identical for max-pool (``reference_mismatch``).

A :class:`TensorOpError` raised mid-program is a *classified stop*
(the runtime refused degenerate input with a typed error): the program
prefix that did execute is still checked, but the stop itself is not a
failure.  Any other exception is a **crash divergence** — the runtime
let an unclassified error escape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import tensor as T
from repro.core.profiler import Trace
from repro.core.validate import validate_trace
from repro.fuzz.generate import (LeafSpec, OpProgram, calibration_programs,
                                 op_universe)
from repro.fuzz.harvest import (DEFAULT_HARVEST, OpInstanceRecorder,
                                harvest_roster)
from repro.fuzz.records import OpInstance, filter_instances
from repro.fuzz.rules import RuleSet, infer_rules
from repro.nn import MaxPool2d
from repro.tensor import reference
from repro.tensor.context import op_observer
from repro.tensor.errors import TensorOpError

Shape = Tuple[int, ...]


# ---------------------------------------------------------------------------
# leaf materialization
# ---------------------------------------------------------------------------

def materialize_leaf(program_seed: int, leaf: LeafSpec) -> np.ndarray:
    """Deterministic leaf values from ``default_rng([seed, nid])``."""
    rng = np.random.default_rng([program_seed, leaf.nid])
    if leaf.dist == "normal":
        arr = rng.normal(size=leaf.shape)
    elif leaf.dist == "unit":
        arr = rng.random(size=leaf.shape)
    elif leaf.dist == "offset":           # bounded away from zero
        arr = 0.5 + rng.random(size=leaf.shape)
    elif leaf.dist == "bool":
        return rng.random(size=leaf.shape) < 0.5
    elif leaf.dist == "indices":
        if leaf.high > 0:
            arr = rng.integers(0, leaf.high, size=leaf.shape)
        else:                              # empty domain: only size-0 valid
            arr = np.zeros(leaf.shape, dtype=np.int64)
    else:
        raise ValueError(f"unknown leaf dist {leaf.dist!r}")
    return arr.astype(leaf.dtype, copy=False)


# ---------------------------------------------------------------------------
# node application
# ---------------------------------------------------------------------------

def _apply_node(node, values: Dict[int, "T.Tensor"]) -> Optional["T.Tensor"]:
    """Execute one node against realized inputs; returns its Tensor."""
    ins = [values[nid] for nid in node.inputs]
    params = node.param_dict()
    if node.op == "split":
        parts = T.split(ins[0], int(params["sections"]),
                        axis=int(params["axis"]))
        return parts[int(params["part"])]
    if node.op == "einsum":
        return T.einsum(str(params["spec"]), *ins)
    if node.op in ("concat", "stack"):
        fn = getattr(T, node.op)
        return fn(ins, axis=int(params["axis"]))
    if node.op == "conv2d":
        bias = ins[2] if params.get("bias") else None
        return T.conv2d(ins[0], ins[1], bias=bias,
                        stride=int(params["stride"]),
                        padding=int(params["padding"]))
    if node.op == "maxpool2d":
        return MaxPool2d(int(params["kernel_size"]),
                         int(params["stride"]))(ins[0])
    fn = getattr(T, node.op)
    return fn(*ins, **params)


@dataclass
class ExecutionResult:
    """One eager run of a program: instances, terminal state, trace."""

    program: OpProgram
    instances: List[OpInstance] = field(default_factory=list)
    realized: Dict[int, Tuple[Shape, str]] = field(default_factory=dict)
    #: nid -> realized array, leaves included
    values: Dict[int, np.ndarray] = field(default_factory=dict)
    status: str = "ok"                 # ok | classified | crash
    error: str = ""
    error_op: str = ""
    trace_errors: List[str] = field(default_factory=list)
    trace: Optional[Trace] = None


def _run_program(program: OpProgram, result: ExecutionResult,
                 divergence_types: Tuple[type, ...] = ()) -> None:
    """Execute a program's nodes, recording terminal state on ``result``.

    ``divergence_types`` names exception classes that mark a *replay
    divergence* rather than a crash (the replay differential passes
    :class:`~repro.compile.plan.PlanDivergenceError` here).
    """
    values: Dict[int, T.Tensor] = {}
    for leaf in program.leaves:
        values[leaf.nid] = T.tensor(
            materialize_leaf(program.seed, leaf))
    for node in program.nodes:
        try:
            out = _apply_node(node, values)
        except divergence_types as exc:
            result.status = "plan_divergence"
            result.error = str(exc)
            result.error_op = node.op
            break
        except TensorOpError as exc:
            result.status = "classified"
            result.error = str(exc)
            result.error_op = node.op
            break
        except Exception as exc:  # noqa: BLE001 - the whole point
            result.status = "crash"
            result.error = f"{type(exc).__name__}: {exc}"
            result.error_op = node.op
            break
        values[node.nid] = out
        result.realized[node.nid] = (
            tuple(out.shape), str(out.dtype))
    result.values = {nid: value.data for nid, value in values.items()}


def execute_program(program: OpProgram) -> ExecutionResult:
    """Run a program eagerly under profiling + the op observer."""
    result = ExecutionResult(program=program)
    recorder = OpInstanceRecorder(workload="fuzz")
    with T.profile("fuzz") as prof:
        with op_observer(recorder):
            _run_program(program, result)
    result.instances = recorder.instances
    result.trace = prof.trace
    if recorder.instances:     # empty programs have nothing to validate
        result.trace_errors = validate_trace(
            prof.trace, require_flops=False).errors
    return result


def execute_program_compiled(program: OpProgram,
                             plan: Trace) -> ExecutionResult:
    """Replay a program against ``plan``, the trace of its eager run.

    The replay runs the *same program source* through a plan session,
    so every dispatched op is served positionally from the plan.  A
    classified stop is reproduced at the same node by construction
    (identical inputs); a replay that walks off the plan surfaces as
    status ``plan_divergence``.
    """
    from repro.compile.executor import plan_session
    from repro.compile.plan import PlanDivergenceError

    result = ExecutionResult(program=program)
    recorder = OpInstanceRecorder(workload="fuzz")
    try:
        with T.profile("fuzz") as prof:
            with plan_session(plan):
                with op_observer(recorder):
                    _run_program(program, result,
                                 divergence_types=(PlanDivergenceError,))
    except PlanDivergenceError as exc:
        # an over/underrun raised outside a node application (e.g. on
        # session bookkeeping) still counts as a replay divergence
        result.status = "plan_divergence"
        result.error = str(exc)
    result.instances = recorder.instances
    if recorder.instances:
        result.trace_errors = validate_trace(
            prof.trace, require_flops=False).errors
    return result


# ---------------------------------------------------------------------------
# digests and divergences
# ---------------------------------------------------------------------------

def counter_digest(instances: Sequence[OpInstance]) -> str:
    """SHA-256 over the canonical JSON of instances in execution order."""
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(json.dumps(inst.to_dict(), sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class Divergence:
    """One checked invariant the execution violated."""

    kind: str      # crash | shape_mismatch | dtype_mismatch |
                   # rule_violation | trace_invalid | nondeterminism |
                   # reference_mismatch | compiled_divergence
    op: str        # op involved ("" for whole-program kinds)
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "op": self.op, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Divergence":
        return cls(kind=str(data["kind"]), op=str(data.get("op", "")),
                   detail=str(data.get("detail", "")))


@dataclass
class CheckResult:
    """Oracle verdict for one program (two runs cross-checked)."""

    program: OpProgram
    status: str                        # ok | classified | divergent
    divergences: List[Divergence] = field(default_factory=list)
    digest: str = ""
    ops_executed: int = 0
    classified_error: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergences


def check_program(program: OpProgram,
                  rules: Optional[RuleSet] = None,
                  compiled: bool = False) -> CheckResult:
    """Execute twice and cross-check all oracle invariants.

    ``compiled=True`` adds the eager-vs-replay differential: the
    program is replayed against the first eager run's own trace —
    identical counter digests, realized shapes/dtypes, and terminal
    (classified) state are required, mirroring the bit-exactness
    contract of :mod:`repro.compile`.
    """
    first = execute_program(program)
    second = execute_program(program)
    divergences: List[Divergence] = []

    if first.status == "crash":
        divergences.append(Divergence(
            kind="crash", op=first.error_op,
            detail=f"unclassified exception escaped: {first.error}"))

    digest_one = counter_digest(first.instances)
    digest_two = counter_digest(second.instances)
    if digest_one != digest_two:
        divergences.append(Divergence(
            kind="nondeterminism", op="",
            detail=f"counter digests differ across identical runs "
                   f"({digest_one[:12]} vs {digest_two[:12]})"))
    if (first.status, first.error) != (second.status, second.error):
        divergences.append(Divergence(
            kind="nondeterminism", op=first.error_op or second.error_op,
            detail=f"terminal state differs across runs: "
                   f"{first.status}/{first.error!r} vs "
                   f"{second.status}/{second.error!r}"))

    for issue in first.trace_errors:
        divergences.append(Divergence(kind="trace_invalid", op="",
                                      detail=issue))

    for node in program.nodes:
        realized = first.realized.get(node.nid)
        if realized is None or node.out_shape is None:
            continue           # dynamic-shape node, or stopped before it
        got_shape, got_dtype = realized
        if tuple(got_shape) != tuple(node.out_shape):
            divergences.append(Divergence(
                kind="shape_mismatch", op=node.op,
                detail=f"template predicted {tuple(node.out_shape)}, "
                       f"eager produced {tuple(got_shape)}"))
        if node.out_dtype is not None and got_dtype != node.out_dtype:
            divergences.append(Divergence(
                kind="dtype_mismatch", op=node.op,
                detail=f"template predicted {node.out_dtype}, "
                       f"eager produced {got_dtype}"))

    divergences.extend(_reference_divergences(program, first))

    if rules is not None:
        for inst in first.instances:
            if inst.name not in rules:
                continue
            for issue in rules.check_instance(inst):
                divergences.append(Divergence(
                    kind="rule_violation", op=inst.name, detail=issue))

    if compiled and first.status != "crash":
        divergences.extend(_compiled_differential(program, first))

    if divergences:
        status = "divergent"
    elif first.status == "classified":
        status = "classified"
    else:
        status = "ok"
    return CheckResult(program=program, status=status,
                       divergences=divergences, digest=digest_one,
                       ops_executed=len(first.instances),
                       classified_error=first.error)


def _reference_divergences(program: OpProgram,
                           run: ExecutionResult) -> List[Divergence]:
    """Every realized conv2d and maxpool2d against its reference kernel.

    conv2d must stay within the summation-order bound of
    :func:`repro.tensor.reference.conv2d_bound`; maxpool2d must be
    bit-identical to :func:`repro.tensor.reference.maxpool2d`.
    """
    out: List[Divergence] = []
    for node in program.nodes:
        got = run.values.get(node.nid)
        if got is None or node.op not in ("conv2d", "maxpool2d"):
            continue
        ins = [run.values[nid] for nid in node.inputs]
        params = node.param_dict()
        if node.op == "conv2d":
            args = (ins[0], ins[1], ins[2] if params.get("bias") else None,
                    int(params["stride"]), int(params["padding"]))
            problem = reference.mismatch(got, reference.conv2d(*args),
                                       reference.conv2d_bound(*args))
        else:
            problem = reference.mismatch(got, reference.maxpool2d(
                ins[0], int(params["kernel_size"]), int(params["stride"])))
        if problem is not None:
            out.append(Divergence(kind="reference_mismatch", op=node.op,
                                  detail=f"node {node.nid}: {problem}"))
    return out


def _compiled_differential(program: OpProgram,
                           eager: ExecutionResult) -> List[Divergence]:
    """Eager-vs-replay cross-check for one program.

    Replays the program against the eager run's own trace and compares
    the two on the full bit-exactness surface: counter digests over
    the observed op instances, realized shape/dtype of every node, and
    the terminal (classified-stop) state.
    """
    replay = execute_program_compiled(program, eager.trace)
    out: List[Divergence] = []
    eager_digest = counter_digest(eager.instances)
    replay_digest = counter_digest(replay.instances)
    if eager_digest != replay_digest:
        out.append(Divergence(
            kind="compiled_divergence", op="",
            detail=f"counter digests differ eager vs compiled "
                   f"({eager_digest[:12]} vs {replay_digest[:12]})"))
    if (eager.status, eager.error) != (replay.status, replay.error):
        out.append(Divergence(
            kind="compiled_divergence",
            op=replay.error_op or eager.error_op,
            detail=f"terminal state differs eager vs compiled: "
                   f"{eager.status}/{eager.error!r} vs "
                   f"{replay.status}/{replay.error!r}"))
    for nid, realized in sorted(eager.realized.items()):
        got = replay.realized.get(nid)
        if got != realized:
            op = next((n.op for n in program.nodes if n.nid == nid), "")
            out.append(Divergence(
                kind="compiled_divergence", op=op,
                detail=f"node {nid} realized {realized} eagerly but "
                       f"{got} compiled"))
    return out


# ---------------------------------------------------------------------------
# rule-set construction (harvest + calibration)
# ---------------------------------------------------------------------------

def build_ruleset(harvest: Optional[Sequence[str]] = None,
                  seed: int = 0,
                  calibrate: bool = True) -> RuleSet:
    """Infer rules from the workload harvest plus a calibration sweep.

    The calibration sweep executes the generator's own per-op programs
    (seeds offset far from user fuzzing seeds) and folds their
    instances into inference.  Rules therefore generalize over the
    generator's shape distribution *before* fresh programs are judged
    against them — a relation that only held for one workload's shapes
    is pruned here instead of surfacing later as a false divergence.
    """
    names = tuple(harvest) if harvest is not None else DEFAULT_HARVEST
    instances = harvest_roster(names, seed=seed)
    if calibrate:
        for program in calibration_programs(seed):
            run = execute_program(program)
            # even classified stops contribute their executed prefix
            instances.extend(run.instances)
    kept, stats = filter_instances(instances)
    return infer_rules(kept, stats)


def harvested_universe(rules: RuleSet) -> List[str]:
    """Generatable registry keys backed by at least one inferred rule."""
    return op_universe(sorted(rules.rules))
