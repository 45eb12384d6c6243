"""Per-op shape/dtype/counter transfer rules inferred from instances.

The Dynofuzz-style rule engine: for every canonical op it fits

* **shape relations** — structural predicates (identity, broadcast,
  rank/size preservation, matmul/FFT shape laws ...) kept only when
  they hold on *every* harvested instance of the op;
* **dtype relations** — output dtype preserved from the first input,
  or constant;
* **counter models** — exact symbolic fits of the recorded counters:
  ``flops = c * basis(instance)`` over a small basis-function library
  (output size, input size, matmul ``k * out``, n·log n, constant),
  and affine models for bytes read/written anchored on the exact
  input/output byte counts.

A rule survives only if it is consistent with **all** instances; where
no exact counter model fits, observed bounds are recorded instead
(reported by ``repro fuzz rules`` but not enforced by the oracle —
enforcing harvest-specific bounds on novel generated shapes would
manufacture false divergences).

The differential oracle (:mod:`repro.fuzz.oracle`) replays generated
programs and asserts every fresh instance still satisfies the
surviving rules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fuzz.records import SCALAR_DTYPE, OpInstance

#: absolute + relative tolerance for counter-model equality: counters
#: are float64 arithmetic over exact integers, so this only absorbs
#: benign accumulation error, never a wrong model
_ATOL = 1e-6
_RTOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _ATOL + _RTOL * max(abs(a), abs(b))


def _itemsize(dtype: str) -> int:
    if dtype == SCALAR_DTYPE:
        return 8
    return int(np.dtype(dtype).itemsize)


# ---------------------------------------------------------------------------
# shape relations
# ---------------------------------------------------------------------------

def _rel_identity(inst: OpInstance) -> bool:
    return bool(inst.input_shapes) and inst.output_shape == inst.input_shapes[0]


def _rel_broadcast(inst: OpInstance) -> bool:
    if not inst.input_shapes:
        return False
    try:
        return tuple(np.broadcast_shapes(*inst.input_shapes)) == inst.output_shape
    except ValueError:
        return False


def _rel_scalar_output(inst: OpInstance) -> bool:
    return inst.output_shape == ()


def _rel_rank_preserved(inst: OpInstance) -> bool:
    return (bool(inst.input_shapes)
            and len(inst.output_shape) == len(inst.input_shapes[0]))


def _rel_rank_le(inst: OpInstance) -> bool:
    return (bool(inst.input_shapes)
            and len(inst.output_shape) <= len(inst.input_shapes[0]))


def _rel_size_preserved(inst: OpInstance) -> bool:
    return (bool(inst.input_shapes)
            and inst.out_size == inst.input_size(0))


def _rel_size_le(inst: OpInstance) -> bool:
    if not inst.input_shapes:
        return False
    total = sum(inst.input_size(i) for i in range(len(inst.input_shapes)))
    if total == 0:
        # vacuous: reductions of empty inputs legally produce identity
        # elements (prod of zero elements is 1), so size comparison
        # carries no information
        return True
    return inst.out_size <= total


def _rel_last_dim_preserved(inst: OpInstance) -> bool:
    if not inst.input_shapes:
        return False
    if not inst.input_shapes[0] or not inst.output_shape:
        return True            # vacuous: one side has no last dim
    return inst.output_shape[-1] == inst.input_shapes[0][-1]


def _rel_matmul_shape(inst: OpInstance) -> bool:
    if len(inst.input_shapes) < 2:
        return False
    sa, sb = inst.input_shapes[0], inst.input_shapes[1]
    if not sa or not sb:
        return True            # vacuous: rank-0 operands never matmul
    if len(sa) == 1 and len(sb) == 1:
        return sa == sb and inst.output_shape == ()
    try:
        rows = sa[-2] if len(sa) >= 2 else ()
        cols = sb[-1] if len(sb) >= 2 else ()
        batch = tuple(np.broadcast_shapes(sa[:-2], sb[:-2]))
    except ValueError:
        return False
    core: Tuple[int, ...] = ()
    if len(sa) >= 2:
        core += (rows,)          # type: ignore[operator]
    if len(sb) >= 2:
        core += (cols,)          # type: ignore[operator]
    return inst.output_shape == batch + core


def _rel_rfft_half(inst: OpInstance) -> bool:
    if not inst.input_shapes:
        return False
    if not inst.input_shapes[0]:
        return True            # vacuous: no transform axis on rank-0
    sin = inst.input_shapes[0]
    return inst.output_shape == sin[:-1] + (sin[-1] // 2 + 1,)


#: name -> predicate; a relation survives iff true on every instance
SHAPE_RELATIONS: Dict[str, Callable[[OpInstance], bool]] = {
    "identity": _rel_identity,
    "broadcast": _rel_broadcast,
    "scalar_output": _rel_scalar_output,
    "rank_preserved": _rel_rank_preserved,
    "rank_le": _rel_rank_le,
    "size_preserved": _rel_size_preserved,
    "size_le_inputs": _rel_size_le,
    "last_dim_preserved": _rel_last_dim_preserved,
    "matmul_shape": _rel_matmul_shape,
    "rfft_half_spectrum": _rel_rfft_half,
}


# ---------------------------------------------------------------------------
# counter bases
# ---------------------------------------------------------------------------

def _basis_out_size(inst: OpInstance) -> Optional[float]:
    return float(inst.out_size)


def _basis_in0_size(inst: OpInstance) -> Optional[float]:
    return float(inst.input_size(0)) if inst.input_shapes else None


def _basis_in_total(inst: OpInstance) -> Optional[float]:
    if not inst.input_shapes:
        return None
    return float(sum(inst.input_size(i)
                     for i in range(len(inst.input_shapes))))


def _basis_matmul(inst: OpInstance) -> Optional[float]:
    if not inst.input_shapes or not inst.input_shapes[0]:
        return None
    k = inst.input_shapes[0][-1]
    if inst.output_shape == ():  # vector·vector: 2k flops ≡ k * 1 out elem
        return float(k)
    return float(k * inst.out_size)


def _basis_nlogn(inst: OpInstance) -> Optional[float]:
    if not inst.input_shapes or not inst.input_shapes[0]:
        return None
    n = inst.input_shapes[0][-1]
    return float(inst.input_size(0)) * math.log2(n if n > 1 else 2)


#: ordered: the first basis that fits exactly names the counter model
FLOP_BASES: Tuple[Tuple[str, Callable[[OpInstance], Optional[float]]], ...] = (
    ("out_size", _basis_out_size),
    ("in0_size", _basis_in0_size),
    ("in_total_size", _basis_in_total),
    ("matmul_k_out", _basis_matmul),
    ("nlogn_last", _basis_nlogn),
)


def _fit_linear(instances: Sequence[OpInstance],
                basis: Callable[[OpInstance], Optional[float]],
                value: Callable[[OpInstance], float]
                ) -> Optional[float]:
    """Coefficient c with value == c * basis on every instance, or None."""
    coeff: Optional[float] = None
    pairs: List[Tuple[float, float]] = []
    for inst in instances:
        b = basis(inst)
        if b is None:
            return None
        v = value(inst)
        if b == 0.0:
            if not _close(v, 0.0):
                return None
            continue
        if coeff is None:
            coeff = v / b
        pairs.append((b, v))
    if coeff is None:       # every basis value was 0: nothing to anchor on
        return None
    for b, v in pairs:
        if not _close(v, coeff * b):
            return None
    return coeff


def _fit_constant(instances: Sequence[OpInstance],
                  value: Callable[[OpInstance], float]) -> Optional[float]:
    first = value(instances[0])
    for inst in instances[1:]:
        if not _close(value(inst), first):
            return None
    return first


def _out_nbytes(inst: OpInstance) -> float:
    return float(inst.out_size * _itemsize(inst.output_dtype))


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@dataclass
class OpRule:
    """Everything inferred about one canonical op."""

    name: str
    category: str
    instances: int
    shape_relations: Tuple[str, ...] = ()
    dtype_rule: Optional[Tuple[str, str]] = None      # (kind, value)
    flops_model: Optional[Tuple[str, float]] = None   # (basis, coeff)
    flops_bounds: Optional[Tuple[float, float]] = None
    read_delta: Optional[float] = None    # bytes_read - input_nbytes
    written_delta: Optional[float] = None  # bytes_written - out_nbytes
    written_const: Optional[float] = None

    # -- checking -------------------------------------------------------------
    def check(self, inst: OpInstance) -> List[str]:
        """Violation messages for ``inst`` against the inferred rules."""
        problems: List[str] = []
        if not inst.finite():
            problems.append(
                f"{self.name}: non-finite counters (flops={inst.flops}, "
                f"sparsity={inst.output_sparsity})")
        if not 0.0 <= inst.output_sparsity <= 1.0 and math.isfinite(
                inst.output_sparsity):
            problems.append(
                f"{self.name}: sparsity {inst.output_sparsity} outside [0, 1]")
        for rel in self.shape_relations:
            if not SHAPE_RELATIONS[rel](inst):
                problems.append(
                    f"{self.name}: shape relation {rel!r} violated "
                    f"({inst.input_shapes} -> {inst.output_shape})")
        if self.dtype_rule is not None:
            kind, val = self.dtype_rule
            if kind == "preserved":
                if inst.input_dtypes and inst.output_dtype != inst.input_dtypes[0]:
                    problems.append(
                        f"{self.name}: output dtype {inst.output_dtype} "
                        f"!= first input dtype {inst.input_dtypes[0]}")
            elif inst.output_dtype != val:
                problems.append(
                    f"{self.name}: output dtype {inst.output_dtype} "
                    f"!= inferred constant {val}")
        if self.flops_model is not None:
            basis_name, coeff = self.flops_model
            if basis_name == "const":
                b: Optional[float] = 1.0
            else:
                b = dict(FLOP_BASES)[basis_name](inst)
            if b is not None and not _close(inst.flops, coeff * b):
                problems.append(
                    f"{self.name}: flops {inst.flops} != {coeff:g} * "
                    f"{basis_name} ({b:g}) = {coeff * b:g}")
        if self.read_delta is not None and not _close(
                float(inst.bytes_read), inst.input_nbytes + self.read_delta):
            problems.append(
                f"{self.name}: bytes_read {inst.bytes_read} != "
                f"input_nbytes {inst.input_nbytes} + {self.read_delta:g}")
        if self.written_delta is not None and not _close(
                float(inst.bytes_written),
                _out_nbytes(inst) + self.written_delta):
            problems.append(
                f"{self.name}: bytes_written {inst.bytes_written} != "
                f"out_nbytes {_out_nbytes(inst):g} + {self.written_delta:g}")
        elif self.written_delta is None and self.written_const is not None \
                and not _close(float(inst.bytes_written), self.written_const):
            problems.append(
                f"{self.name}: bytes_written {inst.bytes_written} != "
                f"inferred constant {self.written_const:g}")
        return problems

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "category": self.category,
            "instances": self.instances,
            "shape_relations": list(self.shape_relations),
            "dtype_rule": list(self.dtype_rule) if self.dtype_rule else None,
            "flops_model": ([self.flops_model[0], self.flops_model[1]]
                            if self.flops_model else None),
            "flops_bounds": (list(self.flops_bounds)
                             if self.flops_bounds else None),
            "read_delta": self.read_delta,
            "written_delta": self.written_delta,
            "written_const": self.written_const,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OpRule":
        def _pair(value: object) -> Optional[Tuple[object, object]]:
            return tuple(value) if value is not None else None  # type: ignore[return-value]
        return cls(
            name=str(data["name"]), category=str(data["category"]),
            instances=int(data["instances"]),  # type: ignore[arg-type]
            shape_relations=tuple(data.get("shape_relations") or ()),  # type: ignore[arg-type]
            dtype_rule=_pair(data.get("dtype_rule")),  # type: ignore[arg-type]
            flops_model=_pair(data.get("flops_model")),  # type: ignore[arg-type]
            flops_bounds=_pair(data.get("flops_bounds")),  # type: ignore[arg-type]
            read_delta=data.get("read_delta"),  # type: ignore[arg-type]
            written_delta=data.get("written_delta"),  # type: ignore[arg-type]
            written_const=data.get("written_const"),  # type: ignore[arg-type]
        )


@dataclass
class RuleSet:
    """All inferred op rules plus the filter stats that produced them."""

    rules: Dict[str, OpRule] = field(default_factory=dict)
    filter_stats: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, name: str) -> bool:
        return name in self.rules

    def check_instance(self, inst: OpInstance) -> List[str]:
        """Violations of ``inst`` against its op's rule (none if unseen)."""
        rule = self.rules.get(inst.name)
        if rule is None:
            return []
        return rule.check(inst)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "filter_stats": self.filter_stats,
            "rules": [self.rules[name].to_dict()
                      for name in sorted(self.rules)],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RuleSet":
        data = json.loads(text)
        rules = {entry["name"]: OpRule.from_dict(entry)
                 for entry in data.get("rules", [])}
        return cls(rules=rules, filter_stats=data.get("filter_stats", {}))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RuleSet":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def render(self) -> str:
        """Human-readable rules report (``repro fuzz rules``)."""
        lines = [f"inferred rules for {len(self.rules)} ops "
                 f"(filter: {self.filter_stats})"]
        for name in sorted(self.rules):
            rule = self.rules[name]
            flops = (f"{rule.flops_model[1]:g}*{rule.flops_model[0]}"
                     if rule.flops_model else
                     (f"bounds[{rule.flops_bounds[0]:g}, "
                      f"{rule.flops_bounds[1]:g}]/out_elem"
                      if rule.flops_bounds else "-"))
            dtype = ("=".join(rule.dtype_rule) if rule.dtype_rule else "-")
            lines.append(
                f"  {name:<18s} n={rule.instances:<4d} "
                f"shapes[{', '.join(rule.shape_relations) or '-'}] "
                f"flops={flops} dtype={dtype}")
        return "\n".join(lines)


def infer_rule(name: str, instances: Sequence[OpInstance]) -> OpRule:
    """Fit one op's rule from its (filtered) instances."""
    relations = tuple(rel for rel, pred in SHAPE_RELATIONS.items()
                      if all(pred(inst) for inst in instances))

    dtype_rule: Optional[Tuple[str, str]] = None
    if all(inst.input_dtypes
           and inst.output_dtype == inst.input_dtypes[0]
           for inst in instances):
        dtype_rule = ("preserved", "")
    else:
        const = {inst.output_dtype for inst in instances}
        if len(const) == 1:
            dtype_rule = ("constant", next(iter(const)))

    flops_model: Optional[Tuple[str, float]] = None
    for basis_name, basis_fn in FLOP_BASES:
        coeff = _fit_linear(instances, basis_fn,
                            lambda inst: inst.flops)
        if coeff is not None:
            flops_model = (basis_name, coeff)
            break
    if flops_model is None:
        const = _fit_constant(instances, lambda inst: inst.flops)
        if const is not None:
            flops_model = ("const", const)

    flops_bounds: Optional[Tuple[float, float]] = None
    if flops_model is None:
        ratios = [inst.flops / inst.out_size
                  for inst in instances if inst.out_size]
        if ratios:
            flops_bounds = (min(ratios), max(ratios))

    read_delta = _fit_constant(
        instances, lambda inst: float(inst.bytes_read) - inst.input_nbytes)
    written_delta = _fit_constant(
        instances, lambda inst: float(inst.bytes_written) - _out_nbytes(inst))
    written_const = None
    if written_delta is None:
        written_const = _fit_constant(
            instances, lambda inst: float(inst.bytes_written))

    return OpRule(
        name=name, category=instances[0].category,
        instances=len(instances), shape_relations=relations,
        dtype_rule=dtype_rule, flops_model=flops_model,
        flops_bounds=flops_bounds, read_delta=read_delta,
        written_delta=written_delta, written_const=written_const)


def infer_rules(instances: Sequence[OpInstance],
                filter_stats: Optional[Dict[str, int]] = None) -> RuleSet:
    """Group filtered instances by canonical op and fit each rule."""
    grouped: Dict[str, List[OpInstance]] = {}
    for inst in instances:
        grouped.setdefault(inst.name, []).append(inst)
    rules = {name: infer_rule(name, group)
             for name, group in grouped.items()}
    return RuleSet(rules=rules, filter_stats=dict(filter_stats or {}))
