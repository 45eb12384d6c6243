"""Harvested operator instances: the raw material of rule inference.

An :class:`OpInstance` is one observed execution of one instrumented
tensor op — input shapes/dtypes, output shape/dtype, and the counter
deltas the dispatcher recorded for it (FLOPs, bytes, sparsity).  The
harvester (:mod:`repro.fuzz.harvest`) collects them by replaying the
workload roster under an op observer; the rule engine
(:mod:`repro.fuzz.rules`) fits per-op transfer rules over them.

Following the Dynofuzz record pipeline, instances pass through two
filters before inference:

* **non-finite filter** — instances whose counters are NaN/Inf (e.g.
  recorded under an injected poison fault) carry no information about
  the healthy counter model and are dropped;
* **duplicate filter** — instances identical in every modeled field
  are collapsed to one; the fitter weighs evidence by distinct
  behaviours, not by how often a workload loops over the same shapes.

Instances serialize to JSONL (one record per line, sorted canonically)
so a harvest is diffable and byte-reproducible across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

Shape = Tuple[int, ...]

#: dtype label recorded for raw python scalars handed to a kernel
SCALAR_DTYPE = "scalar"


@dataclass(frozen=True)
class OpInstance:
    """One observed (inputs -> output, counters) execution of an op."""

    name: str                         # canonical op name (variant stripped)
    raw_name: str                     # as recorded, e.g. "fuzzy_and[godel]"
    category: str                     # taxonomy category value
    input_shapes: Tuple[Shape, ...]
    input_dtypes: Tuple[str, ...]
    input_nbytes: int                 # exact bytes of all inputs
    output_shape: Shape
    output_dtype: str
    flops: float
    bytes_read: int
    bytes_written: int
    output_sparsity: float
    workload: str = ""
    phase: str = ""

    @property
    def out_size(self) -> int:
        size = 1
        for dim in self.output_shape:
            size *= dim
        return size

    def input_size(self, index: int) -> int:
        size = 1
        for dim in self.input_shapes[index]:
            size *= dim
        return size

    def finite(self) -> bool:
        """True when every modeled counter is a finite number."""
        return (math.isfinite(self.flops)
                and math.isfinite(self.output_sparsity)
                and math.isfinite(self.bytes_read)
                and math.isfinite(self.bytes_written))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["input_shapes"] = [list(s) for s in self.input_shapes]
        out["input_dtypes"] = list(self.input_dtypes)
        out["output_shape"] = list(self.output_shape)
        return out

    def dedup_key(self) -> Tuple[object, ...]:
        """Identity under the duplicate filter (workload/phase ignored)."""
        return (self.name, self.raw_name, self.input_shapes,
                self.input_dtypes, self.input_nbytes, self.output_shape,
                self.output_dtype, self.flops, self.bytes_read,
                self.bytes_written, self.output_sparsity)


def filter_instances(instances: Iterable[OpInstance]
                     ) -> Tuple[List[OpInstance], Dict[str, int]]:
    """Apply the non-finite and duplicate filters.

    Returns the surviving instances (first occurrence order) and a
    stats dict: ``{"total", "non_finite", "duplicates", "kept"}``.
    """
    kept: List[OpInstance] = []
    seen: set = set()
    stats = {"total": 0, "non_finite": 0, "duplicates": 0, "kept": 0}
    for inst in instances:
        stats["total"] += 1
        if not inst.finite():
            stats["non_finite"] += 1
            continue
        key = inst.dedup_key()
        if key in seen:
            stats["duplicates"] += 1
            continue
        seen.add(key)
        kept.append(inst)
    stats["kept"] = len(kept)
    return kept, stats


def _canonical_sort_key(inst: OpInstance) -> Tuple[object, ...]:
    return (inst.name, inst.raw_name, inst.input_shapes,
            inst.input_dtypes, inst.output_shape, inst.flops,
            inst.bytes_read, inst.bytes_written, inst.workload,
            inst.phase)


def dump_instances(instances: Sequence[OpInstance]) -> str:
    """Canonical JSONL text for a harvest (sorted, stable separators)."""
    ordered = sorted(instances, key=_canonical_sort_key)
    lines = [json.dumps(inst.to_dict(), sort_keys=True,
                        separators=(",", ":"))
             for inst in ordered]
    return "\n".join(lines) + ("\n" if lines else "")
