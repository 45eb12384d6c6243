"""Logical Neural Network (LNN) theorem proving.

LNN (paper Sec. III-B) puts a neuron in one-to-one correspondence with
every element of a logical formula; weights are constrained so neurons
act as (weighted) Lukasiewicz connectives, and every proposition
carries a truth *interval* ``[L, U]``.  Inference is **bidirectional**:

* **upward pass** (neural phase) — evaluate formula neurons from their
  grounded-atom inputs: gather atom bounds over the grounding grid,
  combine through weighted fuzzy connectives (vector/element-wise ops,
  plus the gather/scatter data movement the paper highlights for LNN);
* **downward pass** (symbolic phase) — functional inverses of the
  connectives push the asserted formula truth back onto subformulas
  (modus ponens / tollens over intervals), tightening atom bounds,
  with discrete Horn-rule forward chaining over the knowledge base as
  the theorem-prover control loop ("Others" category work).

The task is LUBM-flavoured: a university knowledge base plus
universally-quantified implications; inference runs to a bound
fixpoint, proving derived relations (e.g. ``taught_by``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets.kb_gen import university_kb
from repro.tensor.dispatch import record_region, run_op
from repro.tensor.tensor import Tensor
from repro.workloads.base import Workload, WorkloadInfo, register


#: Each predicate's argument domains, position by position.  A table's
#: keys are the row-major product of its position domains, so the row
#: of one grounding is its per-position domain indices ravelled over
#: the domain sizes.
PREDICATE_DOMAINS: Dict[str, Tuple[str, ...]] = {
    "takes": ("stud", "course"),
    "teaches": ("prof", "course"),
    "advises": ("prof", "stud"),
    "taught_by": ("stud", "prof"),
    "classmate": ("stud", "stud"),
    "academic_contact": ("stud", "prof"),
}


@dataclass
class GroundAtomRef:
    """One atom of a compiled formula: predicate + gather indices."""

    predicate: str
    gather: np.ndarray    # (num_groundings,) indices into the pred table
    negated: bool = False


@dataclass
class CompiledRule:
    """``AND(body...) -> head`` grounded over a typed variable grid."""

    name: str
    body: List[GroundAtomRef]
    head: GroundAtomRef
    num_groundings: int


class PredicateTable:
    """Truth bounds of every grounding of one predicate."""

    def __init__(self, name: str, size: int):
        self.name = name
        self.lower = np.zeros(size, dtype=np.float32)
        self.upper = np.ones(size, dtype=np.float32)
        # tensor handles carrying trace provenance across inference
        # passes (set by the workload at run start)
        self.lower_t: Optional[Tensor] = None
        self.upper_t: Optional[Tensor] = None

    def assert_facts(self, rows: np.ndarray) -> None:
        """Make the groundings at ``rows`` exactly true."""
        self.lower[rows] = 1.0
        self.upper[rows] = 1.0

    def close_world(self) -> None:
        """Unknowns default to false-ish upper bounds except asserted."""
        mask = self.lower < 0.5
        self.upper[mask] = np.minimum(self.upper[mask], 0.0)

    @property
    def size(self) -> int:
        return self.lower.size


@register("lnn")
class LNNWorkload(Workload):
    """LNN theorem proving over an LUBM-like knowledge base."""

    info = WorkloadInfo(
        name="lnn",
        full_name="Logical Neural Network",
        paradigm=NSParadigm.NEURO_SYMBOLIC_TO_NEURO,
        learning_approach="Supervised",
        application="Learning and reasoning, Full theorem prover",
        advantage=("Higher interpretability, resilience to incomplete "
                   "knowledge, generalization"),
        datasets=("LUBM benchmark", "TPTP benchmark"),
        datatype="FP32",
        neural_workload="Graph (formula neurons)",
        symbolic_workload="Fuzzy first-order logic, bound propagation",
    )

    def __init__(self, num_departments: int = 2, professors_per_dept: int = 4,
                 students_per_dept: int = 12, courses_per_dept: int = 6,
                 max_passes: int = 6, seed: int = 0):
        super().__init__(num_departments=num_departments,
                         professors_per_dept=professors_per_dept,
                         students_per_dept=students_per_dept,
                         courses_per_dept=courses_per_dept,
                         max_passes=max_passes, seed=seed)
        self.num_departments = num_departments
        self.professors_per_dept = professors_per_dept
        self.students_per_dept = students_per_dept
        self.courses_per_dept = courses_per_dept
        self.max_passes = max_passes
        self.seed = seed

    # -- construction -----------------------------------------------------
    def _build(self) -> None:
        self.kb = university_kb(
            num_departments=self.num_departments,
            professors_per_dept=self.professors_per_dept,
            students_per_dept=self.students_per_dept,
            courses_per_dept=self.courses_per_dept,
            seed=self.seed)

        profs = sorted({f[1][0] for f in self.kb.facts("professor")})
        studs = sorted({f[1][0] for f in self.kb.facts("student")})
        crses = sorted({f[1][0] for f in self.kb.facts("course")})
        self.domains = {"prof": profs, "stud": studs, "course": crses}

        self.tables: Dict[str, PredicateTable] = {
            pred: PredicateTable(pred, math.prod(self._shape(pred)))
            for pred in PREDICATE_DOMAINS
        }
        # assert the facts at their rows, by grounding's index arithmetic
        for pred in ("takes", "teaches", "advises"):
            facts = [args for _, args in self.kb.facts(pred)]
            positions = [self._positions(domain, [args[i] for args in facts])
                         for i, domain in enumerate(PREDICATE_DOMAINS[pred])]
            table = self.tables[pred]
            table.assert_facts(np.ravel_multi_index(positions,
                                                    self._shape(pred)))
            table.close_world()

        self.rules = [
            self._compile_rule(
                "taught_by_rule",
                body=[("takes", ("x", "z")), ("teaches", ("y", "z"))],
                head=("taught_by", ("x", "y")),
                variables={"x": "stud", "y": "prof", "z": "course"}),
            self._compile_rule(
                "classmate_rule",
                body=[("takes", ("x", "z")), ("takes", ("y", "z"))],
                head=("classmate", ("x", "y")),
                variables={"x": "stud", "y": "stud", "z": "course"}),
            self._compile_rule(
                "contact_taught",
                body=[("taught_by", ("x", "y"))],
                head=("academic_contact", ("x", "y")),
                variables={"x": "stud", "y": "prof"}),
            self._compile_rule(
                "contact_advised",
                body=[("advises", ("y", "x"))],
                head=("academic_contact", ("x", "y")),
                variables={"x": "stud", "y": "prof"}),
        ]
        # near-logical neuron weights (w == 1 is exact logic)
        rng = np.random.default_rng(self.seed)
        self.weights = {
            rule.name: rng.uniform(0.98, 1.02, len(rule.body)).astype(
                np.float32)
            for rule in self.rules
        }

    def _compile_rule(self, name: str,
                      body: List[Tuple[str, Tuple[str, ...]]],
                      head: Tuple[str, Tuple[str, ...]],
                      variables: Dict[str, str]) -> CompiledRule:
        """Ground a rule over the cartesian grid of its typed variables.

        ``variables`` maps each variable to its domain's name.  An
        atom's rows are index arithmetic: each argument's grid index is
        mapped onto the table's domain at that position, and the
        positions are ravelled row-major over the table's domain sizes
        (:data:`PREDICATE_DOMAINS`).  A constant missing from the
        table's domain raises ``KeyError``.
        """
        var_names = list(variables)
        grids = np.meshgrid(*[np.arange(len(self.domains[variables[v]]))
                              for v in var_names], indexing="ij")
        flat = {v: g.reshape(-1) for v, g in zip(var_names, grids)}

        def gather_for(pred: str, args: Tuple[str, ...]) -> GroundAtomRef:
            positions = [
                self._positions(domain, self.domains[variables[v]])[flat[v]]
                for v, domain in zip(args, PREDICATE_DOMAINS[pred])]
            return GroundAtomRef(pred, np.ravel_multi_index(
                positions, self._shape(pred)))

        return CompiledRule(
            name=name,
            body=[gather_for(p, a) for p, a in body],
            head=gather_for(*head),
            num_groundings=flat[var_names[0]].size,
        )

    def _shape(self, pred: str) -> Tuple[int, ...]:
        """The sizes of ``pred``'s position domains: its table's shape."""
        return tuple(len(self.domains[d]) for d in PREDICATE_DOMAINS[pred])

    def _positions(self, domain: str, names: Sequence[str]) -> np.ndarray:
        """Each name's index in ``domain`` (``KeyError`` outside it)."""
        where = {key: i for i, key in enumerate(self.domains[domain])}
        return np.array([where[key] for key in names], dtype=np.int64)

    def parameter_bytes(self) -> int:
        return sum(w.nbytes for w in self.weights.values())

    def codebook_bytes(self) -> int:
        return sum(t.lower.nbytes + t.upper.nbytes
                   for t in self.tables.values())

    # -- inference passes ----------------------------------------------------
    def _upward(self) -> Dict[str, Tuple[Tensor, Tensor]]:
        """Evaluate every rule neuron: weighted Lukasiewicz AND of the
        body, grounded; returns (lower, upper) bounds per rule."""
        out: Dict[str, Tuple[Tensor, Tensor]] = {}
        for rule in self.rules:
            weights = self.weights[rule.name]
            lower: Optional[Tensor] = None
            upper: Optional[Tensor] = None
            bias = T.tensor(np.float32(1.0 - float(weights.sum())))
            for atom, weight in zip(rule.body, weights):
                table = self.tables[atom.predicate]
                gather = T.tensor(atom.gather, dtype=np.int64)
                a_low = T.take(table.lower_t, gather)
                a_up = T.take(table.upper_t, gather)
                w_low = T.mul(float(weight), a_low)
                w_up = T.mul(float(weight), a_up)
                lower = w_low if lower is None else T.add(lower, w_low)
                upper = w_up if upper is None else T.add(upper, w_up)
            lower = T.relu(T.add(lower, bias))
            upper = T.relu(T.add(upper, bias))
            out[rule.name] = (lower, upper)
        return out

    def _downward(self, body_bounds: Dict[str, Tuple[Tensor, Tensor]]) -> float:
        """Modus ponens: push each rule's implication (asserted true)
        onto its head predicate; returns the largest bound change."""
        max_delta = 0.0
        for rule in self.rules:
            body_low, _ = body_bounds[rule.name]
            # implication asserted [1,1]: head.lower >= body.lower
            head_table = self.tables[rule.head.predicate]
            new_lower = body_low

            def _scatter(values: np.ndarray, current: np.ndarray,
                         idx: np.ndarray = rule.head.gather) -> np.ndarray:
                out = current.copy()
                np.maximum.at(out, idx, values)
                return out

            updated = run_op("scatter_max", _scatter,
                             [new_lower, head_table.lower_t],
                             flops=float(new_lower.size))
            delta = float(np.max(np.abs(
                updated.numpy() - head_table.lower)))
            max_delta = max(max_delta, delta)
            head_table.lower = updated.numpy()
            head_table.lower_t = updated
            head_table.upper = np.maximum(head_table.upper,
                                          head_table.lower)
            head_table.upper_t = T.maximum(head_table.upper_t, updated)

            # modus tollens: a false head bounds the body atoms from
            # above — the omnidirectional-inference half of LNN
            max_delta = max(max_delta, self._downward_tollens(rule))
        return max_delta

    def _downward_tollens(self, rule: CompiledRule) -> float:
        """Push the head's upper bound back onto each body atom."""
        head_table = self.tables[rule.head.predicate]
        head_gather = T.tensor(rule.head.gather, dtype=np.int64)
        head_up = T.take(head_table.upper_t, head_gather)
        max_delta = 0.0
        for i, atom in enumerate(rule.body):
            # lower bound of the conjunction of the *other* body atoms
            others_low: Optional[Tensor] = None
            for j, other in enumerate(rule.body):
                if j == i:
                    continue
                table = self.tables[other.predicate]
                gathered = T.take(table.lower_t,
                                  T.tensor(other.gather, dtype=np.int64))
                others_low = gathered if others_low is None else \
                    T.relu(T.sub(T.add(others_low, gathered), 1.0))
            if others_low is None:
                others_low = T.ones((rule.num_groundings,))
            # Lukasiewicz inverse: atom_i <= head_up + 1 - others_low
            # (informative only where head_up < others_low)
            slack = T.add(T.sub(head_up, others_low), 1.0)
            informative = T.less(head_up, others_low)
            new_upper = T.where(informative,
                                T.clip(slack, 0.0, 1.0),
                                T.ones((rule.num_groundings,)))

            atom_table = self.tables[atom.predicate]

            def _scatter_min(values: np.ndarray, current: np.ndarray,
                             idx: np.ndarray = atom.gather) -> np.ndarray:
                out = current.copy()
                np.minimum.at(out, idx, values)
                return out

            updated = run_op("scatter_min", _scatter_min,
                             [new_upper, atom_table.upper_t],
                             flops=float(new_upper.size))
            delta = float(np.max(np.abs(
                updated.numpy() - atom_table.upper)))
            max_delta = max(max_delta, delta)
            # keep bounds consistent: never drop upper below lower
            atom_table.upper = np.maximum(updated.numpy(),
                                          atom_table.lower)
            atom_table.upper_t = T.maximum(updated,
                                           atom_table.lower_t)
        return max_delta

    # -- run --------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        # fresh tensor handles per run: facts enter the device
        with T.phase("neural"), T.stage("ground_loading"):
            for table in self.tables.values():
                table.lower_t = T.to_device(T.tensor(table.lower), "gpu")
                table.upper_t = T.to_device(T.tensor(table.upper), "gpu")
        converged_at = self.max_passes
        for pass_idx in range(self.max_passes):
            with T.phase("neural"), T.stage("upward"):
                bounds = self._upward()
            with T.phase("symbolic"), T.stage("downward"):
                delta = self._downward(bounds)
                # theorem-prover control: discrete rule chaining over
                # the knowledge base (logic-rule work, Others category)
                if pass_idx == 0:
                    with record_region("kb_forward_chain") as region:
                        stats = self.kb.forward_chain(max_iterations=3)
                        # the engine's actual work counters
                        region.flops = float(stats.total_work)
                        region.bytes_read = stats.bindings_tried * 24
                        region.bytes_written = stats.facts_derived * 24
            if delta < 1e-6 and pass_idx > 0:
                converged_at = pass_idx + 1
                break

        taught = self.tables["taught_by"]
        contact = self.tables["academic_contact"]
        proven_taught = int((taught.lower > 0.5).sum())
        proven_contact = int((contact.lower > 0.5).sum())
        contradictions = int(
            sum((t.lower > t.upper + 1e-6).sum()
                for t in self.tables.values()))
        return {
            "passes": converged_at,
            "proven_taught_by": proven_taught,
            "proven_academic_contact": proven_contact,
            "contradictions": contradictions,
            "groundings": sum(r.num_groundings for r in self.rules),
        }
