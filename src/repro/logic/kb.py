"""Ground knowledge base with Horn-rule forward chaining.

The discrete "logic rules" substrate (Table II, ABL row): a fact store
of ground atoms plus definite Horn clauses, evaluated by forward
chaining in naive rounds to a fixpoint.  Workloads use it for
abductive-style rule evaluation and for generating inference workloads
whose runtime is dominated by host-side control flow — the behaviour
the paper's "Others" operator category captures.

The engine reports work statistics (rule applications, joins, facts
derived) so the instrumentation layer can account its cost honestly.
The joins it counts are a nested-loop join's, every (binding, fact)
pair; it executes them as a hash join, which derives the same facts
while touching only the pairs that match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from repro.logic.fol import Atom, Constant, Predicate, Variable
from repro.tensor.errors import TensorOpError

GroundFact = Tuple[str, Tuple[str, ...]]  # (predicate name, constant names)


def _columns(cols: Sequence[int]) -> Callable[[Tuple[str, ...]], Tuple[str, ...]]:
    """A function taking the entries ``cols`` of a tuple, as a tuple."""
    if len(cols) == 1:
        col = cols[0]
        return lambda row: (row[col],)
    return itemgetter(*cols) if cols else lambda row: ()


@dataclass(frozen=True)
class HornRule:
    """``head :- body1, ..., bodyN`` over (possibly variable) atoms."""

    head: Atom
    body: Tuple[Atom, ...]

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}"


@dataclass
class ChainStats:
    """Work counters from one forward-chaining run.

    ``bindings_tried`` is the nested-loop join's work: the (binding,
    fact) pairs it would try, although the hash join that runs only
    visits the pairs that match.
    """

    iterations: int = 0
    rule_applications: int = 0
    bindings_tried: int = 0
    facts_derived: int = 0

    @property
    def total_work(self) -> int:
        return self.rule_applications + self.bindings_tried


class KnowledgeBase:
    """Fact store + Horn rules + forward chaining in naive rounds."""

    def __init__(self) -> None:
        self._facts: Dict[str, Set[Tuple[str, ...]]] = {}
        self.rules: List[HornRule] = []

    def __deepcopy__(self, memo: Dict[int, object]) -> "KnowledgeBase":
        """A copy whose facts and rules can grow apart from this one's.

        Facts are tuples of strings and rules are frozen, so the copy
        shares them and builds only new fact sets and a new rules list,
        instead of rebuilding each rule atom by atom.
        """
        copy = KnowledgeBase()
        copy._facts = {predicate: set(facts)
                       for predicate, facts in self._facts.items()}
        copy.rules = list(self.rules)
        memo[id(self)] = copy
        return copy

    # -- facts -----------------------------------------------------------
    def add_fact(self, predicate: str, *constants: str) -> None:
        self._facts.setdefault(predicate, set()).add(tuple(constants))

    def has_fact(self, predicate: str, *constants: str) -> bool:
        return tuple(constants) in self._facts.get(predicate, ())

    def facts(self, predicate: Optional[str] = None) -> List[GroundFact]:
        if predicate is not None:
            return [(predicate, args) for args in sorted(self._facts.get(predicate, ()))]
        out: List[GroundFact] = []
        for pred in sorted(self._facts):
            out.extend((pred, args) for args in sorted(self._facts[pred]))
        return out

    @property
    def num_facts(self) -> int:
        return sum(len(v) for v in self._facts.values())

    def constants(self) -> List[str]:
        """All constant names appearing in any fact."""
        seen: Set[str] = set()
        for args_set in self._facts.values():
            for args in args_set:
                seen.update(args)
        return sorted(seen)

    # -- rules -----------------------------------------------------------
    def add_rule(self, rule: HornRule) -> None:
        """Add a Horn rule; rejects non-range-restricted rules.

        A head variable that never occurs in the body (including the
        degenerate empty-body rule) would be unbound at derivation
        time and previously surfaced as a raw ``KeyError`` deep inside
        :meth:`forward_chain`; refuse it up front with a classified
        error instead.
        """
        body_vars: Set[Variable] = set()
        for atom in rule.body:
            body_vars |= {t for t in atom.terms if isinstance(t, Variable)}
        loose = {t for t in rule.head.terms
                 if isinstance(t, Variable)} - body_vars
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise TensorOpError(
                f"rule {rule} is not range-restricted: head variable(s) "
                f"{names} never bound by the body", op_name="add_rule")
        self.rules.append(rule)

    # -- inference ---------------------------------------------------------
    def forward_chain(self, max_iterations: int = 50) -> ChainStats:
        """Derive facts to fixpoint (or until ``max_iterations``).

        Naive rounds: each round joins every rule's body against the
        whole fact store, and the round's new facts enter the store
        only after every rule has run; a round that derives nothing
        ends the run.  The work counted is the nested-loop join's (see
        :meth:`_bindings`), executed as a hash join — the paper
        characterizes this irregular, control-heavy symbolic execution
        by its counters, not by how fast the host runs it.
        """
        stats = ChainStats()
        for _ in range(max_iterations):
            stats.iterations += 1
            new_facts: List[GroundFact] = []
            for rule in self.rules:
                stats.rule_applications += 1
                slots, rows = self._bindings(rule.body, stats)
                if not rows:
                    continue
                # the head's constants are read as columns after a row's
                cols: List[int] = []
                consts: List[str] = []
                for term in rule.head.terms:
                    if isinstance(term, Variable):
                        cols.append(slots[term])
                    else:
                        cols.append(len(slots) + len(consts))
                        consts.append(term.name)
                head_of, tail = _columns(cols), tuple(consts)
                pred = rule.head.predicate.name
                known = self._facts.get(pred, ())
                for row in rows:
                    head_args = head_of(row + tail)
                    if head_args not in known:
                        new_facts.append((pred, head_args))
            if not new_facts:
                break
            for pred, args in new_facts:
                if not self.has_fact(pred, *args):
                    self.add_fact(pred, *args)
                    stats.facts_derived += 1
        return stats

    def _bindings(self, body: Sequence[Atom], stats: ChainStats
                  ) -> Tuple[Dict[Variable, int], List[Tuple[str, ...]]]:
        """Every binding satisfying ``body``, by hash join.

        A binding is a row of constant names, one column per variable
        (``slots`` maps each variable to its column, in order of first
        occurrence).  Each atom indexes its predicate's facts once,
        keyed by the positions holding an already-bound variable; a
        position holding a constant, or repeating a variable the atom
        itself binds, filters facts out of the index.  Each row then
        extends only by the facts under its own key, in fact order, so
        the rows come out in the nested-loop join's order.

        ``stats.bindings_tried`` counts the (binding, fact) pairs the
        nested-loop join tries: every pair of each atom, up to the atom
        that leaves no binding.
        """
        slots: Dict[Variable, int] = {}
        rows: List[Tuple[str, ...]] = [()]
        for atom in body:
            facts = self._facts.get(atom.predicate.name, ())
            stats.bindings_tried += len(rows) * len(facts)
            fixed: List[Tuple[int, str]] = []   # (position, constant)
            probe: List[int] = []               # positions of bound variables
            probe_cols: List[int] = []          # ... and their columns
            first: Dict[Variable, int] = {}     # new variable -> first position
            same: List[Tuple[int, int]] = []    # (position, first position)
            for pos, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    fixed.append((pos, term.name))
                elif term in slots:
                    probe.append(pos)
                    probe_cols.append(slots[term])
                elif term in first:
                    same.append((pos, first[term]))
                else:
                    first[term] = pos
            if fixed or same:
                facts = [args for args in facts
                         if all(args[p] == c for p, c in fixed)
                         and all(args[p] == args[q] for p, q in same)]
            key_of, ext_of = _columns(probe), _columns(list(first.values()))
            index: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
            for args in facts:
                index.setdefault(key_of(args), []).append(ext_of(args))
            row_key = _columns(probe_cols)
            rows = [row + ext for row in rows
                    for ext in index.get(row_key(row), ())]
            for term in first:
                slots[term] = len(slots)
            if not rows:
                break
        return slots, rows

    # -- queries -----------------------------------------------------------
    def query(self, atom: Atom) -> List[Dict[Variable, str]]:
        """All bindings making ``atom`` true against current facts."""
        slots, rows = self._bindings((atom,), ChainStats())
        return [dict(zip(slots, row)) for row in rows]
