"""Tests for the symbolic-logic substrate: fuzzy semantics, FOL AST,
truth bounds, knowledge-base chaining."""

import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic import (And, Atom, Bounds, ChainStats, Constant, Exists,
                         ForAll, HornRule, Implies, KnowledgeBase, Not, Or,
                         Predicate, Variable, count_connectives, fuzzy)
from repro.logic import bounds as B


class TestFuzzy:
    @pytest.mark.parametrize("kind", [fuzzy.LUKASIEWICZ, fuzzy.GOEDEL,
                                      fuzzy.PRODUCT])
    def test_boundary_conditions(self, kind):
        t = fuzzy.t_norm(kind)
        s = fuzzy.t_conorm(kind)
        one = np.array(1.0)
        zero = np.array(0.0)
        x = np.array(0.6)
        assert t(x, one) == pytest.approx(0.6)     # 1 is AND identity
        assert t(x, zero) == pytest.approx(0.0)
        assert s(x, zero) == pytest.approx(0.6)    # 0 is OR identity
        assert s(x, one) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", [fuzzy.LUKASIEWICZ, fuzzy.GOEDEL,
                                      fuzzy.PRODUCT])
    def test_commutativity(self, kind):
        t = fuzzy.t_norm(kind)
        a, b = np.array(0.3), np.array(0.8)
        assert t(a, b) == pytest.approx(t(b, a))

    def test_lukasiewicz_values(self):
        t = fuzzy.t_norm(fuzzy.LUKASIEWICZ)
        assert t(np.array(0.7), np.array(0.7)) == pytest.approx(0.4)
        imp = fuzzy.implication(fuzzy.LUKASIEWICZ)
        assert imp(np.array(0.8), np.array(0.5)) == pytest.approx(0.7)

    def test_residuation_property(self):
        """Goedel: a -> b == 1 iff a <= b."""
        imp = fuzzy.implication(fuzzy.GOEDEL)
        assert imp(np.array(0.3), np.array(0.5)) == pytest.approx(1.0)
        assert imp(np.array(0.5), np.array(0.3)) == pytest.approx(0.3)

    def test_negation_involution(self):
        x = np.array([0.0, 0.25, 1.0])
        np.testing.assert_allclose(fuzzy.negation(fuzzy.negation(x)), x)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            fuzzy.t_norm("bogus")
        with pytest.raises(ValueError):
            fuzzy.t_conorm("bogus")
        with pytest.raises(ValueError):
            fuzzy.implication("bogus")

    def test_forall_exists_limits(self):
        truths = np.array([1.0, 1.0, 1.0])
        assert fuzzy.forall(truths) == pytest.approx(1.0)
        assert fuzzy.exists(truths) == pytest.approx(1.0)
        mixed = np.array([1.0, 0.0])
        assert fuzzy.forall(mixed) < 0.5
        assert fuzzy.exists(mixed) > 0.5

    def test_forall_monotone_in_truths(self):
        low = fuzzy.forall(np.array([0.5, 0.5]))
        high = fuzzy.forall(np.array([0.9, 0.9]))
        assert high > low


class TestFOL:
    def setup_method(self):
        self.x = Variable("x")
        self.y = Variable("y")
        self.p = Predicate("p", 1)
        self.q = Predicate("q", 2)

    def test_atom_construction_and_arity(self):
        atom = self.q(self.x, Constant("a"))
        assert str(atom) == "q(x, a)"
        with pytest.raises(ValueError):
            self.p(self.x, self.y)

    def test_operator_sugar(self):
        f = (self.p(self.x) & self.p(self.y)) | ~self.p(self.x)
        assert isinstance(f, Or)
        assert isinstance(f.left, And)
        assert isinstance(f.right, Not)
        g = self.p(self.x) >> self.p(self.y)
        assert isinstance(g, Implies)

    def test_free_variables_and_quantifiers(self):
        body = self.q(self.x, self.y)
        assert body.free_variables() == {self.x, self.y}
        quantified = ForAll(self.x, body)
        assert quantified.free_variables() == {self.y}
        closed = Exists(self.y, quantified)
        assert closed.free_variables() == frozenset()

    def test_subformulas_and_depth(self):
        f = ForAll(self.x, self.p(self.x) >> self.p(self.x))
        subs = list(f.subformulas())
        assert len(subs) == 4  # forall, implies, atom, atom
        assert f.depth() == 3

    def test_count_connectives(self):
        f = ~(self.p(self.x) & self.p(self.y))
        assert count_connectives(f) == 2

    def test_string_rendering(self):
        f = ForAll(self.x, self.p(self.x) >> ~self.p(self.x))
        assert "forall x" in str(f)
        assert "->" in str(f)


class TestBounds:
    def test_unknown_and_exact(self):
        u = Bounds.unknown((3,))
        assert (u.lower == 0).all() and (u.upper == 1).all()
        e = Bounds.exactly([0.5, 1.0])
        np.testing.assert_allclose(e.width, [0, 0])

    def test_contradiction_detection(self):
        b = Bounds(np.array([0.8]), np.array([0.3]))
        assert b.is_contradictory.all()
        ok = Bounds(np.array([0.2]), np.array([0.9]))
        assert not ok.is_contradictory.any()

    def test_tighten_intersects(self):
        a = Bounds(np.array([0.2]), np.array([0.9]))
        b = Bounds(np.array([0.4]), np.array([0.7]))
        t = a.tighten(b)
        assert t.lower[0] == pytest.approx(0.4)
        assert t.upper[0] == pytest.approx(0.7)

    def test_upward_ops_match_lukasiewicz_on_points(self):
        a = Bounds.exactly(np.array([0.7]))
        b = Bounds.exactly(np.array([0.6]))
        conj = B.and_up(a, b)
        assert conj.lower[0] == pytest.approx(0.3)
        assert conj.upper[0] == pytest.approx(0.3)
        disj = B.or_up(a, b)
        assert disj.upper[0] == pytest.approx(1.0)
        imp = B.implies_up(a, b)
        assert imp.lower[0] == pytest.approx(0.9)

    def test_not_up_swaps(self):
        b = Bounds(np.array([0.2]), np.array([0.7]))
        n = B.not_up(b)
        assert n.lower[0] == pytest.approx(0.3)
        assert n.upper[0] == pytest.approx(0.8)

    def test_modus_ponens(self):
        """A true and (A -> B) true forces B true."""
        rule = Bounds.exactly(np.array([1.0]))
        antecedent = Bounds.exactly(np.array([1.0]))
        consequent = B.implies_down_consequent(rule, antecedent)
        assert consequent.lower[0] == pytest.approx(1.0)

    def test_modus_tollens(self):
        """B false and (A -> B) true forces A false."""
        rule = Bounds.exactly(np.array([1.0]))
        consequent = Bounds.exactly(np.array([0.0]))
        antecedent = B.implies_down_antecedent(rule, consequent)
        assert antecedent.upper[0] == pytest.approx(0.0)

    def test_and_down_recovers_operand(self):
        """(A & B) true with B true forces A true."""
        result = Bounds.exactly(np.array([1.0]))
        other = Bounds.exactly(np.array([1.0]))
        a = B.and_down(result, other)
        assert a.lower[0] == pytest.approx(1.0)

    def test_or_down(self):
        """(A | B) false forces A false."""
        result = Bounds.exactly(np.array([0.0]))
        other = Bounds.unknown((1,))
        a = B.or_down(result, other)
        assert a.upper[0] == pytest.approx(0.0)


class TestKnowledgeBase:
    def _kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.add_fact("parent", "alice", "bob")
        kb.add_fact("parent", "bob", "carol")
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        parent = Predicate("parent", 2)
        grandparent = Predicate("grandparent", 2)
        kb.add_rule(HornRule(grandparent(x, z),
                             (parent(x, y), parent(y, z))))
        return kb

    def test_facts_and_membership(self):
        kb = self._kb()
        assert kb.has_fact("parent", "alice", "bob")
        assert not kb.has_fact("parent", "bob", "alice")
        assert kb.num_facts == 2
        assert kb.constants() == ["alice", "bob", "carol"]

    def test_forward_chain_derives_grandparent(self):
        kb = self._kb()
        stats = kb.forward_chain()
        assert kb.has_fact("grandparent", "alice", "carol")
        assert stats.facts_derived == 1
        assert stats.iterations >= 2  # one to derive, one to fixpoint

    def test_chain_reaches_fixpoint(self):
        kb = self._kb()
        kb.forward_chain()
        before = kb.num_facts
        stats = kb.forward_chain()
        assert kb.num_facts == before
        assert stats.facts_derived == 0

    def test_recursive_rule(self):
        kb = KnowledgeBase()
        for i in range(4):
            kb.add_fact("edge", f"n{i}", f"n{i+1}")
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        edge, path = Predicate("edge", 2), Predicate("path", 2)
        kb.add_rule(HornRule(path(x, y), (edge(x, y),)))
        kb.add_rule(HornRule(path(x, z), (edge(x, y), path(y, z))))
        kb.forward_chain()
        assert kb.has_fact("path", "n0", "n4")

    def test_constants_in_rules(self):
        kb = KnowledgeBase()
        kb.add_fact("likes", "alice", "bob")
        kb.add_fact("likes", "carol", "dave")
        x = Variable("x")
        likes = Predicate("likes", 2)
        fan = Predicate("fan_of_bob", 1)
        kb.add_rule(HornRule(fan(x), (likes(x, Constant("bob")),)))
        kb.forward_chain()
        assert kb.has_fact("fan_of_bob", "alice")
        assert not kb.has_fact("fan_of_bob", "carol")

    def test_query_bindings(self):
        kb = self._kb()
        x = Variable("x")
        parent = Predicate("parent", 2)
        bindings = kb.query(parent(x, Constant("carol")))
        assert len(bindings) == 1
        assert bindings[0][x] == "bob"

    def test_work_counters_monotone(self):
        kb = self._kb()
        stats = kb.forward_chain()
        assert stats.total_work >= stats.rule_applications
        assert stats.bindings_tried > 0

    def test_deepcopy_shares_rules_not_facts(self):
        kb = self._kb()
        twin = copy.deepcopy(kb)
        assert twin.facts() == kb.facts()
        assert twin.rules == kb.rules and twin.rules is not kb.rules
        assert all(a is b for a, b in zip(twin.rules, kb.rules))
        twin.add_fact("parent", "carol", "dan")
        twin.forward_chain()
        assert twin.has_fact("grandparent", "bob", "dan")
        assert kb.facts() == self._kb().facts()
        # a structure holding the KB twice copies it once
        pair = copy.deepcopy([kb, kb])
        assert pair[0] is pair[1]


# -- the nested-loop join, kept as the hash join's reference ---------------

def _nested_loop_bindings(kb, rule, stats):
    """Every binding of ``rule``'s body: each (binding, fact) pair tried."""
    partial = [{}]
    for atom in rule.body:
        candidates = kb._facts.get(atom.predicate.name, set())
        next_partial = []
        for binding in partial:
            for args in candidates:
                stats.bindings_tried += 1
                extended = _unify(atom, args, binding)
                if extended is not None:
                    next_partial.append(extended)
        partial = next_partial
        if not partial:
            return []
    return partial


def _unify(atom, args, binding):
    out = dict(binding)
    for term, value in zip(atom.terms, args):
        if isinstance(term, Constant):
            if term.name != value:
                return None
        else:
            bound = out.get(term)
            if bound is None:
                out[term] = value
            elif bound != value:
                return None
    return out


def _nested_loop_forward_chain(kb, max_iterations=50):
    stats = ChainStats()
    for _ in range(max_iterations):
        stats.iterations += 1
        new_facts = []
        for rule in kb.rules:
            stats.rule_applications += 1
            for binding in _nested_loop_bindings(kb, rule, stats):
                head_args = tuple(
                    binding[t] if isinstance(t, Variable) else t.name
                    for t in rule.head.terms)
                pred = rule.head.predicate.name
                if not kb.has_fact(pred, *head_args):
                    new_facts.append((pred, head_args))
        if not new_facts:
            break
        for pred, args in new_facts:
            if not kb.has_fact(pred, *args):
                kb.add_fact(pred, *args)
                stats.facts_derived += 1
    return stats


def _nested_loop_query(kb, atom):
    rule = HornRule(head=atom, body=(atom,))
    return _nested_loop_bindings(kb, rule, ChainStats())


# "e" never holds a fact; "d" holds only derived ones
ARITY = {"p": 2, "q": 2, "r": 1, "e": 2, "d": 2}
NAMES = ("a", "b", "c")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@st.composite
def _random_kb(draw):
    """Facts over three constants and 1-3 rules of 1-3 body atoms each."""
    ground = [(pred, args) for pred in ("p", "q", "r")
              for args in itertools.product(NAMES, repeat=ARITY[pred])]
    facts = draw(st.lists(st.sampled_from(ground), max_size=14))
    term = st.one_of(st.sampled_from([X, Y, Z]),
                     st.sampled_from(NAMES).map(Constant))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        body = []
        for _ in range(draw(st.integers(1, 3))):
            pred = draw(st.sampled_from(sorted(ARITY)))
            body.append(Predicate(pred, ARITY[pred])(
                *[draw(term) for _ in range(ARITY[pred])]))
        bound = sorted({t for atom in body for t in atom.terms
                        if isinstance(t, Variable)}, key=str)
        head_term = st.sampled_from(NAMES).map(Constant)
        if bound:
            head_term = st.one_of(st.sampled_from(bound), head_term)
        pred = draw(st.sampled_from(["p", "q", "r", "d"]))
        head = Predicate(pred, ARITY[pred])(
            *[draw(head_term) for _ in range(ARITY[pred])])
        rules.append(HornRule(head, tuple(body)))
    return facts, rules


def _kb(facts, rules):
    kb = KnowledgeBase()
    for pred, args in facts:
        kb.add_fact(pred, *args)
    for rule in rules:
        kb.add_rule(rule)
    return kb


def _sorted_bindings(bindings):
    return sorted(sorted((v.name, c) for v, c in b.items()) for b in bindings)


class TestHashJoin:
    """The hash join counts, derives and answers as the nested loop."""

    P, Q, E, D = (Predicate(n, ARITY[n]) for n in "pqed")

    @settings(max_examples=300, deadline=None)
    @given(_random_kb(), st.sampled_from([1, 2, 3, None]))
    @example(   # a repeated variable: only p(a, a) joins p(x, x)
        ([("p", ("a", "a")), ("p", ("a", "b")), ("q", ("b", "b"))],
         [HornRule(D(X, Y), (P(X, X), Q(Y, Y))),
          HornRule(D(Y, X), (Q(X, Y), P(Y, Y)))]), None)
    @example(   # a body predicate with no facts, first and last
        ([("p", ("a", "b")), ("q", ("b", "c"))],
         [HornRule(D(X, Y), (E(X, Y), P(X, Y))),
          HornRule(D(X, Z), (P(X, Y), Q(Y, Z), E(Z, X)))]), 2)
    @example(   # constants in the body and the head, a ground body
        ([("p", ("a", "b")), ("p", ("c", "b")), ("q", ("b", "c"))],
         [HornRule(D(X, Constant("a")), (P(X, Constant("b")),)),
          HornRule(P(Constant("a"), Constant("a")),
                   (Q(Constant("b"), Constant("c")),))]), 1)
    def test_matches_nested_loop(self, spec, max_iterations):
        facts, rules = spec
        kw = {} if max_iterations is None else {
            "max_iterations": max_iterations}
        kb, ref = _kb(facts, rules), _kb(facts, rules)
        for _ in range(2):      # a second run on the same, grown KB
            got = kb.forward_chain(**kw)
            want = _nested_loop_forward_chain(ref, **kw)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert kb.facts() == ref.facts()
        for atom in {a for rule in rules for a in (rule.head, *rule.body)}:
            assert _sorted_bindings(kb.query(atom)) == \
                _sorted_bindings(_nested_loop_query(ref, atom))

    def test_university_kb_counters(self):
        """The LNN knowledge base at its own scale, to fixpoint."""
        from repro.datasets.kb_gen import university_kb
        kb, ref = university_kb(seed=3), university_kb(seed=3)
        got, want = kb.forward_chain(), _nested_loop_forward_chain(ref)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert got.bindings_tried > 10 * got.facts_derived
        assert kb.facts() == ref.facts()
