import itertools

import pytest

from sedan.clauses import TooManyClauses, clause_to_term, clausify
from sedan.evaluator import evaluate
from sedan.terms import free_vars, negate, print_term
from sedan.values import NIL, T, truthy
from sedan.waterfall import PROOF_STEPS

from conftest import make_world, term


def test_implies_gives_one_clause():
    clauses = clausify(term("(implies h c)"), PROOF_STEPS)
    assert clauses == [[term("(not h)"), term("c")]]


def test_conjunctive_conclusion_splits():
    clauses = clausify(term("(implies h (and a b))"), PROOF_STEPS)
    assert clauses == [[term("(not h)"), term("a")], [term("(not h)"), term("b")]]


def test_if_lifts_into_case_split():
    clauses = clausify(term("(if p q r)"), PROOF_STEPS)
    assert clauses == [[term("(not p)"), term("q")], [term("p"), term("r")]]


def test_implies_chain_flattens_hypotheses_in_order():
    clauses = clausify(term("(implies (and a b) (implies c d))"), PROOF_STEPS)
    assert clauses == [[term("(not a)"), term("(not b)"), term("(not c)"), term("d")]]


def test_or_hypothesis_multiplies_clauses():
    clauses = clausify(term("(implies (or a b) c)"), PROOF_STEPS)
    assert clauses == [[term("(not a)"), term("c")], [term("(not b)"), term("c")]]


def test_non_boolean_atoms_stay_atomic():
    clauses = clausify(term("(equal (car x) (if p 1 2))"), PROOF_STEPS)
    assert clauses == [[term("(equal (car x) (if p 1 2))")]]


def test_duplicate_literals_dropped():
    clauses = clausify(term("(or p p q)"), PROOF_STEPS)
    assert clauses == [[term("p"), term("q")]]


def _truth_equivalent(formula, world):
    """Brute-force oracle: enumerate all boolean assignments of the variables
    and compare the formula against the conjunction of its clauses."""
    clauses = clausify(formula, PROOF_STEPS)
    names = free_vars(formula)
    assert len(names) <= 3
    for values in itertools.product((T, NIL), repeat=len(names)):
        binding = dict(zip(names, values))
        original = truthy(evaluate(formula, binding, world))
        conjunction = all(
            any(truthy(evaluate(lit, binding, world)) for lit in clause) for clause in clauses
        )
        if original != conjunction:
            return False, binding
    return True, None


FORMULAS = [
    "(implies p q)",
    "(implies (and p q) r)",
    "(implies p (and q r))",
    "(if p q r)",
    "(not (if p q r))",
    "(or p (and q r))",
    "(and (or p q) (or (not p) r))",
    "(implies (or p q) (and q r))",
    "(not (implies p q))",
    "(not (not p))",
    "(implies (not (and p q)) r)",
    "(if (if p q r) p q)",
    "(or p (not p))",
    "(and p (not p))",
    "p",
    "t",
    "(not p)",
]


def test_clausify_agrees_with_truth_enumeration():
    w = make_world()
    for src in FORMULAS:
        ok, witness = _truth_equivalent(term(src), w)
        assert ok, f"{src} disagrees at {witness}"


def test_clause_to_term_round_trips_semantics():
    w = make_world()
    for src in FORMULAS:
        for clause in clausify(term(src), PROOF_STEPS):
            rebuilt = clause_to_term(clause)
            names = sorted({v for lit in clause for v in free_vars(lit)})
            for values in itertools.product((T, NIL), repeat=len(names)):
                binding = dict(zip(names, values))
                direct = any(truthy(evaluate(lit, binding, w)) for lit in clause)
                assert truthy(evaluate(rebuilt, binding, w)) == direct


def test_negate_collapses_double_negation():
    assert negate(term("(not p)")) == term("p")
    assert negate(term("p")) == term("(not p)")


# clausify's exact output, clause order and literal order included: goal ids
# come from clause positions and reports print literals in order, so a change
# of order changes reports even where the meaning stays the same
CLAUSE_ORDER_PINS = [
    ("(not p)", [["(not p)"]]),
    ("(not (not p))", [["p"]]),
    ("(not (not (not p)))", [["(not p)"]]),
    ("(not (not (and a b)))", [["a"], ["b"]]),
    ("(not (not (not (or a b))))", [["(not a)"], ["(not b)"]]),
    ("(not (implies h c))", [["h"], ["(not c)"]]),
    ("(not (implies (and a b) (or c d)))", [["a"], ["b"], ["(not c)"], ["(not d)"]]),
    ("(implies (implies a b) c)", [["a", "c"], ["(not b)", "c"]]),
    ("(not (if p q r))", [["(not p)", "(not q)"], ["p", "(not r)"]]),
    ("(not (if p (and a b) (or c d)))", [["(not p)", "(not a)", "(not b)"], ["p", "(not c)"], ["p", "(not d)"]]),
    ("(not (not (if p q r)))", [["(not p)", "q"], ["p", "r"]]),
    ("(implies (if p q r) s)", [["(not p)", "(not q)", "s"], ["p", "(not r)", "s"]]),
    ("(if (not p) (implies a b) (and c d))", [["p", "(not a)", "b"], ["(not p)", "c"], ["(not p)", "d"]]),
    ("(if p (not q) (not (and a b)))", [["(not p)", "(not q)"], ["p", "(not a)", "(not b)"]]),
    ("(and)", []),
    ("(and a)", [["a"]]),
    ("(and a b c)", [["a"], ["b"], ["c"]]),
    ("(or)", [[]]),
    ("(or a)", [["a"]]),
    ("(or a b c)", [["a", "b", "c"]]),
    ("(not (and))", [[]]),
    ("(not (or))", []),
    ("(not (and a))", [["(not a)"]]),
    ("(not (or a))", [["(not a)"]]),
    ("(not (and a b c))", [["(not a)", "(not b)", "(not c)"]]),
    ("(not (or a b c))", [["(not a)"], ["(not b)"], ["(not c)"]]),
    ("(or (and a b) (and c d) e)", [["a", "c", "e"], ["a", "d", "e"], ["b", "c", "e"], ["b", "d", "e"]]),
    ("(and (or a b) (or c d) e)", [["a", "b"], ["c", "d"], ["e"]]),
    ("(or p (not (not p)) q p)", [["p", "q"]]),
    ("(implies (and) c)", [["c"]]),
    ("(implies (or) c)", []),
    ("(implies h (or))", [["(not h)"]]),
    ("(implies a b c)", [["(implies a b c)"]]),
    ("(implies a)", [["(implies a)"]]),
    ("(if p q)", [["(if p q)"]]),
    ("(if p q r s)", [["(if p q r s)"]]),
    ("(not p q)", [["(not p q)"]]),
    ("(not)", [["(not)"]]),
    ("(not (implies a b c))", [["(not (implies a b c))"]]),
    ("(not (if p q))", [["(not (if p q))"]]),
    ("(not (not p q))", [["(not (not p q))"]]),
    ("(or (implies a) (if p q) (not p q))", [["(implies a)", "(if p q)", "(not p q)"]]),
    ("(if p (not q r) (implies a))", [["(not p)", "(not q r)"], ["p", "(implies a)"]]),
]


@pytest.mark.parametrize("src, expected", CLAUSE_ORDER_PINS)
def test_clausify_order_is_pinned(src, expected):
    # a cap of exactly the clause count splits; one less raises
    assert [[print_term(lit) for lit in clause] for clause in clausify(term(src), len(expected))] == expected
    if expected:
        with pytest.raises(TooManyClauses):
            clausify(term(src), len(expected) - 1)


def _disjunction_of_pairs(n):
    return term("(or " + " ".join(f"(and a{i} b{i})" for i in range(n)) + ")")


def test_a_disjunction_past_the_cap_raises_before_it_builds_a_clause():
    # 2^30 clauses of 30 literals each: building them would not end
    with pytest.raises(TooManyClauses):
        clausify(_disjunction_of_pairs(30), PROOF_STEPS)
    # a cap of exactly the product splits; one clause more than the cap raises
    assert len(clausify(_disjunction_of_pairs(9), 512)) == 512
    with pytest.raises(TooManyClauses):
        clausify(_disjunction_of_pairs(9), 511)
