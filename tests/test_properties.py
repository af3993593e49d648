"""Generative properties: random data definitions and random boolean formulas."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.clauses import TooManyClauses, clausify
from sedan.datadef import compile_type_expr, enumerate_value, recognize, register_defdata
from sedan.evaluator import evaluate
from sedan.reader import read_sexprs
from sedan.terms import free_vars
from sedan.values import NIL, T, truthy
from sedan.world import World

from conftest import make_world, term

# --- random type expressions, as surface syntax --------------------------

_base = st.sampled_from(
    ["nat", "pos", "neg", "integer", "rational", "boolean", "symbol",
     "string", "character", "true-list", "proper-cons", "all"]
)
_singleton = st.sampled_from(["0", "42", "-7", "1/2", "t", "nil", "'red", '"s"', "#\\a"])
_enum = st.sampled_from(["(enum '(red green blue))", "(enum '(1 2 3))", "(enum '(t nil maybe))"])


def _combine(inner):
    return st.one_of(
        inner.map(lambda e: f"(listof {e})"),
        inner.map(lambda e: f"(set {e})"),
        st.tuples(inner, inner).map(lambda p: f"(cons {p[0]} {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"(oneof {p[0]} {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"(list {p[0]} {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"(record (a . {p[0]}) (b . {p[1]}))"),
    )


_type_sources = st.recursive(st.one_of(_base, _singleton, _enum), _combine, max_leaves=5)


@settings(max_examples=120, deadline=None)
@given(_type_sources, st.integers(min_value=0, max_value=3000))
def test_every_generated_type_has_a_sound_enumerator(src, n):
    world = World()
    expr = compile_type_expr(read_sexprs(src)[0], {"tt"}, world)
    register_defdata(world, [("tt", expr)])
    value = enumerate_value(world, "tt", n)
    assert recognize(world, "tt", value), (src, n, value)
    # huge indices must also decode without error
    enumerate_value(world, "tt", 2**62 + n)


@settings(max_examples=80, deadline=None)
@given(_type_sources, st.booleans())
def test_generated_recursive_union_stays_sound(src, base_last):
    # base branch in either position: index 0 must still route to it
    world = World()
    union_src = f"(oneof (cons {src} tt) nil)" if base_last else f"(oneof nil (cons {src} tt))"
    expr = compile_type_expr(read_sexprs(union_src)[0], {"tt"}, world)
    register_defdata(world, [("tt", expr)])
    for n in range(0, 60):
        assert recognize(world, "tt", enumerate_value(world, "tt", n))
    enumerate_value(world, "tt", 2**62)


@settings(max_examples=60, deadline=None)
@given(_type_sources)
def test_generated_mutual_recursion_stays_sound(src):
    world = World()
    group = {"ta", "tb"}
    ea = compile_type_expr(read_sexprs(f"(oneof tb (cons {src} ta))")[0], group, world)
    eb = compile_type_expr(read_sexprs("(oneof nil (cons ta tb))")[0], group, world)
    register_defdata(world, [("ta", ea), ("tb", eb)])
    for name in ("ta", "tb"):
        for n in range(0, 50):
            assert recognize(world, name, enumerate_value(world, name, n))


# --- random boolean formulas ----------------------------------------------

_vars = st.sampled_from(["p", "q", "r"])


def _formulas(inner):
    return st.one_of(
        st.tuples(inner, inner).map(lambda t: f"(and {t[0]} {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"(or {t[0]} {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"(implies {t[0]} {t[1]})"),
        inner.map(lambda t: f"(not {t})"),
        st.tuples(inner, inner, inner).map(lambda t: f"(if {t[0]} {t[1]} {t[2]})"),
    )


_formula_sources = st.recursive(st.one_of(_vars, st.sampled_from(["t", "nil"])), _formulas, max_leaves=10)


@settings(max_examples=250, deadline=None)
@given(_formula_sources, st.integers(0, 40))
def test_clausify_equivalent_under_truth_enumeration(src, cap):
    world = make_world()
    formula = term(src)
    clauses = clausify(formula, 1 << 20)
    # every part of these formulas has a clause, so none has more than the
    # whole: the cap raises exactly when the whole exceeds it
    if len(clauses) > cap:
        with pytest.raises(TooManyClauses):
            clausify(formula, cap)
    else:
        assert clausify(formula, cap) == clauses
    names = free_vars(formula)
    for values in itertools.product((T, NIL), repeat=len(names)):
        binding = dict(zip(names, values))
        original = truthy(evaluate(formula, binding, world))
        conjunction = all(
            any(truthy(evaluate(lit, binding, world)) for lit in clause) for clause in clauses
        )
        assert original == conjunction, (src, binding)
