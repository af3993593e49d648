import itertools
import math
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan import evaluator
from sedan.evaluator import (
    SPECIAL_FORMS,
    ArityError,
    DepthExceededError,
    EvaluationError,
    HostFunction,
    UnboundVariableError,
    UndefinedFunctionError,
    evaluate,
    on_sized_stack,
)
from sedan.session import process_source
from sedan.terms import App, Quote, Var
from sedan.values import NIL, T, Char, Cons, Symbol, from_list, print_value

from conftest import make_world, on_a_plain_thread, term, with_settings
from oracle import _interpret

# one representative per primitive kind of the (reduced) value universe:
# zero, positive/negative integers, positive/negative non-integer rationals,
# nil, t, another symbol, a proper cons, an improper cons, a string, a char
REPRESENTATIVES = [
    0, 7, -3, Fraction(5, 2), Fraction(-1, 3),
    NIL, T, Symbol("foo"),
    from_list([1, 2]), Cons(1, 2),
    "ab", Char("q"),
]


def ev(src, binding=None, world=None, **kw):
    return evaluate(term(src), binding or {}, world or make_world(), **kw)


def test_rev_rev_counterexample_and_witness():
    w = make_world("(defun rev (x) (if (endp x) nil (append (rev (cdr x)) (list (car x)))))")
    t = term("(equal (rev (rev x)) x)")
    assert evaluate(t, {"x": 0}, w) == NIL  # falsified at an atom
    assert evaluate(t, {"x": from_list([1, 2, 3])}, w) == T


def test_default_completions():
    assert ev("(car nil)") == NIL
    assert ev("(car 5)") == NIL
    assert ev("(cdr \"abc\")") == NIL
    assert ev("(+ 1 t)") == 1  # non-rationals act as 0
    assert ev("(* 3 \"x\")") == 0
    assert ev("(/ 1 0)") == 0
    assert ev("(/ 0)") == 0
    assert ev("(< t 1)") == T  # t coerces to 0
    assert ev("(= nil 0)") == T


def test_arithmetic_is_exact():
    # oracle: integer arithmetic plus manual gcd reduction, independent of Fraction
    cases = [(1, 3, 1, 6), (-2, 7, 5, 21), (3, 4, -3, 4)]
    for p1, q1, p2, q2 in cases:
        num = p1 * q2 + p2 * q1
        den = q1 * q2
        g = math.gcd(abs(num), den)
        num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        got = ev(f"(+ {p1}/{q1} {p2}/{q2})")
        expected = num if den == 1 else Fraction(num, den)
        assert got == expected


def test_expt_integer_exponents_only():
    assert ev("(expt 2 10)") == 1024
    assert ev("(expt 1/2 2)") == Fraction(1, 4)
    assert ev("(expt 2 -2)") == Fraction(1, 4)
    assert ev("(expt 0 -1)") == 0
    assert ev("(expt 2 1/2)") == 1  # non-integer exponent acts as 0
    assert ev("(expt \"a\" 2)") == 0


def test_logic_operators():
    assert ev("(and)") == T
    assert ev("(and 1 2 3)") == 3
    assert ev("(and 1 nil 3)") == NIL
    assert ev("(or)") == NIL
    assert ev("(or nil 5)") == 5
    assert ev("(implies nil nil)") == T
    assert ev("(implies 5 7)") == T  # conclusion booleanized
    assert ev("(implies 5 nil)") == NIL
    assert ev("(not nil)") == T


def test_list_builtins():
    assert ev("(len '(1 2 3))") == 3
    assert ev("(len '(1 2 . 3))") == 2
    assert ev("(len 5)") == 0
    assert ev("(append '(1) '(2) '(3))") == from_list([1, 2, 3])
    assert ev("(append)") == NIL
    assert ev("(append '(1 . 9) '(2))") == from_list([1, 2])  # improper tail dropped
    assert ev("(true-listp '(1 2))") == T
    assert ev("(true-listp '(1 . 2))") == NIL


def test_section7_binding_falsifies_conclusion_only():
    w = make_world()
    hyp_srcs = [
        "(real/rationalp a)", "(real/rationalp b)", "(real/rationalp c)",
        "(< 0 a)", "(< 0 b)", "(< 0 c)",
        "(<= (expt a 2) (* b (+ c 1)))", "(<= b (* 4 c))",
    ]
    binding = {"a": Fraction(1, 7), "b": Fraction(2, 11), "c": Fraction(2, 9)}
    for h in hyp_srcs:
        assert evaluate(term(h), binding, w) == T
    assert evaluate(term("(< (expt (- a 1) 2) (* b c))"), binding, w) == NIL


def test_errors():
    with pytest.raises(UndefinedFunctionError):
        ev("(mystery 1)")
    with pytest.raises(UnboundVariableError):
        ev("(+ x 1)")
    with pytest.raises(ArityError):
        ev("(car 1 2)")


def sized_evaluate(t, binding, world):
    """``evaluate`` on the stack a session gives a form at the world's cap."""
    return on_sized_stack(world.settings.depth_cap, evaluate, t, binding, world)


def test_depth_cap_is_an_error_not_nontermination():
    w = make_world("(defun spin (x) (spin x))")
    with pytest.raises(DepthExceededError):
        sized_evaluate(term("(spin 1)"), {}, w)
    # configurable
    with pytest.raises(DepthExceededError):
        sized_evaluate(term("(spin 1)"), {}, with_settings(w, depth_cap=10))


def test_deep_recursion_within_cap_is_fine():
    w = make_world("(defun count-down (n) (if (posp n) (+ 1 (count-down (- n 1))) 0))")
    assert sized_evaluate(term("(count-down 9000)"), {}, w) == 9000


def test_evaluation_is_pure():
    w = make_world("(defun id2 (x) x)")
    t = term("(cons (id2 x) (id2 x))")
    b = {"x": from_list([1, 2])}
    assert evaluate(t, b, w) == evaluate(t, b, w)


def test_every_builtin_total_over_representatives():
    # every host function a fresh world holds: the built-ins and the base
    # types' recognizers and enumerators
    w = make_world()
    hosts = {name: fn for name, fn in w.functions.items() if type(fn) is HostFunction}
    assert {"cons", "natp", "booleanp", "real/rationalp", "nth-nat", "nth-all"} <= hosts.keys()
    for name, (lo, hi, _) in hosts.items():
        arity = lo if lo > 0 else (1 if hi is None else lo)
        if arity == 1:
            pools = [REPRESENTATIVES]
        else:
            pools = [REPRESENTATIVES, REPRESENTATIVES]
        for combo in itertools.product(*pools):
            binding = {f"v{i}": v for i, v in enumerate(combo)}
            args = " ".join(f"v{i}" for i in range(len(combo)))
            result = evaluate(term(f"({name} {args})"), binding, w)
            print_value(result)  # must be a printable value


def test_special_forms_total_over_representatives():
    w = make_world()
    for a, b in itertools.product(REPRESENTATIVES, repeat=2):
        binding = {"p": a, "q": b}
        for src in ("(if p q q)", "(and p q)", "(or p q)", "(implies p q)"):
            print_value(evaluate(term(src), binding, w))


# ---------------------------------------------------------------------------
# the compiled path against the interpreter (oracle.py)


DIFF_DEFUNS = (
    "(defun dbl (x) (+ x x))\n"
    "(defun len2 (x) (if (consp x) (+ 1 (len2 (cdr x))) 0))\n"
    "(defun cnt (n) (if (posp n) (+ 1 (cnt (- n 1))) 0))\n"
    "(defun spin (x) (spin x))\n"
    "(defun pick (a b) (if a b (car b)))\n"
    # data definitions add host functions Xp and nth-X; nth-ev and evsp run
    # the custom type's user functions
    "(defdata tree (oneof nat (cons tree tree)))\n"
    "(defdata color (enum '(red green)))\n"
    "(defun evr (x) (and (integerp x) (integerp (* x 1/2))))\n"
    "(defun eve (n) (dbl n))\n"
    "(defdata ev (custom evr eve))\n"
    "(defdata evs (listof ev))\n"
)
DIFF_WORLD = make_world(DIFF_DEFUNS)

# every name in the world's function table with its arity bounds; expt is left
# out because nested powers grow without bound, and mystery is never defined
DIFF_FUNS = {name: fn.arity_bounds() for name, fn in DIFF_WORLD.functions.items() if name != "expt"}
DIFF_FUNS.update(SPECIAL_FORMS)
DIFF_FUNS["mystery"] = (1, 1)

diff_leaves = st.one_of(
    st.sampled_from(["x", "y", "z"]).map(Var),  # z is never bound
    st.sampled_from([0, 1, 2, -3, 600, Fraction(1, 2), NIL, T, Symbol("foo"), "s",
                     from_list([1, 2, 3]), Cons(1, 2)]).map(Quote),
)


def diff_apps(children):
    @st.composite
    def build(draw):
        fn = draw(st.sampled_from(sorted(DIFF_FUNS)))
        lo, hi = DIFF_FUNS[fn]
        if draw(st.integers(0, 9)) == 0:
            n = draw(st.integers(0, 3))  # often the wrong arity
        else:
            n = draw(st.integers(lo, lo + 2 if hi is None else hi))
        return App(fn, tuple(draw(st.lists(children, min_size=n, max_size=n))))

    return build()


diff_terms = st.recursive(diff_leaves, diff_apps, max_leaves=12)


@contextmanager
def capped(world, cap):
    """The world with its depth cap set as set-testing sets it, restored on
    exit; a cap of None keeps the world's own."""
    saved = world.settings
    if cap is not None:
        with_settings(world, depth_cap=cap)
    try:
        yield world
    finally:
        world.settings = saved


def outcome(run, t, binding, cap, world):
    try:
        with capped(world, cap):
            v = run(t, binding, world)
    except EvaluationError as e:
        return (type(e), str(e))
    return (type(v), print_value(v))


@settings(max_examples=300, deadline=None)
@given(diff_terms, st.sampled_from([None, 10]))
def test_compiled_evaluation_matches_the_interpreter(t, cap):
    binding = {"x": from_list([1, 2]), "y": 3}
    expected = outcome(_interpret, t, binding, cap, DIFF_WORLD)
    assert outcome(sized_evaluate, t, binding, cap, DIFF_WORLD) == expected
    # a second run goes through the code memoised on the term
    assert outcome(sized_evaluate, t, binding, cap, DIFF_WORLD) == expected


def test_small_depth_cap_is_enforced_on_the_compiled_path():
    with capped(DIFF_WORLD, 10) as world:
        with pytest.raises(DepthExceededError, match="cap of 10 exceeded"):
            evaluate(term("(cnt 10)"), {}, world)
        assert evaluate(term("(cnt 9)"), {}, world) == 9  # ten nested calls


CNT = "(defun cnt (n) (if (posp n) (+ 1 (cnt (- n 1))) 0))\n"
PAST_PYTHONS_STACK = "(test? (equal (cnt 3000) 3000))\n"  # 3000 nested calls


def test_a_call_past_pythons_default_stack_runs_on_the_forms_stack():
    # far past Python's default stack and within the default cap of 10000:
    # the form's thread holds the calls, and spin reaches the cap
    limit, stack_size = sys.getrecursionlimit(), threading.stack_size()
    outcome, _ = process_source(CNT + PAST_PYTHONS_STACK + "(defun spin (x) (spin x))\n(test? (equal (spin 1) 1))")
    deep, spin = outcome.forms[1].testing, outcome.forms[3].testing
    assert (deep.satisfied, deep.erroring, len(deep.witnesses)) == (100, 0, 1)
    assert spin.erroring == spin.trials_run == 100
    assert spin.first_error == "recursion depth cap of 10000 exceeded (likely nonterminating definition)"
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, stack_size)


def test_a_form_whose_thread_cannot_start_runs_on_the_callers_stack(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    limit, stack_size = sys.getrecursionlimit(), threading.stack_size()
    outcome, _ = on_a_plain_thread(process_source, CNT + PAST_PYTHONS_STACK + "(test? (equal (cnt 30) 30))")
    deep, shallow = outcome.forms[1].testing, outcome.forms[2].testing
    assert deep.erroring == deep.trials_run == 100
    assert deep.first_error == (
        "cannot start a thread with a Python stack for the depth cap of 10000: can't start new thread")
    assert (shallow.satisfied, shallow.erroring) == (100, 0)  # a shallow form fits the caller's stack
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, stack_size)


def test_an_overflow_on_a_forms_thread_is_an_evaluation_error(monkeypatch):
    monkeypatch.setattr(evaluator, "_FRAMES_PER_LEVEL", 0)
    monkeypatch.setattr(evaluator, "_FRAME_MARGIN", 1000)
    outcome, world = process_source(CNT + PAST_PYTHONS_STACK)
    deep = outcome.forms[1].testing
    assert deep.erroring == deep.trials_run == 100
    assert deep.first_error == "the Python stack overflowed within the depth cap of 10000"
    # evaluate called on a thread of Python's own size overflows at its limit
    with pytest.raises(EvaluationError, match="^the Python stack overflowed within the depth cap of 10000$") as caught:
        on_a_plain_thread(evaluate, term("(cnt 3000)"), {}, world)
    assert type(caught.value) is EvaluationError


def test_compiled_code_sees_later_definitions_and_cap_changes():
    w = make_world()
    t = term("(if (posp x) (later x) 0)")
    assert evaluate(t, {"x": 0}, w) == 0
    with pytest.raises(UndefinedFunctionError):
        evaluate(t, {"x": 1}, w)
    w.define_function("later", ("n",), term("(if (posp n) (later (- n 1)) 7)"))
    assert evaluate(t, {"x": 5}, w) == 7  # the same term object, compiled before the defun
    with pytest.raises(DepthExceededError, match="cap of 3 exceeded"):
        evaluate(t, {"x": 5}, with_settings(w, depth_cap=3))
    with_settings(w, depth_cap=4)
    with pytest.raises(DepthExceededError, match="cap of 4 exceeded"):
        evaluate(t, {"x": 5}, w)


def test_a_host_function_added_after_the_term_compiled_is_called():
    w = make_world()
    t = term("(if (posp x) (late-host x) 0)")
    assert evaluate(t, {"x": 0}, w) == 0  # generated while late-host is unknown
    w.add_function("late-host", HostFunction(1, 1, lambda v: Cons(v, v)))
    assert evaluate(t, {"x": 2}, w) == Cons(2, 2)


def test_edge_terms_and_a_non_term_give_the_interpreters_outcome():
    # fixed inputs, so every branch of the oracle that they reach runs on every run
    w = make_world()
    bad = App("cons", (Var("z"), 5))  # a non-term raises after the arguments before it
    assert outcome(_interpret, bad, {"z": 1}, None, w) == (EvaluationError, "not a term: 5")
    for t, binding in ((bad, {}), (bad, {"z": 1}), (5, {}), (term("(and)"), {}), (term("(or)"), {}),
                       (term("(mystery (car 1 2))"), {}), (term("(mystery 1)"), {}),
                       (term("(if (implies 1) 2 3)"), {})):
        assert outcome(evaluate, t, binding, None, w) == outcome(_interpret, t, binding, None, w)


def test_an_ill_formed_call_in_a_branch_not_taken_runs_on_generated_code():
    assert ev("(if (posp x) (later x) (+ x 1))", {"x": 0}) == 1
    assert ev("(if t 1 (car 1 2))") == 1


def test_arguments_are_evaluated_before_arity_and_undefined_errors():
    w = make_world()
    for src in ("(car 1 (+ z 1))", "(mystery (+ z 1))"):
        with pytest.raises(UnboundVariableError):
            ev(src, world=w)
    # an ill-formed form is an error only when evaluation reaches it
    assert ev("(if t 1 (if 1 2))", world=w) == 1
    with pytest.raises(ArityError, match="if expects 3 argument"):
        ev("(if nil 1 (if 1 2))", world=w)



def test_an_arity_error_gives_the_bounds_in_one_form_everywhere():
    w = make_world()
    with pytest.raises(ArityError, match=r"^- expects 1\.\.2 argument\(s\), got 3$"):
        ev("(- 1 2 3)", world=w)
    outcome, _ = process_source("(defun f (x) (- x 1 2))")
    assert outcome.forms[0].error == "- applied to 3 argument(s), expects 1..2"
    assert [evaluator.arity_text(*b) for b in ((2, 2), (1, 3), (1, None))] == ["2", "1..3", "1..*"]

# ---------------------------------------------------------------------------
# generated code: deep terms, the shape-keyed cache and worlds sharing it

DIFF_WORLD_TWIN = make_world(DIFF_DEFUNS)

# leaves the binding always has, so a term runs on its memoised code rather
# than on the code emitted again for a missing variable; Symbol("nil") is nil
# but not the NIL object, as the reader makes it inside quoted data
bound_leaves = st.one_of(
    st.sampled_from(["x", "y"]).map(Var),
    st.sampled_from([0, 1, 2, -3, Fraction(1, 2), NIL, Symbol("nil"), T, Symbol("foo"), from_list([1, 2])]).map(Quote),
)
small_terms = st.recursive(bound_leaves, diff_apps, max_leaves=3)


CHAIN_FORMS = [("if", 3), ("implies", 2), ("not", 1), *((fn, n) for fn in ("and", "or") for n in (1, 2, 3))]


@st.composite
def deep_chains(draw, first_only: bool):
    """if/and/or/implies/not nested 200 levels or more (Python allows 100
    nested blocks and 200 nested parentheses), the other arguments from a
    small pool. With ``first_only`` the chain runs through the argument
    evaluated first, so evaluation reaches its bottom; else through any."""
    pool = [*draw(st.lists(small_terms, min_size=1, max_size=4)), Var("x"), Var("y")]
    t = pool[0]
    for k in draw(st.lists(st.integers(0, 2**12), min_size=200, max_size=260)):
        fn, n = CHAIN_FORMS[k % len(CHAIN_FORMS)]
        k //= len(CHAIN_FORMS)
        args = [pool[(k >> (2 * i)) % len(pool)] for i in range(n - 1)]
        args.insert(0 if first_only else (k >> 4) % n, t)
        t = App(fn, tuple(args))
    return t


def _same_shape(draw, t):
    """t with every quoted constant replaced by a drawn one."""
    if type(t) is Quote:
        return draw(bound_leaves.filter(lambda leaf: type(leaf) is Quote))
    if type(t) is App:
        return App(t.fn, tuple(_same_shape(draw, a) for a in t.args))
    return t


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_code_matches_the_interpreter_on_deep_reshaped_and_shared_terms(data):
    binding = {"x": from_list([1, 2]), "y": 3}
    cap = data.draw(st.sampled_from([None, 10]))
    deep, reached = data.draw(deep_chains(False)), data.draw(deep_chains(True))
    shaped = data.draw(diff_terms)
    reshaped = _same_shape(data.draw, shaped)
    for t in (deep, reached, shaped, reshaped):
        for world in (DIFF_WORLD, DIFF_WORLD_TWIN):
            expected = outcome(_interpret, t, binding, cap, DIFF_WORLD)
            assert outcome(evaluate, t, binding, cap, world) == expected
    # Python compiled the deep chains, and their functions are memoised on them
    assert all(type(t._compiled[1]) is FunctionType for t in (deep, reached))


def test_one_defun_text_is_compiled_once_for_every_world(monkeypatch):
    sources = []
    monkeypatch.setattr(evaluator, "compile", lambda src, *a: sources.append(src) or compile(src, *a), raising=False)
    evaluator._maker_code.cache_clear()
    defun = "(defun tw (a b) (if (consp a) (tw (cdr a) (+ b 1)) b))"
    first, second = make_world(defun), make_world(defun)
    assert evaluate(term("(tw x 0)"), {"x": from_list([1, 2])}, first) == 2
    compiled = len(sources)
    assert compiled == 2  # the term and the body
    assert evaluate(term("(tw x 0)"), {"x": from_list([1, 2, 3])}, second) == 3
    assert len(sources) == compiled


def test_terms_differing_only_in_constants_share_one_code_object():
    w = make_world()
    one, two = term("(equal x '1)"), term("(equal x '2)")
    assert evaluate(one, {"x": 1}, w) == T
    assert evaluate(two, {"x": 1}, w) == NIL
    assert one._compiled[1].__code__ is two._compiled[1].__code__


def test_a_deep_cond_body_runs_on_generated_code():
    clauses = " ".join(f"((equal n {i}) {i})" for i in range(249))
    w = make_world(f"(defun cls (n) (cond {clauses} (t 249)))")
    assert evaluate(term("(cls 248)"), {}, w) == 248
    assert evaluate(term("(cls 5000)"), {}, w) == 249


def test_a_nil_that_is_not_the_nil_object_is_false_in_every_test_position():
    w = make_world()
    nil = {"q": Symbol("nil")}  # as the reader makes it inside quoted data
    for src, expected in (("(if q 1 2)", 2), ("(and q 1)", NIL), ("(or q 1)", 1), ("(or 1 q)", 1),
                          ("(implies q nil)", T), ("(not q)", T), ("(if (and 1 q) 1 2)", 2),
                          ("(if (or q q) 1 2)", 2), ("(if (implies 1 q) 1 2)", 2)):
        assert ev(src, nil, w) == expected, src


def test_a_missing_variable_is_raised_where_evaluation_reaches_it():
    w = make_world("(defun dbl (x) (+ x x))")
    assert ev("(if (consp y) z (dbl y))", {"y": 4}, w) == 8
    with pytest.raises(UnboundVariableError, match="unbound variable: z"):
        ev("(if (natp y) (dbl z) y)", {"y": 4}, w)
    with pytest.raises(ArityError):
        ev("(cons (car y) (car y y) z)", {"y": 4}, w)
