import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.clauses import clause_vars, split_implies
from sedan.datadef import SingletonRestriction, enumerate_value
from sedan import testgen
from sedan.evaluator import EvaluationError, evaluate
from sedan.rand import IndexSource
from sedan.session import process_source
from sedan.terms import App, Quote, Var, negate
from sedan.testgen import (
    extract_restrictions,
    print_binding,
    run_trials,
    top_level_test,
)
from sedan.values import NIL, T, from_list, print_value, truthy

from conftest import make_world, term, with_settings
from oracle import run_trials_one_by_one

REV = "(defun rev (x) (if (endp x) nil (append (rev (cdr x)) (list (car x)))))"


def clause_of(conjecture):
    """The clause top_level_test builds from a conjecture."""
    hyps, concl = split_implies(conjecture)
    return [negate(h) for h in hyps] + [concl]


def alist_of(src, world):
    return extract_restrictions(clause_of(term(src)), world)


def test_extract_unrestricted_is_all(world):
    assert alist_of("(equal (rev (rev x)) x)", make_world(REV)) == {"x": ("all",)}


def test_extract_datatype_hypothesis():
    w = make_world(REV)
    assert alist_of("(implies (true-listp x) (equal (rev (rev x)) x))", w) == {"x": ("true-list",)}


def test_extract_registered_defdata_recognizer():
    w = make_world("(defdata loi (listof integer))")
    assert alist_of("(implies (loip x) (equal x x))", w) == {"x": ("loi",)}


def test_extract_equality_hypothesis(world):
    assert alist_of("(implies (equal x 42) (natp x))", world) == {
        "x": (SingletonRestriction(42),)
    }
    assert alist_of("(implies (equal 42 x) (natp x))", world) == {
        "x": (SingletonRestriction(42),)
    }


def test_extract_multiple_restrictions_keep_order(world):
    alist = alist_of("(implies (and (natp x) (integerp x)) (equal x x))", world)
    assert alist == {"x": ("nat", "integer")}


def test_unrecognized_hypotheses_contribute_nothing(world):
    w = make_world("(defun oddish (x) (equal x 1))")
    alist = alist_of("(implies (oddish x) (equal x 1))", w)
    assert alist == {"x": ("all",)}


def test_tautology_counts():
    w = make_world()
    report = run_trials(clause_of(Quote(T)), {}, w, 3, 10)
    assert report.trials_run == 10
    assert report.satisfied == 10
    assert report.unique_satisfied == 1  # the empty binding, deduplicated
    assert len(report.witnesses) == 1
    assert not report.counterexamples
    assert report.erroring == 0


def test_typed_rev_all_trials_satisfy():
    w = make_world(REV)
    report = top_level_test(term("(implies (true-listp x) (equal (rev (rev x)) x))"),
                            with_settings(w, trials=100), 11)
    assert report.trials_run == 100
    assert report.satisfied == 100  # sampling is type-directed
    assert not report.counterexamples
    assert report.witnesses


def test_untyped_rev_finds_counterexamples():
    w = make_world(REV)
    report = top_level_test(term("(equal (rev (rev x)) x)"), with_settings(w, trials=100), 11)
    assert report.counterexamples
    t = term("(equal (rev (rev x)) x)")
    for b in report.counterexamples:
        assert evaluate(t, b, w) == NIL


def test_counterexample_and_witness_soundness():
    w = make_world()
    t = term("(implies (integerp x) (natp x))")
    report = top_level_test(t, with_settings(w, trials=200), 5)
    assert report.counterexamples and report.witnesses
    hyps = term("(integerp x)")
    concl = term("(natp x)")
    for b in report.counterexamples:
        assert truthy(evaluate(hyps, b, w)) and evaluate(concl, b, w) == NIL
        assert evaluate(t, b, w) == NIL
    for b in report.witnesses:
        assert truthy(evaluate(hyps, b, w)) and truthy(evaluate(concl, b, w))
    assert len(report.counterexamples) + len(report.witnesses) == report.unique_satisfied


def test_singleton_dominance():
    w = make_world()
    report = top_level_test(term("(implies (equal x 42) (natp x))"), with_settings(w, trials=50), 1)
    assert report.satisfied == 50
    assert report.unique_satisfied == 1
    assert all(b["x"] == 42 for b in report.witnesses)


def test_singleton_conflicting_with_type_filter_is_vacuous():
    w = make_world()
    report = top_level_test(
        term("(implies (and (stringp x) (equal x 42)) (equal x x))"),
        with_settings(w, trials=20), 1,
    )
    assert report.satisfied == 0
    assert not report.witnesses and not report.counterexamples
    # a second singleton on the same variable is a residual filter
    report = top_level_test(
        term("(implies (and (equal x 1) (equal x 2)) nil)"),
        with_settings(w, trials=20), 1,
    )
    assert report.trials_run == 20 and report.satisfied == 0
    assert not report.witnesses and not report.counterexamples


def test_incomparable_restrictions_reject_via_residual():
    w = make_world()
    # primary string, residual integer: nothing passes both filters
    report = top_level_test(
        term("(implies (and (stringp x) (integerp x)) (equal x x))"),
        with_settings(w, trials=50), 2,
    )
    assert report.satisfied == 0


def test_determinism_byte_identical():
    w = make_world(REV)
    t = term("(equal (rev (rev x)) x)")
    r1 = top_level_test(t, with_settings(w, trials=60), 42)
    r2 = top_level_test(t, with_settings(w, trials=60), 42)
    key = lambda r: (
        [print_binding(b, ["x"]) for b in r.counterexamples],
        [print_binding(b, ["x"]) for b in r.witnesses],
        r.satisfied, r.unique_satisfied, r.trials_run,
    )
    assert key(r1) == key(r2)


def test_monotone_budget_prefix_property():
    w = make_world(REV)
    t = term("(equal (rev (rev x)) x)")
    small = top_level_test(t, with_settings(w, trials=30), 9)
    large = top_level_test(t, with_settings(w, trials=90), 9)
    small_keys = [print_binding(b, ["x"]) for b in small.counterexamples]
    large_keys = [print_binding(b, ["x"]) for b in large.counterexamples]
    assert large_keys[: len(small_keys)] == small_keys
    assert len(large.counterexamples) >= len(small.counterexamples)


def test_erroring_trials_are_neither_witness_nor_counterexample():
    w = make_world("(set-testing :depth-cap 50)\n(defun spin (x) (spin x))")
    report = top_level_test(term("(equal (spin x) 1)"), with_settings(w, trials=5), 1)
    assert report.erroring == 5
    assert report.satisfied == 5  # no hypotheses, so every trial reached the conclusion
    assert not report.witnesses and not report.counterexamples
    assert report.first_error and "depth cap" in report.first_error


def test_exhaustive_mode_covers_the_box():
    w = make_world()
    report = run_trials(
        clause_of(term("(implies (booleanp x) (equal x x))")),
        {"x": ("boolean",)},
        with_settings(w, mode="exhaustive", exhaustive_bound=10),
        24,
        100,
    )
    assert report.mode == "exhaustive"
    assert report.trials_run == 2  # bound clipped to |boolean|
    assert report.unique_satisfied == 2


def test_mixed_mode_switches_on_bound_product():
    w = make_world()
    t = clause_of(term("(implies (and (booleanp x) (booleanp y)) (equal x x))"))
    with_settings(w, mode="mixed")
    small = run_trials(t, {"x": ("boolean",), "y": ("boolean",)}, w, 24, 100)
    assert small.mode == "exhaustive" and small.trials_run == 4
    big = run_trials(t, {"x": ("all",), "y": ("all",)}, w, 24, 10)
    assert big.mode == "random" and big.trials_run == 10


def test_alist_must_cover_free_variables():
    w = make_world()
    with pytest.raises(ValueError, match="does not cover"):
        run_trials(clause_of(term("(natp x)")), {}, w, 24, 5)


def test_strengthened_inequality_yields_no_counterexamples():
    # with the lower bound 1 <= a restored, the conjecture is a theorem;
    # the oracle for "no counterexample exists" is that strengthening
    w = make_world()
    t = term(
        "(implies (and (real/rationalp a) (real/rationalp b) (real/rationalp c)"
        " (< 0 a) (< 0 b) (< 0 c) (<= 1 a)"
        " (<= (expt a 2) (* b (+ c 1))) (<= b (* 4 c)))"
        " (< (expt (- a 1) 2) (* b c)))"
    )
    report = top_level_test(t, with_settings(w, trials=3000), 24)
    assert not report.counterexamples
    assert report.witnesses  # and the hypotheses are satisfiable


SPINNING_ENUMERATOR = (
    "(set-testing :depth-cap 50)\n"
    "(defun evr (x) (integerp x))\n"
    "(defun eve (n) (if (equal n 0) 0 (eve n)))\n"
    "(defdata ev (custom evr eve))"
)


def test_erroring_custom_enumerator_counts_as_erroring_trials():
    w = make_world(SPINNING_ENUMERATOR)
    t = clause_of(term("(implies (and (evr x) (natp y)) (equal x (- y y)))"))
    alist = {"x": ("ev",), "y": ("nat",)}
    small = run_trials(t, alist, w, 3, 30)
    assert small.trials_run == 30
    assert small.erroring > 0 and small.satisfied > 0
    assert small.erroring + small.satisfied == 30  # only x = 0 instantiates
    assert "depth cap of 50" in small.first_error
    large = run_trials(t, alist, w, 3, 90)
    keys = lambda r: [print_binding(b, ["x", "y"]) for b in r.witnesses]
    assert keys(large)[: len(keys(small))] == keys(small)
    assert large.erroring >= small.erroring


def test_erroring_custom_recognizer_in_a_residual_check_counts_as_erroring():
    w = make_world(
        "(set-testing :depth-cap 50)\n"
        "(defun evr (x) (if (equal x 0) t (evr x)))\n"
        "(defun eve (n) n)\n"
        "(defdata ev (custom evr eve))"
    )
    report = run_trials(clause_of(term("(equal x x)")), {"x": ("nat", "ev")}, w, 5, 40)
    assert report.erroring > 0 and report.erroring + report.satisfied == 40
    assert report.first_error == "recursion depth cap of 50 exceeded (likely nonterminating definition)"


RESIDUAL_CASES = [
    # a second singleton on the same variable
    ("", "(implies (and (equal x 1) (equal x 2)) nil)", None,
     lambda r: r.trials_run == 40 and r.satisfied == 0),
    # primary string, residual integer
    ("", "(implies (and (stringp x) (integerp x)) (equal x x))", None,
     lambda r: r.selections["x"].residuals == ("integer",) and r.satisfied == 0),
    # primary nat, residual ev, whose recognizer loops on every value but 0
    ("(set-testing :depth-cap 50)\n(defun evr (x) (if (equal x 0) t (evr x)))\n"
     "(defun eve (n) n)\n(defdata ev (custom evr eve))",
     "(equal x x)", {"x": ("nat", "ev")},
     lambda r: 0 < r.erroring < r.trials_run == r.erroring + r.satisfied and "depth cap of 50" in r.first_error),
]


def test_residual_checks_run_in_the_one_conjunction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a residual check ran outside the trial's conjunction")

    for forms, conjecture, alist, shows in RESIDUAL_CASES:
        w = make_world(forms)
        clause = clause_of(term(conjecture))
        alist = alist or extract_restrictions(clause, w)
        expected = run_trials(clause, alist, w, 5, 40)
        with monkeypatch.context() as m:
            m.setattr(testgen, "recognize", forbidden)
            got = run_trials(clause, alist, w, 5, 40)
        assert _report_fields(got) == _report_fields(expected), conjecture
        assert shows(got), conjecture


def test_erroring_custom_enumerator_is_reported_by_the_cli(tmp_path, capsys):
    from sedan.cli import main

    path = tmp_path / "spin.lisp"
    path.write_text(SPINNING_ENUMERATOR + "\n(test? (implies (evr x) (integerp x)))\n")
    assert main([str(path), "--format", "text"]) == 0
    assert "raised evaluation errors; first: recursion depth cap of 50" in capsys.readouterr().out


# symbol a, string "a" and character #\a, and pairs of them; many indices of
# the union decode to the same value, so exhaustive trials repeat bindings
LOOK_ALIKES = (
    "(set-testing :depth-cap 30)\n"
    "(defdata look (oneof 'a \"a\" #\\a (cons look look)))\n"
    "(defun spin (v) (if (consp (car v)) (spin v) v))"
)


def _counts_under_printed_keys(world, conjecture, names, bound):
    """The trial classification of run_trials in exhaustive mode, keyed by
    each binding's printed form instead of its values."""
    hyps, concl = split_implies(conjecture)
    seen, counts, witnesses, counterexamples = {}, Counter(), [], []
    for index in itertools.product(range(bound), repeat=len(names)):
        binding = {v: enumerate_value(world, "look", i) for v, i in zip(names, index)}
        try:
            ok = all(truthy(evaluate(h, binding, world)) for h in hyps)
        except EvaluationError:
            counts["erroring"] += 1
            continue
        if not ok:
            continue
        key = print_binding(binding, names)
        if key in seen:
            counts["erroring"] += seen[key] == "err"
            continue
        counts["unique_satisfied"] += 1
        try:
            value = evaluate(concl, binding, world)
        except EvaluationError:
            counts["erroring"] += 1
            counts["erroring_unique"] += 1
            seen[key] = "err"
            continue
        seen[key] = "wit" if truthy(value) else "cex"
        (witnesses if truthy(value) else counterexamples).append(key)
    return counts, witnesses, counterexamples


def test_value_keys_deduplicate_as_printed_keys_do():
    w = make_world(LOOK_ALIKES)
    # spin loops on a value whose car is a pair: errors in a hypothesis (y)
    # and in the conclusion (x)
    t = term("(implies (and (lookp x) (not (equal (spin y) 'b))) (equal (spin x) y))")
    bound = 40
    report = run_trials(clause_of(t), {"x": ("look",), "y": ("look",)},
                        with_settings(w, mode="exhaustive", exhaustive_bound=bound), 24, bound * bound)
    counts, witnesses, counterexamples = _counts_under_printed_keys(w, t, ["x", "y"], bound)
    assert report.trials_run == bound * bound
    assert report.unique_satisfied == counts["unique_satisfied"]
    assert report.erroring == counts["erroring"]
    assert report.erroring_unique == counts["erroring_unique"]
    assert [print_binding(b, ["x", "y"]) for b in report.witnesses] == witnesses
    assert [print_binding(b, ["x", "y"]) for b in report.counterexamples] == counterexamples
    # the check means something: every trial that is not satisfied raised in
    # a hypothesis, bindings repeat, and some repeat an error in the conclusion
    hypothesis_errors = report.trials_run - report.satisfied
    assert report.unique_satisfied < report.satisfied
    assert 0 < report.erroring_unique < report.erroring - hypothesis_errors
    assert witnesses and counterexamples
    printed = {print_value(enumerate_value(w, "look", n)) for n in range(bound)}
    assert {"a", '"a"', "#\\a", '(a . "a")'} <= printed


# -- the outcome memo: a repeated index tuple only adds its remembered outcome,
# so every report field must match a run that remembers nothing


def _report_fields(report):
    return (
        report.mode, report.trials_run, report.satisfied, report.unique_satisfied,
        report.erroring, report.erroring_unique, report.first_error,
        report.counterexamples, report.witnesses,
    )


def _counting_decodes(monkeypatch):
    """Count the decodes run_trials makes through ``testgen.sample``: all of
    them under "n", and each (type, index) pair under the pair."""
    decodes = Counter()
    decode = testgen.sample

    def counted(world, name, index):
        decodes["n"] += 1
        decodes[name, index] += 1
        return decode(world, name, index)

    monkeypatch.setattr(testgen, "sample", counted)
    return decodes


MEMO_CASES = {
    # id: (forms, settings, conjecture, alist or None to extract it, trials,
    #      what the run and its number of decodes must show for the comparison
    #      to mean something)
    "geometric": (REV, {}, "(equal (rev (rev x)) x)", None, 300,
                  lambda r, d: r.counterexamples and r.witnesses),
    "uniform": ("", {"dist": "uniform", "uniform_bound": 6},
                "(implies (and (natp x) (natp y)) (< x (+ y 2)))", None, 200,
                lambda r, d: r.counterexamples and r.witnesses),
    "exhaustive": ("", {"mode": "exhaustive", "exhaustive_bound": 12},
                   "(implies (and (natp x) (natp y)) (< x (+ y 2)))", None, 500,
                   lambda r, d: r.mode == "exhaustive" and r.trials_run == 144),
    "mixed-random": ("", {"mode": "mixed"}, "(implies (and (booleanp x) (natp y)) (or x (< y 3)))",
                     None, 200, lambda r, d: r.mode == "random" and r.counterexamples),
    "mixed-exhaustive": ("", {"mode": "mixed", "exhaustive_bound": 5},
                         "(implies (and (booleanp x) (natp y)) (or x (< y 3)))", None, 200,
                         lambda r, d: r.mode == "exhaustive" and r.trials_run == 10),
    "singleton": ("", {}, "(implies (and (equal y 3) (natp x)) (< x y))", None, 200,
                  lambda r, d: r.witnesses and all(b["y"] == 3 for b in r.witnesses + r.counterexamples)),
    "residual": ("(defdata lo (oneof 0 1 2 'a 'b))", {}, "(equal x x)", {"x": ("lo", "nat")}, 200,
                 lambda r, d: 0 < r.satisfied < r.trials_run),
    "erroring-enumerator": (SPINNING_ENUMERATOR, {},
                            "(implies (and (evr x) (natp y)) (equal x (- y y)))",
                            {"x": ("ev",), "y": ("nat",)}, 200,
                            lambda r, d: r.erroring > 0 and r.satisfied > 0),
    "erroring-recognizer": (
        "(set-testing :depth-cap 50)\n(defun evr (x) (if (equal x 0) t (evr x)))\n"
        "(defun eve (n) n)\n(defdata ev (custom evr eve))",
        {}, "(equal x x)", {"x": ("nat", "ev")}, 200,
        lambda r, d: r.erroring > 0 and r.erroring + r.satisfied == r.trials_run),
    # spin errors in a hypothesis (y) and in the conclusion (x); satisfied
    # trials that repeat a conclusion error count as erroring
    "depth-cap": (LOOK_ALIKES, {},
                  "(implies (and (lookp x) (not (equal (spin y) 'b))) (equal (spin x) y))",
                  {"x": ("look",), "y": ("look",)}, 2000,
                  lambda r, d: r.trials_run > r.satisfied
                  and 0 < r.erroring_unique < r.erroring - (r.trials_run - r.satisfied)),
    # nat's and pos's values overlap, so distinct indices decode to one value
    "non-injective": ("(defdata np (oneof nat pos))", {}, "(implies (npp x) (< x 4))", None, 300,
                      lambda r, d: r.counterexamples and r.witnesses and r.unique_satisfied < d),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_outcome_memo_changes_no_report_field(case, monkeypatch):
    forms, settings, conjecture, alist, trials, shows = MEMO_CASES[case]
    w = with_settings(make_world(forms), **settings)
    clause = clause_of(term(conjecture))
    alist = alist or extract_restrictions(clause, w)
    decodes = _counting_decodes(monkeypatch)
    remembered = run_trials(clause, alist, w, 24, trials)
    decoded_with_memo = decodes["n"]
    distinct_pairs = len(decodes) - 1
    monkeypatch.setattr(testgen, "OUTCOME_MEMO_CAPACITY", 0)
    forgotten = run_trials(clause, alist, w, 24, trials)
    assert _report_fields(remembered) == _report_fields(forgotten)
    assert shows(remembered, decoded_with_memo)
    if remembered.mode == "random":
        # repeats were answered from the memo, not decoded again
        assert decoded_with_memo < decodes["n"] - decoded_with_memo
    else:
        # the odometer repeats no tuple, but it repeats each variable's
        # indices, and each (type, index) is decoded once
        assert decoded_with_memo <= distinct_pairs
        assert decoded_with_memo < decodes["n"] - decoded_with_memo


@pytest.mark.parametrize("capacity", [0, 1, 5, 40])
def test_a_full_memo_stops_remembering(capacity, monkeypatch):
    w = make_world(REV)
    clause = clause_of(term("(equal (rev (rev x)) x)"))
    alist = {"x": ("all",)}
    full = run_trials(clause, alist, w, 9, 300)
    decodes = _counting_decodes(monkeypatch)
    monkeypatch.setattr(testgen, "OUTCOME_MEMO_CAPACITY", capacity)
    bounded = run_trials(clause, alist, w, 9, 300)
    assert _report_fields(bounded) == _report_fields(full)
    # the first `capacity` distinct indices are remembered, and only they
    rng, remembered, expected = IndexSource(9), set(), 0
    for _ in range(300):
        index = (rng.draw(),)
        if index not in remembered:
            expected += 1
            if len(remembered) < capacity:
                remembered.add(index)
    assert decodes["n"] == expected
    assert expected < 300 if capacity else expected == 300


# -- the decode memo: each (type, index) is decoded once per run, whichever
# variable of that type draws it


def _trial_tuples(settings, width, trials):
    """The index tuples run_trials walks for ``width`` variables of a type
    with no finite extent, replayed outside it; ``trials`` bounds every mode."""
    mode, bound = settings.get("mode", "random"), settings.get("exhaustive_bound", 16)
    if mode == "exhaustive" or (mode == "mixed" and bound**width <= trials):
        return list(itertools.islice(itertools.product(range(bound), repeat=width), trials))
    rng = IndexSource(24, settings.get("dist", "geometric"), settings.get("uniform_bound", 1 << 24))
    return [tuple(rng.draw() for _ in range(width)) for _ in range(trials)]


@pytest.mark.parametrize("settings", [
    {},
    {"dist": "uniform", "uniform_bound": 12},
    {"mode": "exhaustive", "exhaustive_bound": 7},
    {"mode": "mixed", "exhaustive_bound": 6},
    {"mode": "mixed", "exhaustive_bound": 9},
], ids=["geometric", "uniform", "exhaustive", "mixed-exhaustive", "mixed-random"])
def test_each_type_and_index_is_decoded_once(settings, monkeypatch):
    w = with_settings(make_world(), **settings)
    clause = clause_of(term("(implies (and (natp a) (natp b) (natp c)) (< a (+ b c 5)))"))
    decodes = _counting_decodes(monkeypatch)
    report = run_trials(clause, extract_restrictions(clause, w), w, 24, 300)
    tuples = _trial_tuples(settings, 3, 300)
    assert report.trials_run == len(tuples)
    assert report.counterexamples and report.witnesses
    assert max(count for key, count in decodes.items() if key != "n") == 1
    # a, b and c share nat's values: an index two variables draw is decoded once
    distinct = {i for t in tuples for i in t}
    per_variable = sum(len({t[k] for t in tuples}) for k in range(3))
    assert decodes["n"] == len(distinct) < per_variable


@pytest.mark.parametrize("forms, conjecture, alist", [
    # index 0 decodes to 0; every other index of ev's enumerator raises
    (SPINNING_ENUMERATOR, "(equal (+ x y) (+ y z))", {v: ("ev",) for v in "xyz"}),
    # nat's and pos's values overlap, so distinct indices decode to one value
    ("(defdata np (oneof nat pos))", "(implies (and (npp x) (npp y) (npp z)) (< x (+ y z 3)))", None),
], ids=["raising-enumerator", "non-injective"])
def test_the_decode_memo_changes_no_report_field(forms, conjecture, alist, monkeypatch):
    w = make_world(forms)
    clause = clause_of(term(conjecture))
    alist = alist or extract_restrictions(clause, w)
    decodes = _counting_decodes(monkeypatch)
    remembered = run_trials(clause, alist, w, 24, 300)
    pairs = {key: count for key, count in decodes.items() if key != "n"}
    monkeypatch.setattr(testgen, "OUTCOME_MEMO_CAPACITY", 0)
    assert _report_fields(remembered) == _report_fields(run_trials(clause, alist, w, 24, 300))
    assert remembered.witnesses
    if remembered.erroring:
        # a decode that raised was not remembered: each tuple that drew a
        # raising index decoded it again, while index 0 decoded once
        assert remembered.first_error and remembered.satisfied
        assert pairs.pop(("ev", 0)) == 1 and max(pairs.values()) > 1
    else:
        assert remembered.counterexamples
        values = {print_value(enumerate_value(w, name, i)) for name, i in pairs}
        assert max(pairs.values()) == 1 and len(values) < len(pairs)


# -- the generated trial loop against the interpreted one (oracle.py)


TRIAL_WORLD = make_world(
    # dep nests n calls deep, past a depth cap of 8 from n = 8; spin passes any cap
    "(defun dep (n) (if (posp n) (dep (- n 1)) 0))\n"
    "(defun spin (x) (spin x))\n"
    # ev's enumerator raises on every index but 0, rv's recognizer on every value but 0
    "(defun evr (x) (integerp x))\n"
    "(defun eve (n) (if (equal n 0) 0 (eve n)))\n"
    "(defdata ev (custom evr eve))\n"
    "(defun rvr (x) (if (equal x 0) t (rvr x)))\n"
    "(defun rve (n) n)\n"
    "(defdata rv (custom rvr rve))\n"
    "(defdata lon (listof nat))"
)
TRIAL_TYPES = ["nat", "integer", "rational", "true-list", "lon", "ev", "rv", "all"]
TRIAL_RECOGNIZERS = ["natp", "integerp", "rationalp", "true-listp", "lonp", "evr", "rvr"]
TRIAL_VALUES = [0, 1, 3, -2, Fraction(1, 2), NIL, T, "s", from_list([1, 2])]
# arities; spin and dep go past the depth cap, and mystery is never defined
TRIAL_FUNS = {"<": 2, "+": 2, "equal": 2, "consp": 1, "len": 1, "not": 1, "if": 3, "car": 1, "natp": 1,
              "dep": 1, "spin": 1, "mystery": 1}
TRIAL_CALLS = ["<", "<", "+", "equal", "equal", "consp", "len", "not", "if", "car", "natp", "dep", "dep", "spin",
               "mystery"]


def trial_terms(names):
    """Terms over the variables ``names``; none has a variable if ``names`` is empty."""
    leaves = st.sampled_from(TRIAL_VALUES).map(Quote)
    if names:
        variables = st.sampled_from(names).map(Var)
        leaves = st.one_of(variables, variables, leaves)

    def apps(children):
        return st.sampled_from(TRIAL_CALLS).flatmap(
            lambda fn: st.lists(children, min_size=TRIAL_FUNS[fn], max_size=TRIAL_FUNS[fn]).map(
                lambda args: App(fn, tuple(args))
            )
        )

    return st.recursive(leaves, apps, max_leaves=4)


@st.composite
def trial_runs(draw):
    """A clause, a type alist for it, settings, a memo capacity, a trial
    count and a seed. A shape of "pinned" pins every variable to a singleton,
    and "ground" and "empty" have none, so none of them draws an index."""
    shape = draw(st.sampled_from(["typed", "typed", "typed", "typed", "pinned", "ground", "empty"]))
    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    terms = trial_terms([] if shape == "ground" else names)
    literals = [] if shape == "empty" else draw(st.lists(terms, max_size=2))
    if shape != "empty":
        # a conclusion that goes past the depth cap on large values
        past_cap = st.one_of(st.sampled_from(names).map(Var), terms).map(
            lambda t: App("equal", (App("dep", (t,)), Quote(0))))
        literals.append(draw(st.one_of(terms, past_cap)))
    if shape in ("typed", "pinned"):
        # a type hypothesis on each variable the terms left out
        absent = [v for v in names if v not in clause_vars(literals)]
        literals[:0] = [App("not", (App(draw(st.sampled_from(TRIAL_RECOGNIZERS)), (Var(v),)),)) for v in absent]
    alist = {}
    for v in clause_vars(literals):
        restrictions = draw(st.lists(st.sampled_from(TRIAL_TYPES), min_size=1, max_size=2, unique=True))
        if shape == "pinned" or draw(st.sampled_from([False] * 5 + [True])):
            restrictions.insert(draw(st.integers(0, len(restrictions))),
                                SingletonRestriction(draw(st.sampled_from(TRIAL_VALUES))))
        alist[v] = tuple(restrictions)
    updates = {
        "mode": draw(st.sampled_from(["random", "exhaustive", "mixed"])),
        "dist": draw(st.sampled_from(["geometric", "uniform"])),
        "uniform_bound": draw(st.sampled_from([4, 1 << 24])),
        "exhaustive_bound": draw(st.integers(2, 12)),
        "depth_cap": 8,
    }
    capacity = draw(st.sampled_from([0, 5, testgen.OUTCOME_MEMO_CAPACITY]))
    return literals, alist, updates, capacity, draw(st.integers(20, 60)), draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(trial_runs())
def test_the_generated_trial_loop_reports_as_the_interpreted_loop(run):
    literals, alist, updates, capacity, trials, seed = run
    w = with_settings(TRIAL_WORLD, **updates)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(testgen, "OUTCOME_MEMO_CAPACITY", capacity)
        got = run_trials(literals, alist, w, seed, trials)
        expected = run_trials_one_by_one(literals, alist, w, seed, trials)
    assert _report_fields(got) == _report_fields(expected)
    assert got.erroring_unique == expected.erroring_unique
    bindings = lambda r: [list(b.items()) for b in r.witnesses + r.counterexamples]
    assert bindings(got) == bindings(expected)


# -- a test past Python's default stack runs on the form's stack; one past the
# depth cap raises the cap's error in the loop itself

TREE_WALK = "(defun size (x) (if (consp x) (+ 1 (size (car x)) (size (cdr x))) 0))\n"
# a value nested k deep in its cars
MK = "(defun mk (k) (if (posp k) (cons (mk (- k 1)) nil) nil))\n"


@pytest.mark.parametrize("conjecture", [
    "(implies (natp n) (< (size (mk 3000)) (+ n 3000)))",
    "(implies (and (natp n) (< (size (mk 3000)) (+ n 3000))) (< n 5))",
], ids=["conclusion", "hypothesis"])
def test_a_test_that_overflows_the_python_stack_reruns_as_the_oracle_does(conjecture, monkeypatch):
    # each test builds and walks a value nested 3000 deep: far past Python's
    # default stack, well within the default cap of 10000, so the form's
    # stack holds it, for the generated loop and the oracle alike
    source = "(set-testing :trials 40)\n" + TREE_WALK + MK + f"(test? {conjecture})"
    got = process_source(source)[0].forms[-1].testing
    monkeypatch.setattr(testgen, "run_trials", run_trials_one_by_one)
    expected = process_source(source)[0].forms[-1].testing
    assert _report_fields(got) == _report_fields(expected)
    assert expected.witnesses and expected.counterexamples and not expected.erroring


def test_a_conclusion_past_the_depth_cap_reports_the_cap_without_a_rerun(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a test past the depth cap ran again through evaluate")

    w = with_settings(make_world("(defun spin (n) (if (natp n) (spin (+ n 1)) n))"), depth_cap=50)
    clause = clause_of(term("(implies (natp x) (natp (spin x)))"))
    expected = run_trials_one_by_one(clause, extract_restrictions(clause, w), w, 24, 100)
    monkeypatch.setattr(testgen, "evaluate", forbidden)
    report = run_trials(clause, extract_restrictions(clause, w), w, 24, 100)
    assert report.first_error == "recursion depth cap of 50 exceeded (likely nonterminating definition)"
    assert report.erroring == report.satisfied == report.trials_run == 100
    assert _report_fields(report) == _report_fields(expected)


def test_a_hypothesis_past_the_depth_cap_reports_the_cap():
    w = with_settings(make_world("(defun dep (n) (if (posp n) (dep (- n 1)) 0))"), depth_cap=6)
    clause = clause_of(term("(implies (and (natp n) (equal (dep n) 0)) (< n 3))"))
    report = run_trials(clause, extract_restrictions(clause, w), w, 24, 200)
    assert report.first_error == "recursion depth cap of 6 exceeded (likely nonterminating definition)"
    assert 0 < report.erroring < report.trials_run == 200
    assert report.counterexamples and report.witnesses
    assert _report_fields(report) == _report_fields(run_trials_one_by_one(
        clause, extract_restrictions(clause, w), w, 24, 200))


@pytest.mark.parametrize("conjecture, alist", [
    ("(equal (+ 1 1) 2)", {}),
    ("(implies (equal x 3) (< x 4))", {"x": (SingletonRestriction(3),)}),
], ids=["ground", "pinned"])
@pytest.mark.parametrize("mode, runs", [("random", 37), ("exhaustive", 1), ("mixed", 1)])
def test_a_clause_with_no_drawn_variable_runs_exactly_its_trials(conjecture, alist, mode, runs, monkeypatch):
    # random mode runs every trial without a draw; the box of no indices has
    # one point, which exhaustive mode runs once
    def no_draw(self):
        raise AssertionError("an index was drawn")

    monkeypatch.setattr(IndexSource, "geometric", no_draw)
    w = with_settings(make_world(), mode=mode)
    report = run_trials(clause_of(term(conjecture)), alist, w, 24, 37)
    assert (report.mode, report.trials_run, report.satisfied) == ("exhaustive" if runs == 1 else "random", runs, runs)
    assert report.unique_satisfied == len(report.witnesses) == 1
