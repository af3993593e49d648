import contextlib
import gc
import hashlib
import io
import json
import os
import threading
import weakref

import pytest

from sedan import session
from sedan.evaluator import evaluate
from sedan.forms import _SET_TESTING_KEYS
from sedan.reader import MAX_NESTING
from sedan.reports import display_binding, emit_report, parse_binding, render_text
from sedan.session import process_file, process_source
from sedan.values import NIL
from sedan.world import SETTING_BOUNDS, AdmissionError, RewriteRule, Settings, World, describe_bound

from conftest import corpus_path, make_world, on_a_plain_thread, term

CORPUS = ["rev.lisp", "triangle.lisp", "inequality.lisp", "gen-backtrack.lisp",
          "base-rules.lisp", "cancel-rules.lisp"]


def test_rev_corpus_outcome():
    out = process_file(corpus_path("rev.lisp"), Settings(trials=100, seed=24))
    assert out.fatal_error is None
    statuses = [(fr.kind, fr.status) for fr in out.forms]
    assert statuses == [("defun", "admitted"), ("test?", "falsified"), ("test?", "admitted")]
    assert out.exit_code == 1
    text = render_text(out)
    assert "We falsified the conjecture. Here are counterexamples:" in text
    assert "Random testing with type alist ((X . ALL))" in text
    assert "Random testing with type alist ((X . TRUE-LIST))" in text


def test_empty_file_exits_zero(tmp_path):
    path = tmp_path / "empty.lisp"
    path.write_text("; nothing here\n")
    out = process_file(str(path))
    assert out.exit_code == 0
    assert out.forms == []


def test_admission_error_stops_processing(tmp_path):
    path = tmp_path / "bad.lisp"
    path.write_text("(defun f (x) (g x))\n(defun h (x) x)\n")
    out = process_file(str(path))
    assert out.forms[0].status == "error"
    assert "g" in out.forms[0].error
    assert len(out.forms) == 1  # processing stopped
    assert out.exit_code == 1


def test_parse_error_is_fatal(tmp_path):
    path = tmp_path / "broken.lisp"
    path.write_text("(defun f (x)")
    out = process_file(str(path))
    assert out.fatal_error is not None
    assert out.exit_code == 1


def test_a_misplaced_dot_in_quoted_data_is_a_parse_error(tmp_path, capsys):
    from sedan.cli import main

    path = tmp_path / "dots.lisp"
    path.write_text("(test? (equal '(a . b) (cons 'a 'b)))\n(test? (equal (quote (a . b . c)) nil))\n")
    assert main([str(path), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "2:22: misplaced '.' in datum" in out  # at the datum's '('
    assert "Traceback" not in out and "counterexample" not in out.lower()


@pytest.mark.parametrize("type_expr", ["(quote)", "(quote a b)"])
def test_a_quoted_singleton_type_takes_exactly_one_datum(type_expr, tmp_path, capsys):
    from sedan.cli import main

    path = tmp_path / "quote.lisp"
    path.write_text(f"(defdata x {type_expr})\n(test? (xp y))\n")
    assert main([str(path), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "Error: 1:12: quote takes exactly one datum" in out
    assert "Traceback" not in out and "form 1" not in out


def _nested_car(depth: int) -> str:
    return "(test? (equal " + "(car " * depth + "x" + ")" * depth + " 0))\n"


def test_deep_nesting_is_reported_not_a_traceback(tmp_path, capsys):
    from sedan.cli import main

    out, _ = process_source(_nested_car(500) + _nested_car(500).replace("test?", "thm"))
    assert "nested deeper" in out.fatal_error
    assert out.exit_code == 1
    path = tmp_path / "deep.lisp"
    path.write_text(_nested_car(500))
    assert main([str(path), "--format", "text"]) == 1
    assert "nested deeper" in capsys.readouterr().out


def test_deeply_nested_quote_marks_are_reported_not_a_traceback(tmp_path, capsys):
    from sedan.cli import main

    # each quote mark is a list, (quote ...): two lists and 254 quotes reach
    # the cap, so the next quote, at column 17 + 254, is the error
    path = tmp_path / "quotes.lisp"
    path.write_text("(test? (equal x " + "'" * 3000 + "a))\n")
    assert main([str(path), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert f"1:271: lists nested deeper than {MAX_NESTING} levels" in out
    assert "Traceback" not in out and "RecursionError" not in out


def _long_cond(clauses: int, form: str) -> str:
    arms = " ".join(f"((equal x {i}) {i})" for i in range(clauses))
    return f"({form} (implies (natp x) (equal (cond {arms} (t x)) x)))\n"


@pytest.mark.parametrize("form", ["thm", "test?"])
def test_cond_expanding_past_the_nesting_cap_is_a_parse_error(form, tmp_path, capsys):
    from sedan.cli import main

    # 1500 clauses read as shallow lists but expand into 1500 nested ifs
    path = tmp_path / "cond.lisp"
    path.write_text(_long_cond(1500, form))
    assert main([str(path), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert f"nested deeper than {MAX_NESTING} levels" in out
    assert "Traceback" not in out
    # the ifs start at level 3, so 253 clauses keep every test within the cap
    path.write_text(_long_cond(MAX_NESTING - 3, form))
    assert main([str(path), "--format", "text"]) == 0
    path.write_text(_long_cond(MAX_NESTING - 2, form))
    assert main([str(path), "--format", "text"]) == 1


def test_form_feed_and_other_whitespace_separate_forms(tmp_path, capsys):
    from sedan.cli import main

    # Lisp files often separate pages with a form feed
    path = tmp_path / "pages.lisp"
    path.write_text("(test? (equal x x))\f\n\f(test?\v(equal\u00a0y y))\x85\n", encoding="utf-8")
    assert main([str(path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert ";; form 1: (test? (equal y y))" in out
    assert out.count("none were counterexamples") == 2


def test_moderate_nesting_is_accepted():
    out, _ = process_source(_nested_car(200) + _nested_car(200).replace("test?", "thm"))
    assert out.fatal_error is None
    assert [fr.status for fr in out.forms] == ["falsified", "falsified"]


def test_subtype_evidence_that_raises_is_an_admission_error(tmp_path, capsys):
    from sedan.cli import main

    # the enumerator loops at index 3; the depth cap turns that into an error
    path = tmp_path / "loops.lisp"
    path.write_text(
        "(set-testing :depth-cap 50)\n"
        "(defun evr (x) (integerp x))\n"
        "(defun eve (n) (if (equal n 3) (eve n) n))\n"
        "(defdata ev (custom evr eve))\n"
        "(defdata-subtype ev integer)\n"
        "(test? (equal 1 1))\n"
    )
    assert main([str(path), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "Traceback" not in out
    assert (
        "Error: cannot admit ev as a subtype of integer: evidence check at index 3 raised: "
        "recursion depth cap of 50 exceeded" in out
    )
    assert "form 5" not in out  # an admission error stops the session


DEEP_FILES = {
    # 9990 nested calls, and a test? whose draws above 5000 pass the depth cap
    "len3": "(defun len3 (n) (if (posp n) (+ 1 (len3 (- n 1))) 0))\n"
            "(thm (equal (len3 9990) 9990))\n"
            "(test? (implies (natp n) (equal (len3 (+ n 5000)) (+ n 5000))))\n",
    # a tree 3000 deep, which the recursive tree recognizer walks once per level
    "tree-thm": "(defdata tree (oneof nat (cons tree tree)))\n"
                "(defun mk (n) (if (posp n) (cons (mk (- n 1)) 0) 0))\n"
                "(thm (treep (mk 3000)))\n",
    "tree-test": "(defdata tree (oneof nat (cons tree tree)))\n"
                 "(defun mk (n) (if (posp n) (cons (mk (- n 1)) 0) 0))\n"
                 "(test? (implies (posp n) (treep (mk (+ n 3000)))))\n",
}


def _run_deep(name, tmp_path, capsys):
    """cli.main's text and structured forms for a DEEP_FILES entry."""
    from sedan.cli import main

    path, report = tmp_path / f"{name}.lisp", tmp_path / "report.json"
    path.write_text(DEEP_FILES[name])
    assert main([str(path), "--format", "text", "--report", str(report)]) == 0
    text = capsys.readouterr().out
    assert "Traceback" not in text and "maximum recursion depth" not in text
    return text, json.loads(report.read_text())["forms"]


def test_a_defun_nested_to_the_depth_cap_runs_on_generated_code(tmp_path, capsys):
    text, forms = _run_deep("len3", tmp_path, capsys)
    assert [f["status"] for f in forms] == ["admitted", "proved", "admitted"]
    testing = forms[2]["testing"]
    # every erroring trial is a distinct draw above 5000 (two at this seed),
    # and each hits the depth cap
    erroring = testing["unique"] - testing["witness_count"] - testing["counterexample_count"]
    assert testing["erroring"] == erroring == 2
    assert testing["first_error"] == "recursion depth cap of 10000 exceeded (likely nonterminating definition)"


def test_a_deep_ground_value_folds_to_a_verdict(tmp_path, capsys):
    text, forms = _run_deep("tree-thm", tmp_path, capsys)
    assert forms[2]["status"] == "proved"
    assert "Q.E.D." in text


def test_deep_values_in_trials_are_recognized(tmp_path, capsys):
    text, forms = _run_deep("tree-test", tmp_path, capsys)
    testing = forms[2]["testing"]
    # only a draw that takes mk past the depth cap errs
    assert testing["erroring"] == 1
    assert testing["first_error"].startswith("recursion depth cap of 10000 exceeded")


SPIN = "(defun spin (n) (if (natp n) (spin (+ n 1)) n))\n(test? (implies (natp x) (natp (spin x))))\n"


@pytest.mark.parametrize("cap, first_error", [
    (300, "recursion depth cap of 300 exceeded (likely nonterminating definition)"),
    (None, "recursion depth cap of 10000 exceeded (likely nonterminating definition)"),
    # no thread with a stack for this cap can start, so the form runs on the
    # caller's stack, and each test overflows it once
    (100000000, "cannot start a thread with a Python stack for the depth cap of 100000000: can't start new thread"),
], ids=["cap-300", "default-cap", "cap-1e8"])
def test_a_nonterminating_conclusion_runs_once_per_trial(cap, first_error, monkeypatch):
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread) or start(thread))
    settings = "(set-testing :trials 30" + ("" if cap is None else f" :depth-cap {cap}") + ")\n"
    # a thread of the test's own, so an overflow on the caller's stack drops
    # no tracer of the main thread's
    outcome, _ = on_a_plain_thread(process_source, settings + SPIN)
    assert [fr.status for fr in outcome.forms] == ["admitted"] * 3
    testing = outcome.forms[2].testing
    assert testing.erroring == testing.satisfied == testing.trials_run == 30
    assert not testing.counterexamples and not testing.witnesses
    assert testing.first_error == first_error
    # one thread started (or tried) for the one form that evaluates, and none
    # for a trial
    assert len(starts) == 1


RECURSIVE_AND_CUSTOM = """\
(defun evp (x) (and (integerp x) (integerp (* x 1/2))))
(defun nth-ev (n) (* 2 n))
(defdata ev (custom evp nth-ev))
(defdata-subtype ev integer)
(defdata tree (oneof nat (cons tree tree)))
(defdata (sexp (oneof symbol integer slist)) (slist (oneof nil (cons sexp slist))))
(defun size (x) (if (consp x) (+ (size (car x)) (size (cdr x))) 1))
(test? (implies (and (treep x) (evp y)) (posp (size x))))
(test? (implies (and (slistp x) (evp y)) (equal (len x) y)))
(thm (implies (and (treep x) (evp y) (sexpp z)) (< (size x) (+ y 10))))
"""


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic collector on or off inside, and as it was after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_finished_world_is_freed_by_reference_counting(monkeypatch, tmp_path):
    # compiled terms and types must not hold their world in a reference cycle,
    # or every verdict would leave a world for the cyclic collector
    worlds = []

    def tracked_world(**kwargs):
        world = World(**kwargs)
        worlds.append(weakref.ref(world))
        return world

    monkeypatch.setattr(session, "World", tracked_world)
    path = tmp_path / "types.lisp"
    path.write_text(RECURSIVE_AND_CUSTOM)
    with collector(False):
        for name in (corpus_path("triangle.lisp"), str(path)):
            outcome = process_file(name)
            assert outcome.fatal_error is None
            assert "error" not in {fr.status for fr in outcome.forms}
            assert outcome.forms[-1].status in ("falsified", "failed-with-checkpoints")
            assert worlds[-1]() is None, name


def test_missing_file_is_fatal():
    out = process_file("no-such-file.lisp")
    assert out.fatal_error is not None
    assert out.exit_code == 1


def test_a_file_that_is_not_utf8_is_a_fatal_error(tmp_path, capsys):
    from sedan.cli import main

    path = tmp_path / "latin1.lisp"
    path.write_bytes(b"(test? (natp \xff x))\n")
    assert main([str(path), "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert f"{path}: 'utf-8' codec can't decode byte 0xff in position 13" in out
    assert "Traceback" not in out
    # reached through an include, the same bytes are the include form's error
    (tmp_path / "main.lisp").write_text('(include "latin1.lisp")\n')
    out = process_file(str(tmp_path / "main.lisp"))
    assert out.fatal_error is None
    assert [fr.status for fr in out.forms] == ["error"]
    assert "can't decode byte 0xff" in out.forms[0].error


def test_an_included_file_that_does_not_parse_is_named_in_its_error(tmp_path):
    # the include form's error names the file, as the top file's fatal error does
    bad = str(tmp_path / "bad.lisp")
    (tmp_path / "bad.lisp").write_text("(defun h (x) (\n")
    (tmp_path / "main.lisp").write_text('(include "bad.lisp")\n')
    assert process_file(bad).fatal_error == f"{bad}: 1:1: unbalanced '('"
    out = process_file(str(tmp_path / "main.lisp"))
    assert out.fatal_error is None
    assert [(fr.status, fr.error) for fr in out.forms] == [("error", f"{bad}: 1:1: unbalanced '('")]


def test_an_included_file_that_is_not_utf8_is_named_in_its_error(tmp_path):
    latin1 = str(tmp_path / "latin1.lisp")
    (tmp_path / "latin1.lisp").write_bytes(b"(test? (natp \xff x))\n")
    (tmp_path / "main.lisp").write_text('(include "latin1.lisp")\n')
    out = process_file(str(tmp_path / "main.lisp"))
    assert [fr.status for fr in out.forms] == ["error"]
    assert out.forms[0].error.startswith(f"{latin1}: 'utf-8' codec can't decode byte 0xff in position 13")


def test_an_include_whose_file_stops_at_a_form_is_an_error(tmp_path):
    lib = str(tmp_path / "lib.lisp")
    (tmp_path / "lib.lisp").write_text("(defun ok (x) x)\n(defun broken (x) (car x y z))\n")
    (tmp_path / "top.lisp").write_text('(include "lib.lisp")\n')
    out = process_file(str(tmp_path / "top.lisp"))
    assert [(fr.kind, fr.status, fr.error) for fr in out.forms] == [
        ("include", "error", f"{lib}: stopped at form 2"),
        ("defun", "admitted", None),
        ("defun", "error", "car applied to 3 argument(s), expects 1"),
    ]
    assert out.fatal_error is None and out.exit_code == 1


def test_an_include_whose_included_file_does_not_parse_is_an_error_too(tmp_path):
    # outer -> main -> bad: each include on the chain fails, the innermost with
    # the parse error
    main, bad = str(tmp_path / "main.lisp"), str(tmp_path / "bad.lisp")
    (tmp_path / "bad.lisp").write_text("(defun h (x) (\n")
    (tmp_path / "main.lisp").write_text('(include "bad.lisp")\n')
    (tmp_path / "outer.lisp").write_text('(include "main.lisp")\n')
    out = process_file(str(tmp_path / "outer.lisp"))
    assert [(fr.status, fr.error) for fr in out.forms] == [
        ("error", f"{main}: stopped at form 1"),
        ("error", f"{bad}: 1:1: unbalanced '('"),
    ]
    assert out.fatal_error is None and out.exit_code == 1
    assert "Admitted." not in render_text(out)


def test_include_loads_relative_and_detects_cycles(tmp_path):
    (tmp_path / "a.lisp").write_text('(include "b.lisp")\n(test? (posp (one)))\n')
    (tmp_path / "b.lisp").write_text("(defun one () 1)\n")
    out = process_file(str(tmp_path / "a.lisp"))
    assert [fr.status for fr in out.forms] == ["admitted", "admitted", "admitted"]
    assert out.exit_code == 0  # (posp (one)) holds on every trial
    (tmp_path / "c.lisp").write_text('(include "c.lisp")\n')
    out = process_file(str(tmp_path / "c.lisp"))
    assert any(fr.status == "error" and "cycle" in fr.error for fr in out.forms)


def test_redefinition_rejected():
    out, _ = process_source("(defun f (x) x)\n(defun f (y) y)")
    assert out.forms[1].status == "error"
    assert "redefinition" in out.forms[1].error


@pytest.mark.parametrize("src, error", [
    ("(defun f (x x) x)", "duplicate formal in f"),
    ("(defun f (x) y)", "unbound variable in body: y"),
    ("(defrule r (equal (car (cons x y)) x))\n(defrule r (equal (cdr (cons x y)) y))", "duplicate rule name: r"),
    ("(defrule r (equal (car x) y))", "rule r: right-hand side has variables not bound by the left-hand side"),
    ("(defrule r (implies (natp y) (equal (car x) x)))",
     "rule r: hypothesis has variables not bound by the left-hand side"),
])
def test_a_defun_or_defrule_the_world_cannot_admit_is_an_error_at_its_form(src, error):
    out, world = process_source(src)
    assert out.fatal_error is None
    assert out.forms[-1].status == "error" and out.forms[-1].error == error
    assert "f" not in world.functions
    assert [rule.name for rule in world.rules_by_name.values()] == ["r"] * (len(out.forms) - 1)


@pytest.mark.parametrize("src, error", [
    ("(test? (1 x))", "1:8: expected a function symbol"),
    ("(test? (quote a b))", "1:8: quote takes exactly one datum"),
    ("(test? (cadr x y))", "1:8: cadr takes exactly one argument"),
    ("(test? (cond (t)))", "1:8: cond clause must be (test expr)"),
    # each clause but a t clause nests the rest one level deeper: the 257th is too deep
    ("(test? (cond" + " (x 1)" * 300 + "))", "1:1550: term nested deeper than 256 levels once cond and selectors expand"),
    ("(defun 5 (x) x)", "1:8: expected a function name"),
    ("(defdata-subtype nat integer :trusted t)", "1:1: expected :trust"),
    ("(defrule r (implies (natp x) x))", "1:1: rule left-hand side must be a function application"),
    ("(thm (natp x) :hints ((\"Goal\" :do-not '(frob))))", "1:1: unknown process name in :do-not: frob"),
    ("(thm (natp x) :hints ((\"Goal\" :frob 1)))", "1:1: unknown hint keyword: :frob"),
    ("(set-testing :frob 1)", "1:1: unknown set-testing keyword: :frob"),
    ("(set-testing :per-goal-cap 5)", "1:1: unknown set-testing keyword: :per-goal-cap"),
    ("(set-testing :deterministic 1)", "1:1: :deterministic expects t or nil"),
])
def test_a_malformed_form_is_a_parse_error_at_its_position(src, error):
    out, _ = process_source(src)
    assert out.fatal_error == error
    assert out.forms == []


@pytest.mark.parametrize("text, error", [
    ("(x . 1) (y . 2)", "not a binding: (x . 1) (y . 2)"),
    ("x", "not a binding: x"),
    ("((x 1))", "bad binding entry in ((x 1))"),
    ("((1 . 2))", "bad binding entry in ((1 . 2))"),
])
def test_a_malformed_binding_is_a_value_error(text, error):
    with pytest.raises(ValueError) as e:
        parse_binding(text)
    assert str(e.value) == error


def test_a_rule_whose_left_hand_side_is_not_an_application_is_rejected(world):
    # the surface syntax already rejects it as a parse error, so only a
    # direct caller of add_rule can meet this check
    with pytest.raises(AdmissionError, match="rule r: left-hand side must be a function application"):
        world.add_rule(RewriteRule("r", (), term("x"), term("1")))
    assert not world.rules_by_name and not world.rules_by_head


def test_a_self_call_is_checked_like_any_other_call():
    out, world = process_source("(defun f (x) (if (consp x) (f x x) 0))")
    assert out.forms[0].status == "error"
    assert out.forms[0].error == "f applied to 2 argument(s), expects 1"
    # the rejected defun leaves no entry behind, so the name is free again
    assert "f" not in world.functions
    world.define_function("f", ("x",), term("(if (consp x) (f (cdr x)) 0)"))
    assert evaluate(term("(f '(1 2))"), {}, world) == 0


def test_every_set_testing_key_names_a_setting():
    # a set-testing form is one replace() on the world's settings
    targets = {name for name, _ in _SET_TESTING_KEYS.values()}
    assert targets <= set(Settings.__slots__)


def test_every_setting_can_be_set():
    from sedan.cli import build_parser

    by_keys = {name for name, _ in _SET_TESTING_KEYS.values()}
    by_flags = {action.dest for action in build_parser()._actions}
    assert set(Settings.__slots__) - by_keys - by_flags == set()


def test_a_zero_uniform_bound_is_rejected_at_its_form():
    out, _ = process_source("(defun f (x) x)\n(set-testing :dist uniform :uniform-bound 0)\n(test? (natp n))")
    assert out.fatal_error == "2:1: :uniform-bound expects a positive integer"
    assert out.forms == []
    out, _ = process_source("(set-testing :dist uniform :uniform-bound 1)\n(test? (natp n))")
    assert out.forms[1].testing.witnesses == [{"n": 0}]


def test_a_setting_outside_its_bound_is_a_value_error_naming_it():
    assert Settings.__slots__ == tuple(SETTING_BOUNDS)
    with pytest.raises(ValueError, match="uniform_bound expects a positive integer, got 0"):
        Settings(dist="uniform", uniform_bound=0)
    for name, bad in (("seed", -5), ("trials", -1), ("mode", "fast"), ("deterministic", 1), ("depth_cap", 1.5)):
        with pytest.raises(ValueError, match=f"setting {name} expects"):
            Settings(**{name: bad})


def test_replace_checks_the_bounds_as_the_constructor_does():
    messages = []
    for make in (lambda: Settings(uniform_bound=0), lambda: Settings(seed=3).replace(uniform_bound=0)):
        with pytest.raises(ValueError) as raised:
            make()
        messages.append(str(raised.value))
    assert messages == ["setting uniform_bound expects a positive integer, got 0"] * 2
    changed = Settings(seed=3).replace(trials=7, mode="mixed")
    assert changed == Settings(trials=7, mode="mixed", seed=3) and changed != Settings(seed=3)
    with pytest.raises(TypeError):
        Settings().replace(trails=7)


@pytest.mark.parametrize("key", sorted(_SET_TESTING_KEYS))
def test_set_testing_and_settings_hold_a_key_to_one_bound(key):
    name, bound = _SET_TESTING_KEYS[key]
    assert bound == SETTING_BOUNDS[name]
    if type(bound) is not int:
        return
    out, _ = process_source(f"(set-testing {key} {bound - 1})")
    assert out.fatal_error == f"1:1: {key} expects {describe_bound(bound)}"
    with pytest.raises(ValueError, match=name):
        Settings(**{name: bound - 1})
    out, world = process_source(f"(set-testing {key} {bound})")
    assert out.fatal_error is None and getattr(world.settings, name) == bound


def test_set_testing_changes_later_forms():
    out, _ = process_source("(set-testing :trials 7)\n(test? (natp n))")
    report = out.forms[1].testing
    assert report.trials_run == 7


def test_thm_statuses():
    src = (
        '(include "base-rules.lisp")\n'
        "(thm (implies (posp n) (natp n)))\n"
        "(thm (implies (true-listp q) (equal q q)))\n"
        "(thm (equal 1 2))\n"
    )
    out, _ = process_source(src, Settings(trials=50), directory=os.path.dirname(corpus_path("rev.lisp")))
    kinds = [(fr.kind, fr.status) for fr in out.forms if fr.kind == "thm"]
    assert kinds[0] == ("thm", "proved")
    assert kinds[1] == ("thm", "proved")  # reflexive equality simplifies away
    assert kinds[2] == ("thm", "falsified")
    assert out.exit_code == 1


def test_deterministic_auto_mode_thm_fixed_testq_derived():
    src = "(test? (natp n))\n(test? (natp n))\n(thm (natp n))\n(thm (natp n))"
    out, _ = process_source(src, Settings(trials=20, seed=5))
    seeds = [fr.seed for fr in out.forms]
    assert seeds[0] != seeds[1]  # exploratory test? forms get per-form seeds
    assert seeds[2] == seeds[3] == 5  # thm forms pin the global constant


def test_deterministic_flag_overrides_both_kinds():
    src = "(test? (natp n))\n(thm (natp n))"
    out, _ = process_source(src, Settings(trials=20, seed=5, deterministic=True))
    assert [fr.seed for fr in out.forms] == [5, 5]
    out, _ = process_source(src, Settings(trials=20, seed=5, deterministic=False))
    assert len({fr.seed for fr in out.forms}) == 2


def test_set_testing_deterministic_gives_the_next_test_the_session_seed():
    out, _ = process_source("(set-testing :deterministic t)\n(test? (natp n))", Settings(trials=20, seed=5))
    assert [fr.seed for fr in out.forms] == [None, 5]


def test_a_trusted_subtype_edge_is_admitted_and_an_untrusted_one_is_checked():
    out, world = process_source("(defdata-subtype integer nat :trust t)")
    assert [fr.status for fr in out.forms] == ["admitted"]
    assert world.subtypes.subsumes("integer", "nat")
    out, world = process_source("(defdata-subtype integer nat)")
    assert [(fr.status, fr.error) for fr in out.forms] == [
        ("error", "cannot admit integer as a subtype of nat: enumerated witness at index 1 is -1")
    ]
    assert not world.subtypes.subsumes("integer", "nat")


def test_the_empty_list_reads_as_nil():
    out, _ = process_source("(thm (equal () nil))")
    assert [fr.status for fr in out.forms] == ["proved"]


def test_structured_report_round_trips_counterexamples():
    rev = corpus_path("rev.lisp")
    out = process_file(rev, Settings(trials=100, seed=24))
    doc = json.loads(emit_report(out, "structured").decode())
    world = make_world(open(rev).read().split("(test?")[0])
    conjecture = term("(equal (rev (rev x)) x)")
    found = 0
    for form in doc["forms"]:
        if form["testing"] is None:
            continue
        for cex_str in form["testing"]["counterexamples"]:
            binding = parse_binding(cex_str)
            assert evaluate(conjecture, binding, world) == NIL
            found += 1
    assert found >= 1


def test_byte_determinism_same_flags_same_report():
    for name in CORPUS:
        settings = Settings(trials=50, seed=24)
        a = emit_report(process_file(corpus_path(name), settings), "structured")
        b = emit_report(process_file(corpus_path(name), settings), "structured")
        assert a == b, name


def test_different_seed_changes_structured_report():
    a = emit_report(process_file(corpus_path("rev.lisp"), Settings(trials=50, seed=1)), "structured")
    b = emit_report(process_file(corpus_path("rev.lisp"), Settings(trials=50, seed=2)), "structured")
    assert a != b


def test_exit_code_contract_across_corpus():
    expected = {
        "rev.lisp": 1,        # untyped rev is falsified
        "triangle.lisp": 1,   # the thm is falsified via lifting
        "inequality.lisp": 1, # missing hypothesis, counterexample found
        "gen-backtrack.lisp": 0,  # true goals: checkpoints but no falsification
        "base-rules.lisp": 0,
        "cancel-rules.lisp": 0,
    }
    for name, code in expected.items():
        out = process_file(corpus_path(name), Settings(seed=24))
        assert out.exit_code == code, name


def test_display_binding_narrative_style():
    assert display_binding({"x": 0}, ["x"]) == "(X 0)"
    assert display_binding({"a": 1, "b": 2}, ["a", "b"]) == "(A 1) and (B 2)"
    assert display_binding({"a": 1, "b": 2, "c": 3}, ["a", "b", "c"]) == "(A 1), (B 2) and (C 3)"


def test_checkpoint_echo_prints_keywords_unquoted():
    # keywords evaluate to themselves, so the echo needs no quote mark
    out, _ = process_source("(thm (equal x :foo))")
    text = render_text(out)
    assert "\n(EQUAL X :FOO)\n" in text
    assert "':FOO" not in text


def test_triangle_text_report_sentences():
    out = process_file(corpus_path("triangle.lisp"), Settings(seed=24))
    text = render_text(out)
    assert "none of which satisfied the hypotheses" in text
    assert "We falsified the conjecture. Here are counterexamples:" in text
    assert ". POS)" in text


def test_cli_main_runs(tmp_path, capsys):
    from sedan.cli import main

    report_path = tmp_path / "report.json"
    code = main([corpus_path("gen-backtrack.lisp"), "--trials", "50", "--seed", "24",
                 "--report", str(report_path)])
    assert code == 0
    assert report_path.exists()
    doc = json.loads(report_path.read_text())
    assert doc["flags"]["seed"] == 24
    captured = capsys.readouterr()
    assert "Testing refuted a generalization" in captured.out


def test_main_calls_in_one_process_each_see_only_their_own_flags(monkeypatch, capsys):
    from sedan import cli

    # the parser is built once and shared, so a flag must not outlive its call
    monkeypatch.delenv("SEDAN_SEED", raising=False)
    flags = []
    for argv in (["--trials", "5", "--mode", "exhaustive", "--seed", "7"], []):
        assert cli.main([corpus_path("base-rules.lisp"), "--format", "structured", *argv]) == 0
        flags.append(json.loads(capsys.readouterr().out)["flags"])
    assert cli.build_parser() is cli.build_parser()
    assert (flags[0]["trials"], flags[0]["mode"], flags[0]["seed"]) == (5, "exhaustive", 7)
    assert flags[1] == {**flags[0], "trials": Settings().trials, "mode": Settings().mode, "seed": Settings().seed}


def test_exhaustive_mode_runs_the_hinted_trials_and_says_so(tmp_path, capsys):
    from sedan.cli import main

    path = tmp_path / "exhaustive.lisp"
    path.write_text('(set-testing :mode exhaustive)\n'
                    '(thm (implies (natp x) (< x 5000)) :hints (("Goal" :trials 5)))\n')
    assert main([str(path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert 'Exhaustive testing "Goal\'" with type alist ((X . NAT))' in out
    assert "Random testing" not in out
    assert "We tried 5 exhaustive trials, 5 (5 unique) of which satisfied the hypotheses." in out


@pytest.mark.parametrize("flag", ["--trials", "--max-rewrite-depth"])
def test_cli_rejects_a_negative_count(flag, capsys):
    from sedan.cli import main

    # the rule set-testing applies to its counts
    with pytest.raises(SystemExit) as exit:
        main([corpus_path("base-rules.lisp"), flag, "-1"])
    assert exit.value.code == 2
    assert f"argument {flag}: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert main([corpus_path("base-rules.lisp"), flag, "0", "--format", "text"]) == 0


def test_cli_rejects_a_negative_seed(capsys):
    from sedan.cli import main

    with pytest.raises(SystemExit) as exit:
        main([corpus_path("base-rules.lisp"), "--seed", "-5"])
    assert exit.value.code == 2
    assert "argument --seed: expected a nonnegative integer, got '-5'" in capsys.readouterr().err


def test_cli_rejects_a_backtrack_value_other_than_on_or_off(capsys):
    from sedan.cli import main

    with pytest.raises(SystemExit) as exit:
        main([corpus_path("base-rules.lisp"), "--backtrack", "maybe"])
    assert exit.value.code == 2
    assert "argument --backtrack: expected 'on' or 'off'" in capsys.readouterr().err


def test_a_report_that_cannot_be_written_is_an_error_without_a_traceback(tmp_path, capsys):
    from sedan.cli import main

    # the report is opened before the first input runs, so nothing runs
    report = tmp_path / "no-such-dir" / "r.json"
    assert main([corpus_path("base-rules.lisp"), "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write report {report}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_a_report_whose_write_fails_is_an_error_without_a_traceback(capsys):
    from sedan.cli import main

    # /dev/full opens, and every write to it fails
    assert main([corpus_path("base-rules.lisp"), "--report", "/dev/full"]) == 2
    out, err = capsys.readouterr()
    assert out.endswith("Exit code: 0\n")  # every input ran
    assert err == "error: cannot write report /dev/full: No space left on device\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit", ["return", "argument error", "report error"])
def test_the_cli_runs_without_the_collector_and_restores_it(exit, enabled, tmp_path, monkeypatch, capsys):
    from sedan import cli

    seen = []

    def process(path, settings):
        seen.append(gc.isenabled())
        return process_file(path, settings)

    monkeypatch.setattr(cli, "process_file", process)
    argv = {
        "return": ["--format", "text"],
        "argument error": ["--seed", "-1"],
        "report error": ["--report", str(tmp_path / "no-such-dir" / "r.json")],
    }[exit]
    with collector(enabled):
        try:
            code = cli.main([corpus_path("base-rules.lisp"), *argv])
        except SystemExit as e:
            code = e.code
        assert gc.isenabled() == enabled
    assert code == (0 if exit == "return" else 2)
    # a report that cannot be written stops the run before the first input
    assert seen == ([False] if exit == "return" else [])


@pytest.mark.parametrize("enabled", [True, False])
def test_the_library_leaves_the_collector_as_it_found_it(enabled):
    with collector(enabled):
        out, _ = process_source("(defun f (x) x)\n(test? (equal (f x) x))")
        assert gc.isenabled() == enabled
    assert [fr.status for fr in out.forms] == ["admitted", "admitted"]


@pytest.mark.parametrize("env", ["-5", "x"])
def test_a_bad_sedan_seed_is_warned_about_and_ignored(env, monkeypatch, capsys):
    from sedan.cli import resolve_seed

    monkeypatch.setenv("SEDAN_SEED", env)
    assert resolve_seed(None) == Settings().seed
    assert f"warning: ignoring SEDAN_SEED={env!r}: expected a nonnegative integer" in capsys.readouterr().err


def test_cli_seed_env_precedence(monkeypatch):
    from sedan.cli import resolve_seed

    monkeypatch.delenv("SEDAN_SEED", raising=False)
    assert resolve_seed(None) == 24
    monkeypatch.setenv("SEDAN_SEED", "99")
    assert resolve_seed(None) == 99
    assert resolve_seed(7) == 7  # flag wins over env


def test_emit_report_rejects_unknown_format():
    out = process_file(corpus_path("base-rules.lisp"))
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(out, "xml")


def test_cli_structured_format_to_stdout(capsys):
    from sedan.cli import main

    code = main([corpus_path("base-rules.lisp"), "--format", "structured"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 0
    assert all(f["status"] == "admitted" for f in doc["forms"])


@pytest.mark.parametrize(
    "args, renders",
    [([], 0), (["--format", "text"], 0), (["--format", "text", "--report", "R"], 1),
     (["--report", "R"], 1), (["--format", "structured"], 1), (["--format", "structured", "--report", "R"], 1)],
)
def test_the_structured_report_is_rendered_only_for_a_receiver(args, renders, tmp_path, monkeypatch, capsys):
    from sedan import cli

    formats = []

    def counting(outcome, fmt):
        formats.append(fmt)
        return emit_report(outcome, fmt)

    monkeypatch.setattr(cli, "emit_report", counting)
    report = tmp_path / "report.json"
    assert cli.main([corpus_path("base-rules.lisp"), *(str(report) if a == "R" else a for a in args)]) == 0
    assert formats.count("structured") == renders
    assert report.exists() == (renders == 1 and "R" in args)


# sha256 of the reports of the file below at --seed 24, recorded when terms
# were still compiled to nested closures, before generated Python replaced them
DEEP_COND_DIGESTS = {
    "text": "fdaeb7c70cef47b84bdc77c88c9149d70f0f2f9c3a4a0bd86feb2ff4a69d5eb8",
    "structured": "fee39d6a08a2be5ba3920aaf8004c09e9a07cbca0df6a6f6c922801c1ff783dc",
}


def test_a_defun_with_a_250_clause_cond_reports_as_before(tmp_path, monkeypatch):
    # once cond expands, the body's ifs nest 250 levels: more than Python
    # allows for nested blocks (100) or parentheses (200) in one function
    from sedan.cli import main

    clauses = "\n".join(f"        ((equal n {i}) {i})" for i in range(249))
    (tmp_path / "deep-cond.lisp").write_text(
        f"(defun cls (n)\n  (cond\n{clauses}\n        (t 249)))\n"
        "(test? (implies (natp n) (<= (cls n) n)))\n"
        "(test? (implies (natp n) (< (cls n) 200)))\n"
        "(thm (implies (natp n) (< (cls n) 5)))\n"
    )
    monkeypatch.chdir(tmp_path)
    for fmt, digest in DEEP_COND_DIGESTS.items():
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        with contextlib.redirect_stdout(out):
            assert main(["deep-cond.lisp", "--seed", "24", "--format", fmt]) == 1
        out.flush()
        report = out.buffer.getvalue()
        assert b"Traceback" not in report and b'"status": "error"' not in report
        assert hashlib.sha256(report).hexdigest() == digest, report.decode()
