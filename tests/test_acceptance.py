"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Seed sweeps use seeds 1..20.
"""

import functools
import json
import time
from fractions import Fraction

from sedan.clauses import split_implies
from sedan.datadef import enumerate_value, minimal_type, recognize, sample, SubtypeEvidenceError, add_subtype_edge
from sedan.evaluator import evaluate
from sedan.forms import parse_forms, TestForm, ThmForm
from sedan.rand import IndexSource
from sedan.reports import emit_report
from sedan.session import process_file
from sedan.testgen import top_level_test
from sedan.values import NIL, T, Cons, print_value
from sedan.waterfall import run_waterfall
from sedan.world import Settings

from checkers import check_process_soundness
from conftest import corpus_path, make_world, term, with_settings
from test_clauses import FORMULAS, _truth_equivalent

SEEDS = range(1, 21)

REV = "(defun rev (x) (if (endp x) nil (append (rev (cdr x)) (list (car x)))))"


def criterion(n, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL - {summary}", flush=True)
                raise
            print(f"ACCEPTANCE {n}: PASS - {summary}", flush=True)
        return run
    return wrap


def triangle_world():
    src = open(corpus_path("triangle.lisp")).read()
    prefix = src.split("(set-testing")[0]
    return make_world(prefix), parse_forms(src)


@criterion(1, "untyped rev-rev falsified in >= 19/20 seeds, sound and under 1s per seed")
def test_criterion_1_untyped_rev_rev():
    w = make_world(REV)
    conjecture = term("(equal (rev (rev x)) x)")
    with_settings(w, trials=100, dist="geometric")
    hits = 0
    for seed in SEEDS:
        started = time.perf_counter()
        report = top_level_test(conjecture, w, seed)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"seed {seed} took {elapsed:.2f}s"
        if report.counterexamples:
            hits += 1
            for binding in report.counterexamples:
                assert evaluate(conjecture, binding, w) == NIL
    assert hits >= 19, f"counterexamples in only {hits}/20 seeds"


@criterion(2, "typed rev-rev: all 100 trials satisfy, no counterexamples, witnesses shown")
def test_criterion_2_typed_rev_rev():
    w = make_world(REV)
    conjecture = term("(implies (true-listp x) (equal (rev (rev x)) x))")
    report = top_level_test(conjecture, with_settings(w, trials=100), 24)
    assert report.trials_run == 100
    assert report.satisfied == 100  # type-directed sampling satisfies by construction
    assert not report.counterexamples
    assert len(report.witnesses) >= 1
    from sedan.reports import render_test_report

    text = "\n".join(render_test_report(report))
    sentence = (
        f"We tried 100 random trials, {report.satisfied} "
        f"({report.unique_satisfied} unique) of which satisfied the hypotheses."
    )
    assert sentence in text
    assert f"{len(report.witnesses)} were witnesses" in text


@criterion(3, "naive triangle: <=5 satisfying and 0 counterexamples in >= 19/20 seeds")
def test_criterion_3_triangle_naive():
    world, forms = triangle_world()
    naive = next(f.term for f in forms if isinstance(f, TestForm))
    with_settings(world, trials=10000, dist="uniform", uniform_bound=2**10)
    ok = 0
    for seed in SEEDS:
        report = top_level_test(naive, world, seed)
        if report.satisfied <= 5 and not report.counterexamples:
            ok += 1
    assert ok >= 19, f"only {ok}/20 seeds within bounds"


@criterion(4, "prover-assisted triangle: pos checkpoint and lifted (a 1 a) counterexample in >= 19/20 seeds")
def test_criterion_4_triangle_prover_assisted():
    world, forms = triangle_world()
    thm = next(f for f in forms if isinstance(f, ThmForm))
    with_settings(world, trials=10000, dist="geometric", backtrack=True)
    ok = 0
    for seed in SEEDS:
        result = run_waterfall(thm.term, world, thm.hints, seed)
        assert len(result.checkpoints) == 1
        goal = result.checkpoints[0]
        alist = result.history.accumulated_type_alist(goal.id, world)
        assert len(alist) == 1, alist
        ((_, restrictions),) = alist.items()
        assert restrictions[0] == "pos"
        good = False
        for cex in result.counterexamples:
            v = cex.top_binding["x"]
            items = []
            while isinstance(v, Cons):
                items.append(v.car)
                v = v.cdr
            assert v == NIL and len(items) == 3
            a, b, c = items
            assert a == c and b == 1 and a > 256, items
            # exact re-falsification, no tolerance
            assert evaluate(thm.term, cex.top_binding, world) == NIL
            good = True
        ok += good
    assert ok >= 19, f"lifted counterexample in only {ok}/20 seeds"


@criterion(5, "rational inequality: exact reference binding, random falsification, tight boundary")
def test_criterion_5_inequality():
    w = make_world()
    conjecture = next(
        f.term for f in parse_forms(open(corpus_path("inequality.lisp")).read())
        if isinstance(f, TestForm)
    )
    binding = {"a": Fraction(1, 7), "b": Fraction(2, 11), "c": Fraction(2, 9)}
    hyps, concl = split_implies(conjecture)
    for h in hyps:
        assert evaluate(h, binding, w) == T
    assert evaluate(concl, binding, w) == NIL

    with_settings(w, trials=10000, dist="geometric")
    hits = sum(bool(top_level_test(conjecture, w, s).counterexamples) for s in SEEDS)
    assert hits >= 15, f"counterexamples in only {hits}/20 seeds"

    weakened = term(
        "(implies (and (real/rationalp a) (real/rationalp b) (real/rationalp c)"
        " (< 0 a) (<= 3/4 a)"
        " (<= (expt a 2) (* b (+ c 1))) (<= b (* 4 c)))"
        " (< (expt (- a 1) 2) (* b c)))"
    )
    boundary = {"a": Fraction(3, 4), "b": Fraction(1, 2), "c": Fraction(1, 8)}
    assert evaluate(weakened, boundary, w) == NIL


@criterion(6, "backtracking discards refuted generalizations; off-mode counterexample stays subgoal-local")
def test_criterion_6_backtracking():
    path = corpus_path("gen-backtrack.lisp")
    on = process_file(path, Settings(trials=100, seed=24, backtrack=True))
    thm_on = on.forms[0].proof
    assert len(thm_on.discarded_generalizations) >= 1
    ckpt = thm_on.checkpoints[0]
    assert "generalize" in ckpt.settings.do_not  # the goal re-entered with generalization off
    assert not thm_on.counterexamples
    assert not thm_on.subgoal_counterexamples

    off = process_file(path, Settings(trials=100, seed=24, backtrack=False))
    thm_off = off.forms[0].proof
    assert not thm_off.discarded_generalizations
    assert thm_off.subgoal_counterexamples  # the generalized child's counterexample appears
    sub = thm_off.subgoal_counterexamples[0]
    lift = thm_off.history.lift(sub.goal_id, [sub.binding], make_world(), thm_off.top_term)
    assert [status for status, _, _ in lift.outcomes] == ["failed"]
    assert not thm_off.counterexamples


@criterion(7, "enumerator soundness to 5000, finite coverage, byte-identical sample streams")
def test_criterion_7_enumerators():
    world, _ = triangle_world()
    for name, entry in world.types.entries.items():
        for n in range(5001):
            assert recognize(world, name, enumerate_value(world, name, n)), (name, n)
        if entry.extent is not None:
            size = entry.size
            covered = {print_value(enumerate_value(world, name, n)) for n in range(10 * size)}
            full = {print_value(v) for v in entry.extent}
            assert covered == full, name
    for name in world.types.entries:
        s1 = [print_value(sample(world, name, i)) for i in IndexSource(77).draws(100)]
        s2 = [print_value(sample(world, name, i)) for i in IndexSource(77).draws(100)]
        assert s1 == s2, name


@criterion(8, "subtype graph: minimal selection, SCC collapse, evidence-based rejection")
def test_criterion_8_subtype_graph():
    world, _ = triangle_world()
    g = world.subtypes
    assert g.subsumes("pos", "nat") and g.subsumes("nat", "integer") and g.subsumes("integer", "rational")
    assert g.subsumes("triple", "proper-cons")
    sel = minimal_type(world, ["nat", "integer"])
    assert sel.primary == "nat" and sel.residuals == ()

    cyc = make_world(
        "(defdata ev1 (listof nat))\n(defdata ev2 (listof nat))\n"
        "(defdata-subtype ev1 ev2)\n(defdata-subtype ev2 ev1)"
    )
    assert cyc.subtypes.equivalents("ev2") == ("ev1", "ev2")
    assert minimal_type(cyc, ["ev2", "ev1"]).primary == "ev1"
    assert minimal_type(cyc, ["ev1", "ev2"]).primary == "ev1"

    try:
        add_subtype_edge(world, "integer", "nat")
        raise AssertionError("edge integer -> nat should be rejected")
    except SubtypeEvidenceError as e:
        assert e.witness_value == -1
        assert e.witness_index == 1


@criterion(9, "process soundness over the corpus and clausify truth-table agreement")
def test_criterion_9_process_soundness():
    checked = 0
    for name in ("triangle.lisp", "gen-backtrack.lisp"):
        for backtrack in (True, False):
            out = process_file(
                corpus_path(name),
                Settings(trials=100, seed=24, backtrack=backtrack),
            )
            world = make_world(open(corpus_path(name)).read().split("(set-testing")[0].split("(test?")[0].split("(thm")[0])
            for fr in out.forms:
                if fr.proof is None:
                    continue
                offenders = check_process_soundness(fr.proof, world, bindings=200)
                assert offenders == [], offenders
                checked += sum(1 for e in fr.proof.process_log if e.outcome != "discarded")
    assert checked >= 10

    w = make_world()
    for src in FORMULAS:
        ok, witness = _truth_equivalent(term(src), w)
        assert ok, (src, witness)


@criterion(10, "byte-identical structured reports across two full corpus runs")
def test_criterion_10_determinism():
    names = ["base-rules.lisp", "cancel-rules.lisp", "rev.lisp", "triangle.lisp",
             "inequality.lisp", "gen-backtrack.lisp"]
    for name in names:
        settings = Settings(trials=100, seed=24, backtrack=True)
        first = emit_report(process_file(corpus_path(name), settings), "structured")
        second = emit_report(process_file(corpus_path(name), settings), "structured")
        assert first == second, f"structured report for {name} not byte-identical"
        json.loads(first.decode())  # and it is valid JSON
