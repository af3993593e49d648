import json
import os
import tracemalloc
from collections import Counter

import pytest

from sedan import cli, history, waterfall
from sedan.evaluator import evaluate
from sedan.forms import HintSpec
from sedan.hints import HANDLERS, BacktrackOutcome
from sedan.simplify import Budget, simplify_clause
from sedan.reader import read_sexprs, sexpr_to_value
from sedan.values import NIL, Cons, truthy
from sedan.waterfall import (
    PROOF_STEPS,
    FreshNames,
    eliminate_destructors,
    generalize,
    run_waterfall,
)
from sedan.history import History
from sedan.session import process_file, process_source
from sedan.world import Settings

from checkers import check_process_soundness, unfalsifying_counterexamples
from conftest import corpus_path, make_world, term, with_settings

REV = "(defun rev (x) (if (endp x) nil (append (rev (cdr x)) (list (car x)))))"
RULES = '(include "base-rules.lisp")\n(include "cancel-rules.lisp")\n'

TRIANGLE = RULES + """
(defdata triple (list pos pos pos))
(defun trianglep (v)
  (and (triplep v)
       (< (third v) (+ (first v) (second v)))
       (< (first v) (+ (second v) (third v)))
       (< (second v) (+ (first v) (third v)))))
(defun shape (v)
  (if (trianglep v)
      (cond ((equal (first v) (second v))
             (if (equal (second v) (third v)) "equilateral" "isosceles"))
            ((equal (second v) (third v)) "isosceles")
            ((equal (first v) (third v)) "isosceles")
            (t "scalene"))
    "error"))
"""

TRIANGLE_THM = """
(implies (and (consp x) (consp (cdr x)) (consp (cdr (cdr x)))
              (equal (cdr (cdr (cdr x))) nil)
              (posp (first x)) (posp (second x)) (posp (third x))
              (< (third x) (+ (first x) (second x)))
              (< (first x) (+ (second x) (third x)))
              (< (second x) (+ (first x) (third x)))
              (< 256 (third x))
              (equal (third x) (first x))
              (equal (third x) (* (second x) (first x))))
         (not (equal "isosceles" (shape x))))
"""


def run(src_world, thm_src, trials=100, seed=24, backtrack=True, hints=()):
    world = with_settings(make_world(src_world), trials=trials, backtrack=backtrack)
    return run_waterfall(term(thm_src), world, hints, seed), world


def test_posp_natp_proves_with_base_rules():
    result, _ = run(RULES, "(implies (posp n) (natp n))")
    assert result.status == "proved"
    assert not result.checkpoints


def test_typed_rev_rev_fails_with_clean_checkpoint():
    result, world = run(REV, "(implies (true-listp x) (equal (rev (rev x)) x))")
    assert result.status == "failed"
    assert len(result.checkpoints) == 1
    goal = result.checkpoints[0]
    report = result.checkpoint_reports[goal.id]
    assert not report.counterexamples
    assert not result.counterexamples
    # checkpoint stability: another simplify pass leaves it alone
    assert simplify_clause(goal.literals, world, Budget(PROOF_STEPS)).status == "unchanged"


def test_triangle_pipeline_end_to_end():
    result, world = run(TRIANGLE, TRIANGLE_THM, trials=10000)
    assert result.status == "failed"
    assert len(result.checkpoints) == 1
    goal = result.checkpoints[0]
    alist = result.history.accumulated_type_alist(goal.id, world)
    # exactly one variable, restricted to pos
    assert len(alist) == 1
    ((var, restrictions),) = alist.items()
    assert restrictions[0] == "pos"
    assert result.counterexamples
    top = term(TRIANGLE_THM)
    for cex in result.counterexamples:
        binding = cex.top_binding
        assert set(binding) == {"x"}
        v = binding["x"]
        items = []
        while isinstance(v, Cons):
            items.append(v.car)
            v = v.cdr
        assert v == NIL and len(items) == 3
        a, b, c = items
        assert a == c and b == 1 and a > 256
        assert evaluate(top, binding, world) == NIL  # exact re-falsification


def test_destructor_elimination_variable_map():
    world = make_world()
    history = History()
    goal = history.record_top("Goal", [term("(not (consp x))"), term("(natp (car x))"), term("(stringp (cdr x))")])
    fresh = FreshNames(["x"])
    step = eliminate_destructors(goal, world, history, fresh)
    assert step is not None
    assert (step.goal_id, step.process, step.outcome, step.liftable) == ("Goal", "eliminate-destructors", "children", True)
    assert step.parent_clause is goal.literals
    assert step.variable_map == {"x": term("(cons x1 x2)")}
    assert step.child_clauses == [[term("(natp x1)"), term("(stringp x2)")]]
    assert set(step.type_map) == {"x1", "x2"}


def test_destructor_elimination_propagates_listof_types():
    world = make_world("(defdata loi (listof integer))")
    history = History()
    goal = history.record_top("Goal", [term("(not (consp x))"), term("(not (loip x))"), term("(natp (car x))")])
    typemap = eliminate_destructors(goal, world, history, FreshNames(["x"])).type_map
    assert "integer" in typemap["x1"]
    assert "loi" in typemap["x2"]


def test_destructor_elimination_inapplicable_without_consp_hyp():
    world = make_world()
    history = History()
    goal = history.record_top("Goal", [term("(natp (car x))")])
    assert eliminate_destructors(goal, world, history, FreshNames(["x"])) is None


def test_generalize_replaces_largest_repeated_subterm():
    goal = History().record_top("Goal", [term("(<= 0 (+ (len x) (len x)))")])
    step = generalize(goal, FreshNames(["x"]))
    assert step is not None
    assert (step.goal_id, step.process, step.outcome, step.liftable) == ("Goal", "generalize", "children", False)
    assert step.child_clauses == [[term("(<= 0 (+ v1 v1))")]]
    assert step.variable_map == {"v1": term("(len x)")}
    assert step.note == "v1 abstracts (len x)"


def test_generalize_prefers_larger_subterm():
    step = generalize(History().record_top("Goal", [term("(equal (f (g x)) (f (g x)))")]), FreshNames(["x"]))
    assert step.variable_map == {"v1": term("(f (g x))")}
    assert step.child_clauses == [[term("(equal v1 v1)")]]


def test_generalize_inapplicable_when_all_subterms_distinct():
    goal = History().record_top("Goal", [term("(equal (rev x) y)")])
    assert generalize(goal, FreshNames(["x", "y"])) is None


def test_process_order_simplify_before_destructors_before_generalize():
    result, world = run(TRIANGLE, TRIANGLE_THM, trials=10)
    for entry in result.process_log:
        if entry.process == "generalize" and entry.outcome != "discarded":
            goal = result.history.nodes[entry.goal_id]
            assert entry.parent_clause is goal.literals
            assert simplify_clause(goal.literals, world, Budget(PROOF_STEPS)).status == "unchanged"
            assert eliminate_destructors(goal, world, result.history, FreshNames([])) is None


def test_backtracked_generalization_disables_only_that_goal():
    result, world = run("", "(<= 0 (+ (len x) (len x)))", seed=24)
    discarded = result.discarded_generalizations
    assert len(discarded) >= 1
    # the goal re-enters and ends as a checkpoint with generalization off
    assert result.checkpoints
    ckpt = result.checkpoints[0]
    assert "generalize" in ckpt.settings.do_not
    assert not result.subgoal_counterexamples
    assert not result.counterexamples


def test_without_backtracking_generalized_child_is_subgoal_local():
    result, world = run("", "(<= 0 (+ (len x) (len x)))", seed=24, backtrack=False)
    assert not result.discarded_generalizations
    assert result.subgoal_counterexamples
    sub = result.subgoal_counterexamples[0]
    assert "non-liftable" in sub.reason
    assert not result.counterexamples
    # lift on the generalize edge fails directly too
    lift = result.history.lift(sub.goal_id, [sub.binding], world, result.top_term)
    assert [status for status, _, _ in lift.outcomes] == ["failed"]


def test_do_not_hint_disables_generalization():
    from sedan.forms import HintSpec

    result, _ = run("", "(<= 0 (+ (len x) (len x)))", backtrack=False,
                    hints=(HintSpec("Goal", do_not=("generalize",)),))
    assert all(e.process != "generalize" or e.outcome == "discarded" for e in result.process_log)
    assert result.checkpoints[0].literals == [term("(<= 0 (+ (len x) (len x)))")]


def test_trivial_theorem_proves_by_ground_evaluation():
    result, _ = run("", "(equal (+ 1 2) 3)")
    assert result.status == "proved"


def test_false_closed_conjecture_is_falsified_with_empty_binding():
    result, _ = run("", "(equal 1 2)")
    assert result.status == "failed"
    assert result.counterexamples
    assert result.counterexamples[0].top_binding == {}


def test_case_split_produces_subgoal_ids():
    result, _ = run("", "(if (consp x) (true-listp x) (equal x x))", trials=50)
    ids = [e.child_ids for e in result.process_log if e.process == "clausify"]
    assert ids and len(ids[0]) == 2
    assert ids[0] == ("Subgoal 1", "Subgoal 2")


def test_process_soundness_across_runs():
    for src, thm, trials in (
        (TRIANGLE, TRIANGLE_THM, 50),
        (REV, "(implies (true-listp x) (equal (rev (rev x)) x))", 50),
        ("", "(<= 0 (+ (len x) (len x)))", 50),
    ):
        result, world = run(src, thm, trials=trials)
        offenders = check_process_soundness(result, world, bindings=200)
        assert offenders == []


def test_destructor_elimination_propagates_triple_component_types():
    world = make_world("(defdata triple (list pos pos pos))")
    history = History()
    goal = history.record_top("Goal", [term("(not (consp x))"), term("(not (triplep x))"), term("(natp (car x))")])
    step = eliminate_destructors(goal, world, history, FreshNames(["x"]))
    assert step is not None
    assert "pos" in step.type_map["x1"]  # product head propagates to the car variable


def test_destructor_elimination_gives_a_named_cdr_its_type():
    world = make_world("(defdata pr (cons nat integer))")
    history = History()
    goal = history.record_top("Goal", [term("(not (consp p))"), term("(not (prp p))"), term("(natp (cdr p))")])
    step = eliminate_destructors(goal, world, history, FreshNames(["p"]))
    assert step.variable_map == {"p": term("(cons p1 p2)")}
    assert step.type_map == {"p1": ("nat",), "p2": ("integer",)}


GROW = "(defun f (x) x)\n(defun g (x) x)\n(defrule grow (equal (f x) (g (f x))))\n"


@pytest.mark.parametrize("conjecture, log", [
    ("(equal (f a) a)", []),
    # generalizing (f a) is refuted and redone, and the goal is simplified again
    ("(equal (f a) (+ 1 (f a)))", [("Goal", "generalize", "discarded")]),
])
def test_simplifys_diagnostic_on_a_goal_it_leaves_unchanged_reaches_the_proof_once(conjecture, log):
    outcome, _ = process_source(GROW + f"(thm {conjecture})")
    proof = outcome.forms[-1].proof
    assert [(e.goal_id, e.process, e.outcome) for e in proof.process_log] == log
    assert proof.diagnostics == ["Goal: rewriting nested past 300 levels; rewriting disabled for this goal"]


def test_lifted_wildcards_display_as_question_marks():
    from sedan.reports import display_binding

    result, world = run("", "(implies (equal x x) (< (+ y 1) y))", trials=50)
    assert result.counterexamples
    cex = result.counterexamples[0]
    assert cex.wildcard_vars == ("x",)
    assert cex.top_binding["x"] == NIL  # nil instantiation for verification
    shown = display_binding(cex.top_binding, ["x", "y"], cex.wildcard_vars)
    assert shown.startswith("(X ?)")


def test_thm_trials_hint_flows_into_checkpoint_testing():
    from sedan.forms import HintSpec

    # hints select by exact goal id; the pooled goal here is clausify's child
    result, _ = run(REV, "(implies (true-listp x) (equal (rev (rev x)) x))",
                    trials=100, hints=(HintSpec("Goal'", trials=7),))
    ckpt = result.checkpoints[0]
    assert ckpt.id == "Goal'"
    assert result.checkpoint_reports[ckpt.id].trials_run == 7
    # a clausified goal without a hint of its own takes "Goal"'s
    result2, _ = run(REV, "(implies (true-listp x) (equal (rev (rev x)) x))",
                     trials=100, hints=(HintSpec("Goal", trials=7),))
    assert result2.checkpoints[0].id == "Goal'"
    assert result2.checkpoint_reports["Goal'"].trials_run == 7
    # its own hint still wins
    result3, _ = run(REV, "(implies (true-listp x) (equal (rev (rev x)) x))",
                     trials=100, hints=(HintSpec("Goal", trials=7), HintSpec("Goal'", trials=9)))
    assert result3.checkpoint_reports["Goal'"].trials_run == 9


def test_goal_hint_on_an_implication_sets_do_not_and_is_checked():
    from sedan.forms import HintSpec

    hint = HintSpec("Goal", do_not=("simplify",), trials=7)
    result, _ = run("", "(implies (natp n) (equal (+ n 0) n))", hints=(hint,))
    assert [c.id for c in result.checkpoints] == ["Goal'"]
    assert set(result.checkpoints[0].settings.do_not) == {"simplify"}
    assert result.checkpoint_reports["Goal'"].trials_run == 7
    # every hint is checked before the first goal, one naming no goal too
    for hints in ((HintSpec("Goal", backtrack="bogus"),),
                  (HintSpec("Subgoal 9", do_not=("induct",)),)):
        with pytest.raises(ValueError, match="hint references unknown"):
            run("", "(implies (natp n) (equal (+ n 0) n))", hints=hints)


def test_conjunctive_theorem_proves_through_multiple_clauses():
    result, _ = run("", "(and (natp 1) (natp 2))")
    assert result.status == "proved"
    assert not result.checkpoints


def _demotions(top, chain, binding):
    """The reasons the lift gives for demoting a counterexample at the last
    goal of ``chain``, in a hand-built history: each (goal id, clause,
    variable map) in ``chain`` is the child of the one before it, and the
    first is the child of "Goal", whose clause is ``top``."""
    world = make_world()
    h = History()
    goal = h.record_top("Goal", [top])
    for goal_id, clause, variable_map in chain:
        goal = h.record_node(goal.id, goal_id, clause, "simplify", variable_map, world=world)
    lift = h.lift(goal.id, [binding], world, top)
    assert lift.status == "failed"
    return [reason for status, _, reason in lift.outcomes if status == "spurious"]


def test_spurious_lift_is_demoted_not_reported():
    # the child "forgets" x, but the parent's truth depends on it, so the
    # wildcard probe must demote the lift
    chain = [("Goal'", [term("(natp y)")], {"x": None})]
    assert _demotions(term("(consp x)"), chain, {"y": -1}) == ["wildcard instantiation no longer falsifies"]


def test_a_lift_that_does_not_falsify_the_top_is_demoted():
    # the child's y is the top's x, and x = 1 satisfies the top
    chain = [("Goal'", [term("(natp y)")], {"x": term("y")})]
    assert _demotions(term("(natp x)"), chain, {"y": 1}) == [
        "lifted binding does not falsify the top-level conjecture"
    ]


def test_a_lift_the_top_cannot_be_evaluated_on_is_demoted():
    chain = [("Goal'", [term("(natp y)")], {"x": term("y")})]
    assert _demotions(term("(mystery x)"), chain, {"y": -1}) == [
        "evaluation error at top level: undefined function: mystery"
    ]


def test_a_wildcard_probe_that_fails_to_lift_demotes_the_lift():
    # Goal'' drops w, and Goal' computes the top's x from w, which the
    # default nil lifts to 0 (falsifying the top) and every probe to an error
    chain = [
        ("Goal'", [term("(natp w)")], {"x": term("(if w (mystery w) 0)")}),
        ("Goal''", [term("(natp y)")], {"w": None}),
    ]
    assert _demotions(term("(not (equal x 0))"), chain, {"y": -1}) == ["wildcard probe failed to lift"]


def test_a_wildcard_probe_that_raises_at_the_top_demotes_the_lift():
    # the child drops x: nil falsifies the top, every probe reaches mystery
    chain = [("Goal'", [term("(natp y)")], {"x": None})]
    assert _demotions(term("(if x (mystery x) nil)"), chain, {"y": -1}) == [
        "wildcard probe error: undefined function: mystery"
    ]


def test_goal_budget_guards_against_looping_rule_sets(monkeypatch):
    from sedan.world import RewriteRule

    world = make_world("(defun f (x) x)")
    # pathological: the right-hand side re-embeds the trigger under an if, so
    # every simplify visit splits into a goal that still contains (f x)
    world.add_rule(RewriteRule("respawn", (), term("(f x)"), term("(if (natp x) (f x) t)")))
    monkeypatch.setattr(waterfall, "PROOF_STEPS", 20)
    result = run_waterfall(term("(f y)"), with_settings(world, trials=5, backtrack=False), (), 1)
    assert "proof budget of 20 steps exhausted; remaining goals pooled unprocessed" in result.diagnostics
    assert result.status == "failed"


def test_a_rule_that_respawns_its_goal_is_pooled_when_the_proof_budget_is_spent():
    # each goal splits into one still holding (f y), with a longer id: 10 000
    # goals and tens of MB before the goals were counted against the budget
    source = "(defun f (x) x)\n(defrule respawn (equal (f x) (if (natp x) (f x) t)))\n(thm (f y))"
    tracemalloc.start()
    try:
        proof = process_source(source)[0].forms[-1].proof
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proof.status == "failed" and proof.checkpoints
    assert proof.diagnostics[-1] == f"proof budget of {PROOF_STEPS} steps exhausted; remaining goals pooled unprocessed"
    assert len(proof.history.nodes) < PROOF_STEPS
    assert peak < 4_000_000


def _cli_reports(tmp_path, capsys, source):
    """Exit code, text report and structured form report of one thm file."""
    path, report = tmp_path / "edge.lisp", tmp_path / "edge.json"
    path.write_text(source + "\n")
    code = cli.main([str(path), "--seed", "24", "--trials", "5", "--report", str(report)])
    [form] = json.loads(report.read_text())["forms"]
    return code, capsys.readouterr().out, form


def test_a_goal_with_more_clauses_than_the_proof_budget_is_tested_unsplit(tmp_path, capsys):
    # 2^10 clauses, none of whose hypotheses random testing satisfies; the
    # goal itself is falsified easily
    conjecture = "(or " + " ".join(f"(and (natp a{i}) (natp b{i}))" for i in range(10)) + ")"
    path, report = tmp_path / "split.lisp", tmp_path / "split.json"
    path.write_text(f"(thm {conjecture})\n")
    assert cli.main([str(path), "--seed", "24", "--report", str(report)]) == 1
    [form] = json.loads(report.read_text())["forms"]
    assert form["status"] == "falsified"
    proof = form["proof"]
    assert proof["checkpoints"] == ["Goal"] and proof["process_log"] == []
    assert f"Goal: more clauses than the proof budget of {PROOF_STEPS} steps; not split" in proof["diagnostics"]
    assert proof["counterexamples"]
    assert unfalsifying_counterexamples(proof, term(conjecture), make_world()) == []
    assert len(capsys.readouterr().out) < 10_000


def test_an_empty_conjunction_is_proved_by_clausification_alone(tmp_path, capsys):
    code, text, form = _cli_reports(tmp_path, capsys, "(thm (and))")
    assert code == 0
    assert "\nQ.E.D.\n" in text
    assert form["status"] == "proved"
    proof = form["proof"]
    assert proof["status"] == "proved"
    assert proof["process_log"] == [] and proof["checkpoints"] == [] and proof["checkpoint_reports"] == {}
    assert [(n["goal"], n["parent"], n["process"]) for n in proof["history"]] == [("Goal", None, None)]


def test_a_proved_simplify_step_logs_no_map_and_no_children(tmp_path, capsys):
    # simplify proves Goal' by substituting x = 3; a proved step has no child,
    # so it has no edge and logs no variable map
    code, _, form = _cli_reports(tmp_path, capsys, "(thm (implies (equal x 3) (equal (+ x 1) 4)))")
    assert code == 0 and form["status"] == "proved"
    assert form["proof"]["process_log"] == [
        {"goal": "Goal", "process": "clausify", "outcome": "children", "children": ["Goal'"],
         "liftable": True, "variable_map": {}, "note": None},
        {"goal": "Goal'", "process": "simplify", "outcome": "proved", "children": [],
         "liftable": True, "variable_map": {}, "note": None},
    ]


def test_an_empty_clause_is_pooled_and_falsified_by_the_empty_binding(tmp_path, capsys):
    code, text, form = _cli_reports(tmp_path, capsys, "(thm (or) :hints ((\"Goal'\" :do-not (simplify))))")
    assert code == 1
    assert "Checkpoint Goal':\nNIL\n" in text
    assert form["status"] == "falsified"
    proof = form["proof"]
    assert proof["status"] == "failed"
    assert [(e["goal"], e["process"], e["children"]) for e in proof["process_log"]] == [("Goal", "clausify", ["Goal'"])]
    assert proof["checkpoints"] == ["Goal'"]
    checkpoint = proof["checkpoint_reports"]["Goal'"]
    assert (checkpoint["trials"], checkpoint["satisfied"], checkpoint["unique"]) == (5, 5, 1)
    assert checkpoint["type_alist"] == [] and checkpoint["witnesses"] == []
    assert checkpoint["counterexamples"] == ["()"]
    assert [(c["goal"], c["subgoal_binding"], c["top_binding"]) for c in proof["counterexamples"]] == [
        ("Goal'", "()", "()")
    ]


def test_a_singleton_restriction_prints_with_its_equals_sign(tmp_path, capsys):
    # (equal x 'nat) pins x to the symbol nat, which is not the type nat
    conjecture = "(implies (and (equal x 'nat) (consp y)) (equal (car y) x))"
    path, report = tmp_path / "singleton.lisp", tmp_path / "singleton.json"
    path.write_text(
        f"(thm {conjecture} :hints ((\"Goal\" :do-not '(simplify)) (\"Goal'\" :do-not '(simplify))))\n"
        f"(test? {conjecture})\n"
    )
    cli.main([str(path), "--seed", "24", "--trials", "5", "--report", str(report)])
    text = capsys.readouterr().out
    thm, test = json.loads(report.read_text())["forms"]
    type_maps = {n["goal"]: n["type_map"] for n in thm["proof"]["history"]}
    assert type_maps["Goal''"] == {"x": ["=nat"], "y1": []}
    assert "Random testing with type alist ((X . =NAT) (Y . ALL))" in text
    assert test["testing"]["type_alist"] == [["x", ["=nat"]], ["y", ["all"]]]
    assert test["testing"]["selection"] == [["x", "=nat"], ["y", "all"]]


def test_a_destructor_the_child_drops_lifts_as_a_dont_care(tmp_path, capsys):
    # elimination maps y to (cons y1 y2), and the child (equal y1 'nat) has no y2
    conjecture = "(implies (consp y) (equal (car y) 'nat))"
    path, report = tmp_path / "drop.lisp", tmp_path / "drop.json"
    path.write_text(f"(thm {conjecture})\n")
    assert cli.main([str(path), "--trials", "20", "--format", "text", "--report", str(report)]) == 1
    assert "unbound variable" not in capsys.readouterr().out
    [form] = json.loads(report.read_text())["forms"]
    proof = form["proof"]
    assert form["status"] == "falsified"
    elimination = {n["goal"]: n["variable_map"] for n in proof["history"]}["Goal''"]
    assert elimination == {"y": "(cons y1 y2)"}
    assert proof["counterexamples"] and not proof["subgoal_counterexamples"]
    for cex in proof["counterexamples"]:
        assert cex["had_wildcards"] and cex["dont_care"] == []
        [binding] = read_sexprs(cex["top_binding"])
        pair = sexpr_to_value(binding)  # ((y . value))
        assert pair.cdr == NIL and pair.car.car.name == "y"
        assert not truthy(evaluate(term(conjecture), {"y": pair.car.cdr}, make_world()))


def test_a_bare_variable_hypothesis_restricts_nothing_and_lifts(tmp_path):
    # the hypothesis x is no recognizer call and no consp, so neither type
    # extraction nor destructor elimination reads it; y's cdr is a don't-care
    path, report = tmp_path / "bare.lisp", tmp_path / "bare.json"
    path.write_text("(thm (implies (and x (consp y)) (natp (car y))))\n")
    assert cli.main([str(path), "--seed", "24", "--report", str(report)]) == 1
    [form] = json.loads(report.read_text())["forms"]
    proof = form["proof"]
    assert proof["checkpoints"] == ["Goal''"]
    checkpoint = proof["checkpoint_reports"]["Goal''"]
    assert checkpoint["type_alist"] == [["x", ["all"]], ["y1", ["all"]]]
    assert checkpoint["counterexample_count"] == 30
    assert len(proof["counterexamples"]) == 30
    assert all(cex["had_wildcards"] for cex in proof["counterexamples"])
    assert proof["spurious_lifts"] == [] and proof["subgoal_counterexamples"] == []



def _spy_on_the_processes(monkeypatch):
    """A list that gets, for each proof, the list of its process calls, each
    as (process, goal id, result); simplify's goal is the node holding the
    clause it gets."""
    proofs, histories = [], []

    def new_history():
        proofs.append([])
        histories.append(History())
        return histories[-1]

    def spy(process, fn, goal_of):
        def wrapped(*args):
            out = fn(*args)
            proofs[-1].append((process, goal_of(args), out))
            return out
        return wrapped

    def holder(args):
        return next(node.id for node in histories[-1].nodes.values() if node.literals is args[0])

    monkeypatch.setattr(waterfall, "History", new_history)
    monkeypatch.setattr(waterfall, "simplify_clause", spy("simplify", waterfall.simplify_clause, holder))
    for name in ("eliminate_destructors", "generalize"):
        monkeypatch.setattr(waterfall, name, spy(name, getattr(waterfall, name), lambda args: args[0].id))
    return proofs


def _runs_per_goal(proofs):
    """For each proof, how often each process ran on each goal."""
    return [Counter((process, goal) for process, goal, _ in calls) for calls in proofs]


@pytest.mark.parametrize("path", [
    corpus_path("gen-backtrack.lisp"), os.path.join(os.path.dirname(__file__), "fixtures", "backtrack-hints.lisp"),
], ids=os.path.basename)
def test_no_process_runs_twice_on_one_goal_of_a_file(path, monkeypatch):
    # a refuted step hands its goal to the next process, and the processes
    # before it, which did not apply, are not run on the goal again
    proofs = _spy_on_the_processes(monkeypatch)
    outcome = process_file(path, Settings(trials=100, seed=24, backtrack=True))
    assert any(f.proof.discarded_generalizations for f in outcome.forms if f.proof)
    assert proofs
    assert [(i, step) for i, runs in enumerate(_runs_per_goal(proofs)) for step, n in runs.items() if n > 1] == []


def test_no_process_runs_twice_when_every_step_is_redone(world, monkeypatch):
    proofs = _spy_on_the_processes(monkeypatch)
    monkeypatch.setitem(HANDLERS, "always", lambda *args: BacktrackOutcome("redo", note="again"))
    top = "(implies (and (consp x) (natp (car x))) (equal (+ 0 (len x)) (+ 0 (len x))))"
    run_waterfall(term(top), with_settings(world, trials=5, backtrack=False), (HintSpec("Goal", backtrack="always"),), 1)
    [runs] = _runs_per_goal(proofs)
    assert runs == {("simplify", "Goal'"): 1, ("eliminate_destructors", "Goal'"): 1, ("generalize", "Goal'"): 1}


def test_a_goal_whose_generalization_is_refuted_is_simplified_once(monkeypatch):
    # the rule grows the term until the rewrite budget is spent; the goal is
    # not simplified again, at the whole budget's cost, after the redo
    proofs = _spy_on_the_processes(monkeypatch)
    outcome, _ = process_source(GROW + "(thm (equal (f a) (+ 1 (f a))))")
    [calls] = proofs
    assert [(p, g, out.rule_applications) for p, g, out in calls if p == "simplify"] == [
        ("simplify", "Goal", 150)
    ]
    assert outcome.forms[-1].proof.diagnostics == ["Goal: rewriting nested past 300 levels; rewriting disabled for this goal"]


def test_a_triangle_verdict_lifts_its_checkpoint_in_one_call(monkeypatch):
    # the shipped triangle's thm: every counterexample of its checkpoint is
    # lifted and re-checked by one lift call, through one generated function,
    # and the waterfall evaluates nothing itself
    lifts, emitted, evaluated = [], [], []
    lift, generate = History.lift, history.chain_function

    def counting_lift(self, goal_id, bindings, *args, **kwargs):
        lifts.append((goal_id, len(bindings)))
        return lift(self, goal_id, bindings, *args, **kwargs)

    def counting_generate(*args):
        emitted.append(args)
        return generate(*args)

    def counting_evaluate(*args):
        evaluated.append(args)
        return evaluate(*args)

    monkeypatch.setattr(History, "lift", counting_lift)
    monkeypatch.setattr(history, "chain_function", counting_generate)
    monkeypatch.setattr(waterfall, "evaluate", counting_evaluate)
    outcome = process_file(corpus_path("triangle.lisp"), Settings(seed=24))
    [proof] = [form.proof for form in outcome.forms if form.proof is not None]
    [checkpoint] = proof.checkpoints
    tested = len(proof.checkpoint_reports[checkpoint.id].counterexamples)
    assert tested > 500 and len(proof.counterexamples) == tested
    assert lifts == [(checkpoint.id, tested)]
    assert len(emitted) == 1
    assert evaluated == []
