import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan import evaluator, history, testgen
from sedan.datadef import enumerate_value
from sedan.evaluator import on_sized_stack
from sedan.history import DONT_CARE, WILDCARD_PROBES, History, LiftOutcome
from sedan.session import process_source
from sedan.terms import App, Quote, Var
from sedan.values import NIL, Cons, from_list
from sedan.world import Settings

from conftest import CORPUS_DIR, corpus_path, make_world, on_a_plain_thread, term, with_settings
from oracle import lift_edge_by_edge


def clause(*srcs):
    return [term(s) for s in srcs]


def build_triangle_chain(world):
    """A hand-built genealogy mirroring the destructor/substitution pipeline:
    top vars {x}; x -> (cons x1 x2); x2 -> (cons x3 x4); x4 -> (cons x5 x6);
    then a simplify edge with x3 -> 1, x5 -> x1, x6 -> nil."""
    h = History()
    h.record_top("Goal", clause("(not (consp x))", "(not (equal (car x) 1))", "(natp (car x))"))
    h.record_node(
        "Goal", "Goal'",
        clause("(not (equal x1 1))", "(not (consp x2))", "(natp x1)"),
        "eliminate-destructors", {"x": term("(cons x1 x2)")},
        {"x1": (), "x2": ()}, world=world,
    )
    h.record_node(
        "Goal'", "Goal''",
        clause("(not (equal x1 1))", "(not (consp x4))", "(natp x3)"),
        "eliminate-destructors", {"x2": term("(cons x3 x4)")},
        {"x3": (), "x4": ()}, world=world,
    )
    h.record_node(
        "Goal''", "Goal'''",
        clause("(not (equal x1 1))", "(not (natp x3))", "(natp x5)", "(posp x6)"),
        "eliminate-destructors", {"x4": term("(cons x5 x6)")},
        {"x5": (), "x6": ()}, world=world,
    )
    h.record_node(
        "Goal'''", "Goal''''",
        clause("(not (posp x1))", "(natp x1)"),
        "simplify", {"x3": term("1"), "x5": term("x1"), "x6": term("nil")},
        world=world,
    )
    return h


def test_lift_through_destructor_and_substitution_chain(world):
    h = build_triangle_chain(world)
    out = h.lift("Goal''''", {"x1": 429}, world)
    assert out.status == "lifted"
    assert out.binding == {"x": from_list([429, 1, 429])}
    assert not out.had_wildcards


def test_lift_identity_on_top_goal(world):
    h = History()
    h.record_top("Goal", clause("(natp x)", "(natp y)"))
    out = h.lift("Goal", {"x": 1, "y": 2}, world)
    assert out.status == "lifted"
    assert out.binding == {"x": 1, "y": 2}


def test_dont_care_variables_lift_to_nil_and_flag(world):
    h = History()
    h.record_top("Goal", clause("(not (equal x x))", "(< (+ y 1) y)"))
    h.record_node("Goal", "Goal'", clause("(< (+ y 1) y)"), "simplify", {}, world=world)
    node = h.nodes["Goal'"]
    assert node.variable_map["x"] is DONT_CARE
    assert node.variable_map["y"] == Var("y")
    out = h.lift("Goal'", {"y": 5}, world)
    assert out.status == "lifted"
    assert out.had_wildcards
    assert out.binding == {"x": NIL, "y": 5}
    probed = h.lift("Goal'", {"y": 5}, world, wildcard_value=7)
    assert probed.binding["x"] == 7


def test_a_variable_a_map_reads_but_the_child_lacks_lifts_as_a_dont_care(world):
    h = History()
    h.record_top("Goal", clause("(not (consp y))", "(not (natp z))", "(equal (car y) z)"))
    # y2 and w occur in no literal of the child
    h.record_node("Goal", "Goal'", clause("(not (natp z))", "(equal y1 z)"), "eliminate-destructors",
                  {"y": term("(cons y1 y2)"), "z": Var("w")}, world=world)
    assert h.nodes["Goal'"].unbound == ("y2", "w")
    out = h.lift("Goal'", {"y1": 3}, world)
    assert out.status == "lifted" and out.had_wildcards
    assert out.binding == {"y": from_list([3]), "z": NIL}
    # a map entry that is only such a variable is a pure don't-care
    assert out.wildcard_vars == ("z",)
    probed = h.lift("Goal'", {"y1": 3}, world, wildcard_value=7)
    assert probed.binding == {"y": Cons(3, 7), "z": 7}


def test_generalize_edge_is_not_liftable(world):
    h = History()
    h.record_top("Goal", clause("(<= 0 (+ (len x) (len x)))"))
    h.record_node("Goal", "Goal'", clause("(<= 0 (+ v1 v1))"), "generalize", {}, liftable=False, world=world)
    out = h.lift("Goal'", {"v1": -1}, world)
    assert out.status == "failed"
    assert "generalize" in out.reason


def test_an_evaluation_error_below_a_non_liftable_edge_is_the_reason(world):
    h = History()
    h.record_top("Goal", clause("(<= 0 (+ (len x) (len x)))"))
    h.record_node("Goal", "Goal'", clause("(<= 0 (+ v1 v1))"), "generalize", {}, liftable=False, world=world)
    h.record_node("Goal'", "Goal''", clause("(natp y)"), "simplify", {"v1": term("(mystery y)")}, world=world)
    h.record_node("Goal'", "Subgoal 2", clause("(natp y)"), "simplify", {"v1": term("y")}, world=world)
    assert h.lift("Goal''", {"y": 1}, world).reason == "evaluation error in variable map: undefined function: mystery"
    assert h.lift("Subgoal 2", {"y": 1}, world).reason == "non-liftable generalize edge at Goal'"


def _triangle_chain_with_a_sibling(world):
    """``build_triangle_chain`` with a second checkpoint under Goal''', whose
    clause drops x3, x5 and x6: it shares three edges with Goal''''."""
    h = build_triangle_chain(world)
    h.record_node("Goal'''", "Subgoal 2", clause("(natp x1)"), "simplify",
                  {"x3": term("2"), "x5": term("(+ x1 1)")}, world=world)
    return h


def test_checkpoints_sharing_a_path_lift_as_in_a_fresh_history(world):
    shared = _triangle_chain_with_a_sibling(world)
    for x1 in (1, 429, -3):
        for wildcard in (NIL, 7, "", Cons(0, 0)):
            # alternate between the two checkpoints
            for goal_id in ("Goal''''", "Subgoal 2"):
                fresh = _triangle_chain_with_a_sibling(world)
                expected = fresh.lift(goal_id, {"x1": x1}, world, wildcard_value=wildcard)
                assert shared.lift(goal_id, {"x1": x1}, world, wildcard_value=wildcard) == expected
    assert shared.lift("Subgoal 2", {"x1": 4}, world) == LiftOutcome(
        "lifted", {"x": Cons(4, Cons(2, Cons(5, NIL)))}, had_wildcards=True
    )


def test_a_probe_lift_reports_the_wildcards_a_nil_lift_did(world):
    h = History()
    h.record_top("Goal", clause("(not (natp x))", "(not (consp y))", "(natp (car y))"))
    h.record_node("Goal", "Goal'", clause("(not (natp z))", "(natp y1)"), "eliminate-destructors",
                  {"x": term("z"), "y": term("(cons y1 y2)")}, world=world)
    h.record_node("Goal'", "Goal''", clause("(natp y1)"), "simplify", {}, world=world)
    nil_lift = h.lift("Goal''", {"y1": -1}, world)
    assert nil_lift.status == "lifted"
    assert (nil_lift.had_wildcards, nil_lift.wildcard_vars) == (True, ("x",))
    for probe in (7, "", Cons(0, 0)):
        probed = h.lift("Goal''", {"y1": -1}, world, wildcard_value=probe)
        assert (probed.had_wildcards, probed.wildcard_vars) == (True, ("x",))
        assert probed.binding == {"x": probe, "y": Cons(-1, probe)}


@pytest.mark.parametrize("source", ["", "(defdata loi (listof integer))"])
def test_the_wildcard_probes_are_the_first_non_nil_values_of_all(source):
    world = make_world(source)
    distinct = []
    for i in itertools.count(1):
        value = enumerate_value(world, "all", i)
        if value != NIL and value not in distinct:
            distinct.append(value)
        if len(distinct) == 3:
            break
    assert WILDCARD_PROBES == tuple(distinct)


def test_duplicate_goal_id_rejected(world):
    h = History()
    h.record_top("Goal", clause("(natp x)"))
    with pytest.raises(ValueError, match="duplicate"):
        h.record_top("Goal", clause("(natp x)"))
    h.record_node("Goal", "Goal'", clause("(natp x)"), "simplify", {}, world=world)
    with pytest.raises(ValueError, match="duplicate"):
        h.record_node("Goal", "Goal'", clause("(natp x)"), "simplify", {}, world=world)


def test_accumulated_alist_top_goal_is_extraction(world):
    h = History()
    h.record_top("Goal", clause("(not (natp x))", "(equal x x)"))
    acc = h.accumulated_type_alist("Goal", world)
    assert acc == {"x": ("nat",)}


def test_accumulated_alist_case_split_inherits(world):
    h = History()
    h.record_top("Goal", clause("(not (true-listp z))", "(or (integerp x) (stringp x))"))
    h.record_node(
        "Goal", "Subgoal 1",
        clause("(not (true-listp z))", "(not (integerp x))", "(equal x z)"),
        "simplify", {}, world=world,
    )
    h.record_node(
        "Goal", "Subgoal 2",
        clause("(not (true-listp z))", "(not (stringp x))", "(equal x z)"),
        "simplify", {}, world=world,
    )
    acc1 = h.accumulated_type_alist("Subgoal 1", world)
    acc2 = h.accumulated_type_alist("Subgoal 2", world)
    assert acc1["x"] == ("integer",)
    assert acc2["x"] == ("string",)
    assert acc1["z"] == ("true-list",)


def test_monotonicity_surviving_vars_inherit(world):
    h = History()
    h.record_top("Goal", clause("(not (natp x))", "(not (posp y))", "(equal x y)"))
    # the child keeps both vars but its own clause only restricts y
    h.record_node("Goal", "Goal'", clause("(not (posp y))", "(equal x y)"), "simplify", {}, world=world)
    acc = h.accumulated_type_alist("Goal'", world)
    assert "nat" in acc["x"]  # inherited, even though the hypothesis vanished
    assert acc["y"][0] == "pos"


def test_own_restrictions_come_before_inherited(world):
    h = History()
    h.record_top("Goal", clause("(not (integerp x))", "(natp x)"))
    h.record_node("Goal", "Goal'", clause("(not (natp x))", "(posp x)"), "simplify", {}, world=world)
    acc = h.accumulated_type_alist("Goal'", world)
    assert acc["x"] == ("nat", "integer")


def test_lift_fails_on_missing_variable(world):
    h = build_triangle_chain(world)
    out = h.lift("Goal''''", {}, world)  # x1 missing
    assert out.status == "failed"


def test_a_missing_checkpoint_variable_is_the_reason(world):
    h = build_triangle_chain(world)
    out = h.lift("Goal''''", {}, world)
    assert out == LiftOutcome("failed", reason="evaluation error in variable map: unbound variable: x1")


def test_the_first_failing_map_term_of_an_edge_is_the_reason(world):
    h = History()
    h.record_top("Goal", clause("(natp x)", "(natp y)"))
    h.record_node("Goal", "Goal'", clause("(natp z)"), "simplify",
                  {"x": term("(mystery z)"), "y": term("(enigma z)")}, world=world)
    out = h.lift("Goal'", {"z": 1}, world)
    assert out.reason == "evaluation error in variable map: undefined function: mystery"


def test_a_map_term_past_the_depth_cap_is_the_reason():
    world = with_settings(make_world("(defun spin (x) (spin x))"), depth_cap=50)
    h = History()
    h.record_top("Goal", clause("(natp x)"))
    h.record_node("Goal", "Goal'", clause("(natp z)"), "simplify", {"x": term("(spin z)")}, world=world)
    out = h.lift("Goal'", {"z": 1}, world)
    assert out.reason == (
        "evaluation error in variable map: recursion depth cap of 50 exceeded (likely nonterminating definition)"
    )


def test_each_map_term_gets_the_whole_depth_cap():
    # (cnt 9) nests ten calls, (cnt 10) eleven
    world = with_settings(make_world("(defun cnt (n) (if (posp n) (+ 1 (cnt (- n 1))) 0))"), depth_cap=10)
    h = History()
    h.record_top("Goal", clause("(natp x)", "(natp y)"))
    h.record_node("Goal", "Goal'", clause("(natp z)"), "simplify",
                  {"x": term("(cnt z)"), "y": term("(cnt z)")}, world=world)
    assert h.lift("Goal'", {"z": 9}, world) == LiftOutcome("lifted", {"x": 9, "y": 9})
    assert h.lift("Goal'", {"z": 10}, world).reason == (
        "evaluation error in variable map: recursion depth cap of 10 exceeded (likely nonterminating definition)"
    )


def test_a_swap_map_reads_the_childs_values(world):
    h = History()
    h.record_top("Goal", clause("(< a b)"))
    h.record_node("Goal", "Goal'", clause("(< b a)"), "simplify", {"a": Var("b"), "b": Var("a")}, world=world)
    out = h.lift("Goal'", {"a": 1, "b": 2}, world)
    assert out == LiftOutcome("lifted", {"a": 2, "b": 1})


def test_a_map_term_past_pythons_default_stack_lifts_on_the_forms_stack():
    # 3000 nested calls are within the depth cap but past Python's default
    # stack: on the stack a session gives a form, the lift lifts the value. No
    # proof makes a map term nest that deep, so the lift runs on that stack
    # through the session's helper
    world = make_world("(defun cnt (n) (if (posp n) (+ 1 (cnt (- n 1))) 0))")
    h = History()
    h.record_top("Goal", clause("(natp x)", "(natp y)"))
    h.record_node("Goal", "Goal'", clause("(natp z)"), "simplify",
                  {"x": term("(cnt z)"), "y": term("(+ z 1)")}, world=world)
    lifted = on_sized_stack(world.settings.depth_cap, h.lift, "Goal'", {"z": 3000}, world)
    assert lifted == LiftOutcome("lifted", {"x": 3000, "y": 3001})
    # on a stack of Python's own size the whole chain errs once
    assert on_a_plain_thread(h.lift, "Goal'", {"z": 3000}, world).reason == (
        "evaluation error in variable map: the Python stack overflowed within the depth cap of 10000")
    assert h.lift("Goal'", {"z": 30}, world) == LiftOutcome("lifted", {"x": 30, "y": 31})


def test_history_serialization_shape(world):
    h = build_triangle_chain(world)
    doc = h.to_json()
    assert [n["goal"] for n in doc] == ["Goal", "Goal'", "Goal''", "Goal'''", "Goal''''"]
    assert doc[1]["variable_map"]["x"] == "(cons x1 x2)"
    assert doc[4]["process"] == "simplify"


def test_unrestricted_child_variable_has_an_empty_type_map():
    # destructor elimination hands x1 the element type of (listof all); the
    # recorded type map spells "unrestricted" as [] like every other variable
    outcome, _ = process_source(
        "(defdata la (listof all))\n"
        "(thm (implies (and (lap x) (consp x)) (equal (car x) 0)))"
    )
    doc = outcome.forms[-1].proof.history.to_json()
    type_maps = {n["goal"]: n["type_map"] for n in doc}
    assert type_maps["Goal''"] == {"x1": [], "x2": ["la"]}
    assert all("all" not in rs for tm in type_maps.values() for rs in tm.values())


def _generalize_sources():
    """(text, directory) of every corpus file, the backtrack-hints and
    gen-kept fixtures, and generalizations over variables typed by their own
    clause and by an ancestor's destructor elimination, and a true one whose
    hint names the testing handler."""
    paths = [corpus_path(n) for n in sorted(os.listdir(CORPUS_DIR)) if n.endswith(".lisp")]
    paths += [os.path.join(os.path.dirname(__file__), "fixtures", n) for n in ("backtrack-hints.lisp", "gen-kept.lisp")]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield fh.read(), os.path.dirname(path)
    yield (
        "(defdata nl (listof nat))\n"
        "(thm (implies (and (nlp x) (consp x) (natp n)) (<= n (+ n (len (cdr x)) (len (cdr x))))))\n"
        "(thm (implies (and (nlp x) (consp x)) (< (car x) (+ 1 (car x) (len (cdr x)) (len (cdr x))))))\n"
        "(thm (implies (true-listp y) (equal (car (cons (len y) y)) (car (cons (len y) nil))))\n"
        '     :hints (("Goal" :backtrack test-gen-checkpoint)))\n',
        ".",
    )


@pytest.mark.parametrize("backtrack", [True, False])
def test_the_probe_alist_is_the_recorded_child_alist(backtrack, monkeypatch):
    # the backtrack probe tests a generalization's recorded child; for every
    # kept generalization it must have used the type alist the child has,
    # the very dict every later reader of that alist gets
    probed = []

    def probe(literals, alist, *args, **kwargs):
        probed.append(alist)
        return run_trials(literals, alist, *args, **kwargs)

    run_trials = testgen.run_trials
    monkeypatch.setattr(testgen, "run_trials", probe)  # the handler's; checkpoints bind their own
    checked = []
    for text, directory in _generalize_sources():
        probed.clear()
        outcome, world = process_source(text, Settings(trials=20, backtrack=backtrack), directory)
        for fr in outcome.forms:
            if fr.proof is None:
                continue
            h = fr.proof.history
            for entry in fr.proof.process_log:
                if entry.process == "generalize" and entry.outcome == "children":
                    [child_id] = entry.child_ids
                    alist = h.accumulated_type_alist(child_id, world)
                    if h.nodes[entry.goal_id].settings.backtrack == "test-gen-checkpoint":
                        assert any(a is alist for a in probed)
                        checked.append(alist)
    assert {"y": ("true-list",), "v1": ("all",)} in checked
    if backtrack:
        assert {"x": ("true-list",), "v1": ("all",)} in checked
        assert {"x1": ("nat",), "x2": ("nl",), "v1": ("all",)} in checked


def test_each_goal_extracts_its_restrictions_once(monkeypatch):
    extracted = []

    def counting(literals, world):
        extracted.append(id(literals))
        return extract(literals, world)

    extract = testgen.extract_restrictions
    monkeypatch.setattr(testgen, "extract_restrictions", counting)
    # a case split and a destructor elimination: a goal's alist is asked for
    # by each of its children, by destructor elimination and by its checkpoint
    outcome, _ = process_source(
        "(thm (implies (and (true-listp x) (consp x) (natp y))"
        " (and (equal (car x) y) (< y (len (cdr x))))))"
    )
    history = outcome.forms[-1].proof.history
    goal_clauses = {id(node.literals) for node in history.nodes.values()}
    assert len(history.nodes) >= 5
    assert len(extracted) == len(set(extracted)) and set(extracted) <= goal_clauses


# ---------------------------------------------------------------------------
# the generated chain against the edge-by-edge lift (oracle.py)


LIFT_WORLD = with_settings(
    make_world("(defun spin (x) (spin x))\n(defun cnt (n) (if (posp n) (+ 1 (cnt (- n 1))) 0))"), depth_cap=10
)
# arities; mystery is never defined, spin passes any depth cap and cnt passes
# a cap of 10 on 10 and more, but not on 9
LIFT_FUNS = {"cons": 2, "car": 1, "+": 2, "if": 3, "equal": 2, "cnt": 1, "spin": 1, "mystery": 1}
# a term that calls spin or mystery fails the lift, so they are drawn less
LIFT_CALLS = ["cons", "cons", "car", "+", "+", "if", "equal", "cnt", "cnt", "spin", "mystery"]
NAMES = ["a", "b", "c", "d"]
VALUES = [0, 1, 9, 12, -2, NIL, "s", Cons(1, 2), from_list([3, 4])]


def map_terms(child):
    """Map terms over the child's variables, and over variables it lacks
    (u is in no clause)."""
    leaves = st.one_of(
        st.sampled_from([*child, *child, *NAMES, "u"]).map(Var),
        st.sampled_from(VALUES).map(Quote),
        st.sampled_from([*child, "u"]).map(lambda v: App("cnt", (Var(v),))),
    )

    def apps(children):
        return st.sampled_from(LIFT_CALLS).flatmap(
            lambda fn: st.lists(children, min_size=LIFT_FUNS[fn], max_size=LIFT_FUNS[fn]).map(
                lambda args: App(fn, tuple(args))
            )
        )

    return st.recursive(leaves, apps, max_leaves=4)


@st.composite
def histories(draw):
    """A chain of goals, each with a variable map whose entries are left out
    (the variable survives or is a don't-care), don't-cares, swaps or map
    terms, and now and then a non-liftable edge; and an assignment for each
    goal below the top, now and then missing a variable or holding one too
    many."""
    h = History()
    parent = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    h.record_top("Goal", [App("natp", (Var(v),)) for v in parent])
    goals = [("Goal", parent)]
    for k in range(1, draw(st.integers(2, 4)) + 1):
        if draw(st.booleans()):
            child = draw(st.permutations(parent))  # every variable survives, so a swap reads the child's
        else:
            child = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
        variable_map = {}
        for pv in parent:
            kind = draw(st.sampled_from(["survive", "dont-care", "swap", "swap", "term", "term"]))
            if kind == "dont-care":
                variable_map[pv] = DONT_CARE
            elif kind == "swap":
                variable_map[pv] = Var(draw(st.sampled_from([v for v in [*parent, *NAMES] if v != pv])))
            elif kind == "term":
                variable_map[pv] = draw(map_terms(child))
        goal_id = "Goal" + "'" * k
        h.record_node(goals[-1][0], goal_id, [App("natp", (Var(v),)) for v in child], "simplify", variable_map,
                      liftable=draw(st.sampled_from([True] * 9 + [False])), world=LIFT_WORLD)
        goals.append((goal_id, child))
        parent = child
    lifts = []
    for goal_id, variables in goals[1:]:
        assignment = {v: draw(st.sampled_from(VALUES)) for v in variables}
        change = draw(st.sampled_from(["none", "none", "drop", "extra"]))
        if change == "drop" and assignment:
            del assignment[draw(st.sampled_from(sorted(assignment)))]
        elif change == "extra":
            assignment["u"] = draw(st.sampled_from(VALUES))
        lifts.append((goal_id, assignment))
    return h, lifts


@settings(max_examples=200, deadline=None)
@given(histories())
def test_the_chain_lifts_as_the_map_terms_evaluated_edge_by_edge(history_and_lifts):
    h, lifts = history_and_lifts
    for goal_id, assignment in lifts:
        for wildcard in (NIL, *WILDCARD_PROBES):
            got = h.lift(goal_id, assignment, LIFT_WORLD, wildcard_value=wildcard)
            expected = lift_edge_by_edge(h, goal_id, assignment, LIFT_WORLD, wildcard_value=wildcard)
            assert got == expected
            assert got.binding is None or list(got.binding) == list(expected.binding)


def test_a_variable_the_assignment_lacks_is_bound_above_the_edge_that_sets_it(world):
    # the checkpoint's a is missing, but the first edge reads it only in a
    # branch not taken and sets the parent's a, which the next edge reads
    h = History()
    h.record_top("Goal", clause("(natp a)"))
    h.record_node("Goal", "Goal'", clause("(natp a)", "(natp b)"), "simplify", {}, world=world)
    h.record_node("Goal'", "Goal''", clause("(natp a)", "(natp b)"), "simplify",
                  {"a": term("(if nil a b)")}, world=world)
    assert h.lift("Goal''", {"b": 1}, world) == LiftOutcome("lifted", {"a": 1})


def test_a_lift_evaluates_no_term_on_its_own(world, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(evaluator, "evaluate", refuse)
    monkeypatch.setattr(history, "evaluate", refuse)
    h = build_triangle_chain(world)
    assert h.lift("Goal''''", {"x1": 429}, world) == LiftOutcome("lifted", {"x": from_list([429, 1, 429])})
    assert h.lift("Goal''''", {}, world).reason == "evaluation error in variable map: unbound variable: x1"
