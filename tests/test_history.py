import itertools
import os

import pytest

from sedan import testgen
from sedan.datadef import enumerate_value
from sedan.history import DONT_CARE, WILDCARD_PROBES, History, LiftOutcome
from sedan.session import process_source
from sedan.terms import Var
from sedan.values import NIL, Cons, from_list
from sedan.world import Settings

from conftest import CORPUS_DIR, corpus_path, make_world, term


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
    """(text, directory) of every corpus file, the backtrack-hints fixture,
    and generalizations over variables typed by their own clause and by an
    ancestor's destructor elimination."""
    paths = [corpus_path(n) for n in sorted(os.listdir(CORPUS_DIR)) if n.endswith(".lisp")]
    paths.append(os.path.join(os.path.dirname(__file__), "fixtures", "backtrack-hints.lisp"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield fh.read(), os.path.dirname(path)
    yield (
        "(defdata nl (listof nat))\n"
        "(thm (implies (and (nlp x) (consp x) (natp n)) (<= n (+ n (len (cdr x)) (len (cdr x))))))\n"
        "(thm (implies (and (nlp x) (consp x)) (< (car x) (+ 1 (car x) (len (cdr x)) (len (cdr x))))))\n",
        ".",
    )


@pytest.mark.parametrize("backtrack", [True, False])
def test_the_probe_alist_is_the_recorded_child_alist(backtrack):
    # the backtrack probe tests a generalization's child before it is
    # recorded; for every kept generalization it must have used the type
    # alist the recorded child gets
    checked = []
    for text, directory in _generalize_sources():
        outcome, world = process_source(text, Settings(trials=20, backtrack=backtrack), directory)
        for fr in outcome.forms:
            if fr.proof is None:
                continue
            h = fr.proof.history
            for entry in fr.proof.process_log:
                if entry.process == "generalize" and entry.outcome == "children":
                    [child_id], [child] = entry.child_ids, entry.child_clauses
                    alist = h.accumulated_type_alist(child_id, world)
                    assert h.probe_type_alist(entry.goal_id, child, world) == alist
                    checked.append(alist)
    assert len(checked) >= 3
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
    goal_clauses = {id(node.clause) for node in history.nodes.values()}
    assert len(history.nodes) >= 5
    assert len(extracted) == len(set(extracted)) and set(extracted) <= goal_clauses
