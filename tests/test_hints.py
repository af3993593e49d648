import pytest

from sedan import history
from sedan.forms import PROCESS_NAMES, HintSpec
from sedan.hints import HANDLERS, BacktrackOutcome, apply_backtrack, check_hints, goal_settings
from sedan.hints import test_gen_checkpoint as checkpoint_handler
from sedan.history import History
from sedan.waterfall import run_waterfall

from conftest import term, with_settings


def clause(*srcs):
    return [term(s) for s in srcs]


def test_select_hints_matches_goal_id():
    hints = (HintSpec("Goal", do_not=("generalize",)), HintSpec("Subgoal 2", trials=50))
    assert goal_settings("Goal", hints, None, testing=False).do_not == ("generalize",)
    assert goal_settings("Subgoal 2", hints, None, testing=False).trials == 50
    assert goal_settings("Subgoal 3", hints, None, testing=False) == HintSpec("Subgoal 3")


def test_select_hints_first_match_wins():
    hints = (HintSpec("Goal", trials=5), HintSpec("Goal", trials=9))
    assert goal_settings("Goal", hints, None, testing=False).trials == 5


def test_select_hints_rejects_unknown_names():
    # every hint is checked, whichever goal it names
    with pytest.raises(ValueError, match="unknown process"):
        check_hints((HintSpec("Goal"), HintSpec("Subgoal 9", do_not=("induct",))))
    with pytest.raises(ValueError, match="unknown backtrack handler"):
        check_hints((HintSpec("Goal", backtrack="nope"),))
    check_hints((HintSpec("Goal", do_not=("simplify",), backtrack="none"),))


def test_testing_override_preserves_user_do_not():
    hints = (HintSpec("Goal", do_not=("generalize",), trials=7),)
    out = goal_settings("Goal", hints, None, testing=True)
    assert out == HintSpec("Goal", ("generalize",), 7, "test-gen-checkpoint")


def test_testing_override_keeps_existing_handler():
    hints = (HintSpec("Goal", backtrack="none"),)
    assert goal_settings("Goal", hints, None, testing=True).backtrack == "none"
    assert goal_settings("Goal", hints, "test-gen-checkpoint", testing=False).backtrack == "none"


def test_parent_handler_is_inherited_only_with_testing_off():
    assert goal_settings("Goal'", (), "none", testing=True).backtrack == "test-gen-checkpoint"
    assert goal_settings("Goal'", (), "none", testing=False).backtrack == "none"
    assert goal_settings("Goal'", (), None, testing=False) == HintSpec("Goal'")
    hints = (HintSpec("Goal'", trials=7),)
    out = goal_settings("Goal'", hints, "test-gen-checkpoint", testing=False)
    assert out == HintSpec("Goal'", trials=7, backtrack="test-gen-checkpoint")


def _step(world, parent_src, process, child_src, variable_map=None):
    """A recorded goal and the one child a ``process`` step gives it, as the
    waterfall hands them to a backtrack handler."""
    h = History()
    goal = h.record_top("Goal", clause(parent_src))
    goal.settings = HintSpec("Goal")
    child = h.record_node("Goal", "Goal'", clause(child_src), process, variable_map or {}, world=world)
    return goal, [child]


def test_backtrack_no_handler_keeps(world):
    goal, children = _step(world, "(natp x)", "generalize", "(natp v1)")
    out = apply_backtrack(None, "generalize", children, goal, world, 24)
    assert out.action == "keep"


def test_checkpoint_handler_ignores_other_processes(world):
    goal, children = _step(world, "(natp x)", "simplify", "nil")
    out = checkpoint_handler("simplify", children, goal, world, 24)
    assert out.action == "keep"


def test_checkpoint_handler_redoes_refuted_generalization(world):
    goal, children = _step(world, "(<= 0 (+ (len x) (len x)))", "generalize", "(<= 0 (+ v1 v1))",
                           {"v1": term("(len x)")})
    out = checkpoint_handler("generalize", children, goal, world, 24)
    assert out.action == "redo"
    assert out.note == "generalization refuted by testing"


def test_checkpoint_handler_keeps_unfalsified_generalization(world):
    goal, children = _step(world, "(equal (+ (len x) (len x)) (+ (len x) (len x)))", "generalize",
                           "(equal (+ v1 v1) (+ v1 v1))", {"v1": term("(len x)")})
    out = checkpoint_handler("generalize", children, goal, with_settings(world, trials=50), 24)
    assert out.action == "keep"


def test_backtrack_decisions_deterministic(world):
    goal, children = _step(world, "(<= 0 (+ (len x) (len x)))", "generalize", "(<= 0 (+ v1 v1))",
                           {"v1": term("(len x)")})
    outs = [checkpoint_handler("generalize", children, goal, world, 7).action for _ in range(3)]
    assert outs == ["redo", "redo", "redo"]


def test_redo_settings_extend_prior_do_not(world):
    # a redo adds the discarded step's process to the do-not set the hint gave
    hints = (HintSpec("Goal", do_not=("eliminate-destructors",)),)
    result = run_waterfall(term("(<= 0 (+ (len x) (len x)))"), with_settings(world, trials=20), hints, 24)
    assert [(e.goal_id, e.process, e.outcome) for e in result.process_log] == [("Goal", "generalize", "discarded")]
    [ckpt] = result.checkpoints
    assert ckpt.settings == HintSpec("Goal", ("eliminate-destructors", "generalize"), None, "test-gen-checkpoint")


def test_a_handler_that_always_redoes_disables_each_step_in_turn(world, monkeypatch):
    # whatever the handler, a redo disables the process of the step it
    # discards, so the goal runs out of processes and is pooled
    monkeypatch.setitem(HANDLERS, "always", lambda *args: BacktrackOutcome("redo", note="again"))
    hints = (HintSpec("Goal", backtrack="always"),)
    top = "(implies (and (consp x) (natp (car x))) (equal (+ 0 (len x)) (+ 0 (len x))))"
    result = run_waterfall(term(top), with_settings(world, trials=5, backtrack=False), hints, 1)
    log = [(e.goal_id, e.process, e.outcome, e.note) for e in result.process_log]
    assert log == [("Goal", "clausify", "children", None)] + [
        ("Goal'", process, "discarded", "again") for process in ("simplify", "eliminate-destructors", "generalize")
    ]
    assert [c.id for c in result.checkpoints] == ["Goal'"]
    assert set(result.checkpoints[0].settings.do_not) == set(PROCESS_NAMES)


def _spy_on_the_probe(monkeypatch):
    """A list that gets, for each call of the testing handler, the children
    it was handed and its answer."""
    calls = []
    probe = HANDLERS["test-gen-checkpoint"]

    def spy(processor, children, goal, world, seed):
        outcome = probe(processor, children, goal, world, seed)
        calls.append((processor, list(children), outcome.action))
        return outcome

    monkeypatch.setitem(HANDLERS, "test-gen-checkpoint", spy)
    return calls


def test_a_redo_removes_the_children_it_recorded(world, monkeypatch):
    # the probe gets the step's recorded child; the redo takes it out of the
    # history again, and the discarded step logs no children
    calls = _spy_on_the_probe(monkeypatch)
    result = run_waterfall(term("(<= 0 (+ (len x) (len x)))"), with_settings(world, trials=20), (), 24)
    [entry] = result.process_log
    assert (entry.process, entry.outcome, entry.child_ids) == ("generalize", "discarded", ())
    [(processor, [child], action)] = calls
    assert (processor, action) == ("generalize", "redo")
    assert (child.id, child.parent_id, child.process) == ("Goal'", "Goal", "generalize")
    assert child.id not in result.history.nodes
    assert result.history.order == ["Goal"]


def test_a_kept_step_records_each_child_once(world, monkeypatch):
    # the probe tests the node the history keeps: record_node runs once per
    # child, and no other node is built
    calls = _spy_on_the_probe(monkeypatch)
    recorded, built = [], []
    record_node, node_class = History.record_node, history.HistoryNode

    def counting_record(self, parent_id, goal_id, *args, **kwargs):
        recorded.append(goal_id)
        return record_node(self, parent_id, goal_id, *args, **kwargs)

    def counting_node(*args, **kwargs):
        built.append(args[0])
        return node_class(*args, **kwargs)

    monkeypatch.setattr(History, "record_node", counting_record)
    monkeypatch.setattr(history, "HistoryNode", counting_node)
    top = "(implies (true-listp x) (equal (car (cons (len x) x)) (car (cons (len x) nil))))"
    result = run_waterfall(term(top), with_settings(world, trials=20), (), 24)
    assert [(e.goal_id, e.process, e.outcome, e.child_ids) for e in result.process_log] == [
        ("Goal", "clausify", "children", ("Goal'",)), ("Goal'", "generalize", "children", ("Goal''",)),
    ]
    [(processor, [child], action)] = calls
    assert (processor, action) == ("generalize", "keep")
    assert result.history.nodes["Goal''"] is child
    assert recorded == ["Goal'", "Goal''"]
    assert built == ["Goal", "Goal'", "Goal''"] == result.history.order


def test_handler_failure_is_logged_and_kept(world):
    from sedan import hints as hints_mod

    def broken(*args):
        raise RuntimeError("boom")

    hints_mod.HANDLERS["broken"] = broken
    try:
        goal, children = _step(world, "(natp x)", "generalize", "(natp v1)")
        out = apply_backtrack("broken", "generalize", children, goal, world, 24)
        assert out.action == "keep"
        assert "boom" in out.note
    finally:
        del hints_mod.HANDLERS["broken"]


def test_handler_failure_reaches_the_proof_diagnostics(world, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setitem(HANDLERS, "broken", broken)
    result = run_waterfall(term("(<= 0 (+ (len x) (len x)))"), with_settings(world, trials=20, backtrack=False),
                           (HintSpec("Goal", backtrack="broken"),), 1)
    assert result.diagnostics == ["Goal: backtrack handler error: boom"]
    # the step the handler failed on is kept
    assert [(e.goal_id, e.process, e.outcome) for e in result.process_log] == [("Goal", "generalize", "children")]


def test_redo_termination_bound(world, monkeypatch):
    # the do-not set strictly grows, and never names a process twice, so a
    # goal re-enters at most |processes| times
    seen = []

    def always(processor, children, goal, world, seed):
        seen.append(goal.settings.do_not)
        return BacktrackOutcome("redo")

    monkeypatch.setitem(HANDLERS, "always", always)
    top = "(implies (and (consp x) (natp (car x))) (equal (+ 0 (len x)) (+ 0 (len x))))"
    result = run_waterfall(term(top), with_settings(world, trials=5, backtrack=False),
                           (HintSpec("Goal", backtrack="always"),), 1)
    [ckpt] = result.checkpoints
    seen.append(ckpt.settings.do_not)
    assert len(seen) == len(PROCESS_NAMES) + 1
    for before, after in zip(seen, seen[1:]):
        assert set(after) > set(before)
    assert len(set(seen[-1])) == len(seen[-1])
