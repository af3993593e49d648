import pytest

from sedan.forms import PROCESS_NAMES, HintSpec
from sedan.hints import (
    EMPTY_SETTINGS, HANDLERS, BacktrackOutcome, HintSettings, apply_backtrack, check_hints, goal_settings,
)
from sedan.hints import test_gen_checkpoint as checkpoint_handler
from sedan.history import History
from sedan.waterfall import run_waterfall

from conftest import term, with_settings


def clause(*srcs):
    return [term(s) for s in srcs]


def test_select_hints_matches_goal_id():
    hints = (HintSpec("Goal", do_not=("generalize",)), HintSpec("Subgoal 2", trials=50))
    assert goal_settings("Goal", hints, None, testing=False).do_not == frozenset({"generalize"})
    assert goal_settings("Subgoal 2", hints, None, testing=False).trials == 50
    assert goal_settings("Subgoal 3", hints, None, testing=False) == EMPTY_SETTINGS


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
    assert out == HintSettings(frozenset({"generalize"}), 7, "test-gen-checkpoint")


def test_testing_override_keeps_existing_handler():
    hints = (HintSpec("Goal", backtrack="none"),)
    assert goal_settings("Goal", hints, None, testing=True).backtrack == "none"
    assert goal_settings("Goal", hints, "test-gen-checkpoint", testing=False).backtrack == "none"


def test_parent_handler_is_inherited_only_with_testing_off():
    assert goal_settings("Goal'", (), "none", testing=True).backtrack == "test-gen-checkpoint"
    assert goal_settings("Goal'", (), "none", testing=False).backtrack == "none"
    assert goal_settings("Goal'", (), None, testing=False) == EMPTY_SETTINGS
    hints = (HintSpec("Goal'", trials=7),)
    out = goal_settings("Goal'", hints, "test-gen-checkpoint", testing=False)
    assert out == HintSettings(trials=7, backtrack="test-gen-checkpoint")


def _goal_with_history(world, *clause_srcs):
    h = History()
    goal = h.record_top("Goal", clause(*clause_srcs))
    goal.settings = EMPTY_SETTINGS
    return goal, h


def test_backtrack_no_handler_keeps(world):
    goal, h = _goal_with_history(world, "(natp x)")
    out = apply_backtrack(None, "generalize", [clause("(natp v1)")], goal, world, 24, h)
    assert out.action == "keep"


def test_checkpoint_handler_ignores_other_processes(world):
    goal, h = _goal_with_history(world, "(natp x)")
    out = checkpoint_handler("simplify", [clause("nil")], goal, world, 24, h)
    assert out.action == "keep"


def test_checkpoint_handler_redoes_refuted_generalization(world):
    goal, h = _goal_with_history(world, "(<= 0 (+ (len x) (len x)))")
    child = clause("(<= 0 (+ v1 v1))")
    out = checkpoint_handler("generalize", [child], goal, world, 24, h)
    assert out.action == "redo"
    assert out.note == "generalization refuted by testing"


def test_checkpoint_handler_keeps_unfalsified_generalization(world):
    goal, h = _goal_with_history(world, "(equal (+ (len x) (len x)) (+ (len x) (len x)))")
    child = clause("(equal (+ v1 v1) (+ v1 v1))")
    out = checkpoint_handler("generalize", [child], goal, with_settings(world, trials=50), 24, h)
    assert out.action == "keep"


def test_backtrack_decisions_deterministic(world):
    goal, h = _goal_with_history(world, "(<= 0 (+ (len x) (len x)))")
    child = clause("(<= 0 (+ v1 v1))")
    outs = [checkpoint_handler("generalize", [child], goal, world, 7, h).action for _ in range(3)]
    assert outs == ["redo", "redo", "redo"]


def test_redo_settings_extend_prior_do_not(world):
    # a redo adds the discarded step's process to the do-not set the hint gave
    hints = (HintSpec("Goal", do_not=("eliminate-destructors",)),)
    result = run_waterfall(term("(<= 0 (+ (len x) (len x)))"), with_settings(world, trials=20), hints, 24)
    assert [(e.goal_id, e.process, e.outcome) for e in result.process_log] == [("Goal", "generalize", "discarded")]
    [ckpt] = result.checkpoints
    assert ckpt.settings == HintSettings(frozenset({"eliminate-destructors", "generalize"}), None, "test-gen-checkpoint")


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
    assert result.checkpoints[0].settings.do_not == frozenset(PROCESS_NAMES)


def test_handler_failure_is_logged_and_kept(world):
    from sedan import hints as hints_mod

    def broken(*args):
        raise RuntimeError("boom")

    hints_mod.HANDLERS["broken"] = broken
    try:
        goal, h = _goal_with_history(world, "(natp x)")
        out = apply_backtrack("broken", "generalize", [clause("(natp v1)")], goal, world, 24, h)
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


def test_redo_termination_bound():
    # the do-not set strictly grows, so a goal re-enters at most |processes| times
    s = EMPTY_SETTINGS
    for name in ("simplify", "eliminate-destructors", "generalize"):
        s2 = s.extend_do_not([name])
        assert s2.do_not > s.do_not
        s = s2
    assert s.extend_do_not(["generalize"]).do_not == s.do_not
