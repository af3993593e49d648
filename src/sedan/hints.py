"""Hint settings and the backtrack protocol.

``check_hints`` rejects a hint naming an unknown process or handler before
the waterfall starts. ``goal_settings`` is the one rule for what a goal gets
when the waterfall records it. The first user hint naming the goal gives its
do-not set and its trial count, and may name a backtrack handler; a goal
whose hint names none gets the testing handler when backtracking is on, and
otherwise the handler its parent had. ``goal_trials`` is the one rule for how
many trials a goal's tests run: its hint's count, else the world's. A
backtrack handler runs after a process succeeds and answers keep or redo; on
a redo the waterfall discards the step and re-enters the goal with that
step's process added to its do-not set.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import testgen
from .forms import PROCESS_NAMES, HintSpec
from .values import Record


class HintSettings(Record):
    __slots__ = ("do_not", "trials", "backtrack")

    def __init__(
        self,
        do_not: frozenset[str] = frozenset(),
        trials: Optional[int] = None,
        backtrack: Optional[str] = None,  # registered handler name; children inherit it
    ):
        self._fill(do_not, trials, backtrack)

    def extend_do_not(self, names) -> "HintSettings":
        return self.replace(do_not=self.do_not | frozenset(names))


EMPTY_SETTINGS = HintSettings()


class BacktrackOutcome:
    def __init__(self, action: str, note: Optional[str] = None):
        self.action = action  # "keep" | "redo"
        self.note = note


def check_hints(user_hints: tuple[HintSpec, ...]):
    """Raise ValueError for the first hint naming an unknown process or
    backtrack handler."""
    for spec in user_hints:
        for name in spec.do_not:
            if name not in PROCESS_NAMES:
                raise ValueError(f"hint references unknown process: {name}")
        if spec.backtrack is not None and spec.backtrack not in HANDLERS:
            raise ValueError(f"hint references unknown backtrack handler: {spec.backtrack}")


def goal_settings(
    goal_id: str, user_hints: tuple[HintSpec, ...], inherited: Optional[str], testing: bool
) -> HintSettings:
    """The first user hint whose goal id matches (empty settings if none);
    when it names no backtrack handler, the goal gets ``test-gen-checkpoint``
    if ``testing`` is on and its parent's handler ``inherited`` otherwise."""
    settings = EMPTY_SETTINGS
    for spec in user_hints:
        if spec.goal_id == goal_id:
            settings = HintSettings(frozenset(spec.do_not), spec.trials, spec.backtrack)
            break
    if settings.backtrack is None:
        settings = settings.replace(backtrack="test-gen-checkpoint" if testing else inherited)
    return settings


def goal_trials(goal, world) -> int:
    """The trials a goal's probe and checkpoint run: its hint's, else the world's."""
    return world.settings.trials if goal.settings.trials is None else goal.settings.trials


def test_gen_checkpoint(processor, children, goal, world, seed: int, history) -> BacktrackOutcome:
    """After a generalization, test the first child with a deterministic seed;
    a counterexample redoes the goal, which discards the children and
    disables generalization for it. Other processes are left alone."""
    if processor != "generalize" or not children:
        return BacktrackOutcome("keep")
    child = children[0]
    alist = history.probe_type_alist(goal.id, child, world)
    report = testgen.run_trials(child, alist, world, seed, goal_trials(goal, world), goal_id=goal.id)
    if report.falsified:
        return BacktrackOutcome("redo", note="generalization refuted by testing")
    return BacktrackOutcome("keep")


def _noop_handler(processor, children, goal, world, seed, history) -> BacktrackOutcome:
    return BacktrackOutcome("keep")


HANDLERS: dict[str, Callable] = {
    "test-gen-checkpoint": test_gen_checkpoint,
    "none": _noop_handler,
}


def apply_backtrack(
    handler_name: Optional[str], processor: str, children, goal, world, seed: int, history
) -> BacktrackOutcome:
    """Run the goal's backtrack handler, if any. Handler failures never abort
    a proof: they are treated as keep, with the error in the outcome's note,
    which ``run_waterfall`` adds to the proof's diagnostics."""
    if handler_name is None:
        return BacktrackOutcome("keep")
    try:
        return HANDLERS[handler_name](processor, children, goal, world, seed, history)
    except Exception as e:  # a broken handler must not kill the attempt
        return BacktrackOutcome("keep", note=f"backtrack handler error: {e}")
