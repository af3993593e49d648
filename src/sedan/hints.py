"""Hint settings and the backtrack protocol.

``check_hints`` rejects a hint naming an unknown process or handler before
the waterfall starts. ``goal_settings`` is the one rule for what a goal gets
when the waterfall records it: a goal's settings are a ``forms.HintSpec``,
the first user hint naming the goal, or an empty one. Its do-not tuple and
its trial count come from that hint, which may name a backtrack handler; a
goal whose hint names none gets the testing handler when backtracking is on,
and otherwise the handler its parent had. ``goal_trials`` is the one rule for
how many trials a goal's tests run: its hint's count, else the world's. A
backtrack handler runs after a process succeeds and its children are
recorded, and answers keep or redo; on a redo the waterfall discards the step
and its children, appends the step's process to the goal's do-not tuple, and
hands the goal to the next process.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import testgen
from .forms import PROCESS_NAMES, HintSpec


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
) -> HintSpec:
    """The first user hint whose goal id matches, else ``HintSpec(goal_id)``;
    when it names no backtrack handler, the goal gets ``test-gen-checkpoint``
    if ``testing`` is on and its parent's handler ``inherited`` otherwise."""
    settings = next((spec for spec in user_hints if spec.goal_id == goal_id), HintSpec(goal_id))
    if settings.backtrack is None:
        settings = settings.replace(backtrack="test-gen-checkpoint" if testing else inherited)
    return settings


def goal_trials(goal, world) -> int:
    """The trials a goal's probe and checkpoint run: its hint's, else the world's."""
    return world.settings.trials if goal.settings.trials is None else goal.settings.trials


def test_gen_checkpoint(processor, children, goal, world, seed: int) -> BacktrackOutcome:
    """After a generalization, test its recorded child under the child's type
    alist, with a deterministic seed and the goal's trials; a counterexample
    redoes the goal, which discards the child and disables generalization for
    it. Other processes are left alone."""
    if processor != "generalize" or not children:
        return BacktrackOutcome("keep")
    child = children[0]
    report = testgen.run_trials(
        child.literals, child.type_alist(world), world, seed, goal_trials(goal, world), goal_id=goal.id
    )
    if report.falsified:
        return BacktrackOutcome("redo", note="generalization refuted by testing")
    return BacktrackOutcome("keep")


def _noop_handler(processor, children, goal, world, seed) -> BacktrackOutcome:
    return BacktrackOutcome("keep")


HANDLERS: dict[str, Callable] = {
    "test-gen-checkpoint": test_gen_checkpoint,
    "none": _noop_handler,
}


def apply_backtrack(handler_name: Optional[str], processor: str, children, goal, world, seed: int) -> BacktrackOutcome:
    """Run the goal's backtrack handler, if any, on the step's recorded
    children (``history.HistoryNode``s). Handler failures never abort
    a proof: they are treated as keep, with the error in the outcome's note,
    which ``run_waterfall`` adds to the proof's diagnostics."""
    if handler_name is None:
        return BacktrackOutcome("keep")
    try:
        return HANDLERS[handler_name](processor, children, goal, world, seed)
    except Exception as e:  # a broken handler must not kill the attempt
        return BacktrackOutcome("keep", note=f"backtrack handler error: {e}")
