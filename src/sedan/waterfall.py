"""The waterfall: drive each goal through simplification, destructor
elimination, and generalization; pool untouched goals as checkpoints; test
every checkpoint and lift its counterexamples back to the top-level conjecture.

Pooled goals would be handed to induction in a full prover; here the pool is
never drained, so any pooled goal makes the attempt fail and the pooled goals
are exactly the checkpoints reported and tested.

The hints are checked once, before the first goal. A goal is its
``history.HistoryNode``, and its settings are its ``forms.HintSpec`` from
``hints.goal_settings``; a goal that clausification produced takes "Goal"'s
hint unless it has its own. Each process returns the step it takes as one
``ProcessLogEntry``, and ``_record_children`` records the children of every
step, clausification's too, before the goal's backtrack handler sees them.
The handler answers keep or redo; a redo discards the step, removes its
children from the history, appends its process to the goal's do-not tuple,
and hands the goal to the next process, so each process runs at most once per
goal.

A goal taken up spends a step of the attempt's budget of ``PROOF_STEPS``; a
"Goal" with more clauses than steps stays unsplit; a spent budget pools the rest.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .clauses import TooManyClauses, clause_vars, clausify
from .datadef import component_types
from .evaluator import EvaluationError, evaluate
from .forms import PROCESS_NAMES, HintSpec
from .hints import apply_backtrack, check_hints, goal_settings, goal_trials
from .history import WILDCARD_PROBES, History, HistoryNode
from .simplify import Budget, simplify_clause
from .terms import App, Term, Var, app, is_negation, replace_subterm, subst_vars, subterms, term_size
from .testgen import TestReport, run_trials
from .values import Value, truthy


class ProcessLogEntry:
    """One waterfall step. ``variable_map`` is the edge's map from parent
    variables to child terms, except for generalize, whose non-liftable edge
    keeps the reverse map (fresh variable -> replaced term); ``type_map``
    holds the restrictions destructor elimination gives its fresh variables."""

    def __init__(
        self,
        goal_id: str,
        process: str,
        outcome: str,  # "proved" | "children" | "discarded"
        child_ids: tuple[str, ...] = (),
        parent_clause: Optional[list[Term]] = None,
        child_clauses: Optional[list[list[Term]]] = None,
        variable_map: Optional[dict] = None,
        type_map: Optional[dict] = None,
        liftable: bool = True,
        note: Optional[str] = None,
    ):
        self.goal_id = goal_id
        self.process = process
        self.outcome = outcome
        self.child_ids = child_ids
        self.parent_clause = [] if parent_clause is None else parent_clause
        self.child_clauses = [] if child_clauses is None else child_clauses
        self.variable_map = {} if variable_map is None else variable_map
        self.type_map = {} if type_map is None else type_map
        self.liftable = liftable
        self.note = note


class LiftedCounterexample:
    def __init__(
        self,
        goal_id: str,
        subgoal_binding: dict[str, Value],
        top_binding: dict[str, Value],
        had_wildcards: bool = False,
        wildcard_vars: tuple[str, ...] = (),  # displayed as ? in reports
    ):
        self.goal_id = goal_id
        self.subgoal_binding = subgoal_binding
        self.top_binding = top_binding
        self.had_wildcards = had_wildcards
        self.wildcard_vars = wildcard_vars


class SubgoalCounterexample:
    def __init__(self, goal_id: str, binding: dict[str, Value], reason: str):
        self.goal_id = goal_id
        self.binding = binding
        self.reason = reason


class ProofResult:
    def __init__(self, status: str, top_term: Term, history: Optional[History] = None, seed: int = 0):
        self.status = status  # "proved" | "failed"
        self.top_term = top_term
        self.checkpoints: list[HistoryNode] = []
        self.checkpoint_reports: dict[str, TestReport] = {}
        self.counterexamples: list[LiftedCounterexample] = []
        self.subgoal_counterexamples: list[SubgoalCounterexample] = []
        self.spurious_lifts: list[SubgoalCounterexample] = []
        self.process_log: list[ProcessLogEntry] = []
        self.history = history
        self.seed = seed
        self.diagnostics: list[str] = []

    @property
    def falsified(self) -> bool:
        return bool(self.counterexamples)

    @property
    def discarded_generalizations(self) -> list[ProcessLogEntry]:
        return [e for e in self.process_log if e.outcome == "discarded"]


class FreshNames:
    def __init__(self, used):
        self.used = set(used)

    def fresh(self, root: str) -> str:
        root = root.rstrip("0123456789") or "v"
        i = 1
        while f"{root}{i}" in self.used:
            i += 1
        name = f"{root}{i}"
        self.used.add(name)
        return name


def _child_ids(parent_id: str, count: int) -> list[str]:
    if count == 1:
        return [parent_id + "'"]
    if parent_id == "Goal":
        return [f"Subgoal {i}" for i in range(1, count + 1)]
    return [f"{parent_id}.{i}" for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# the processes: each returns the step it takes on the goal, or None


def _simplify(goal: HistoryNode, world, budget: Budget, diagnostics: list[str]) -> Optional[ProcessLogEntry]:
    """Simplify's step, or None when it leaves the clause unchanged; then each
    of its diagnostics goes to ``diagnostics`` as "<goal>: <diagnostic>". Only
    a step with children has an edge to map, so only it logs the
    substitutions."""
    outcome = simplify_clause(goal.literals, world, budget)
    if outcome.status == "unchanged":
        diagnostics.extend(f"{goal.id}: {d}" for d in outcome.diagnostics)
        return None
    return ProcessLogEntry(
        goal.id, "simplify", outcome.status, parent_clause=goal.literals, child_clauses=outcome.children,
        variable_map=outcome.substitutions if outcome.status == "children" else None,
        note="; ".join(outcome.diagnostics) or None,
    )


def eliminate_destructors(goal: HistoryNode, world, history: History, fresh: FreshNames) -> Optional[ProcessLogEntry]:
    """Replace (car v)/(cdr v) by fresh variables and v by their cons.

    Applicable when a hypothesis (consp v) holds for a variable v and a
    destructor application of v occurs in the clause. Returns the step, whose
    type map gives the fresh variables the components' restrictions, or None.
    """
    lits = goal.literals
    for idx, lit in enumerate(lits[:-1]):
        if not (is_negation(lit) and isinstance(lit.args[0], App)):
            continue
        hyp = lit.args[0]
        if hyp.fn != "consp" or len(hyp.args) != 1 or not isinstance(hyp.args[0], Var):
            continue
        v = hyp.args[0]
        car_v, cdr_v = app("car", v), app("cdr", v)
        if not any(car_v == s or cdr_v == s for lit2 in lits for s in subterms(lit2)):
            continue
        v1, v2 = fresh.fresh(v.name), fresh.fresh(v.name)
        replacement = app("cons", Var(v1), Var(v2))
        new_lits = []
        for j, lit2 in enumerate(lits):
            if j == idx:
                continue  # the triggering (consp v) holds by construction
            out = replace_subterm(lit2, car_v, Var(v1))
            out = replace_subterm(out, cdr_v, Var(v2))
            out = subst_vars(out, {v.name: replacement})
            new_lits.append(out)
        acc = history.accumulated_type_alist(goal.id, world)
        car_r, cdr_r = component_types(world, acc.get(v.name, ()))
        return ProcessLogEntry(
            goal.id, "eliminate-destructors", "children", parent_clause=lits, child_clauses=[new_lits],
            variable_map={v.name: replacement}, type_map={v1: tuple(car_r), v2: tuple(cdr_r)},
        )
    return None


def generalize(goal: HistoryNode, fresh: FreshNames) -> Optional[ProcessLogEntry]:
    """Replace the largest repeated non-variable, non-quote subterm by a fresh
    variable everywhere. Returns the step, whose non-liftable edge keeps the
    reverse map (fresh variable -> replaced term), or None."""
    counts: dict[Term, int] = {}
    first_pos: dict[Term, int] = {}
    pos = 0
    for lit in goal.literals:
        for s in subterms(lit):
            if isinstance(s, App):
                counts[s] = counts.get(s, 0) + 1
                first_pos.setdefault(s, pos)
            pos += 1
    candidates = [t for t, c in counts.items() if c >= 2]
    if not candidates:
        return None
    target = min(candidates, key=lambda t: (-term_size(t), first_pos[t]))
    fresh_name = fresh.fresh("v")
    return ProcessLogEntry(
        goal.id, "generalize", "children", parent_clause=goal.literals,
        child_clauses=[[replace_subterm(lit, target, Var(fresh_name)) for lit in goal.literals]],
        variable_map={fresh_name: target}, liftable=False, note=f"{fresh_name} abstracts {target}",
    )


def _record_children(entry: ProcessLogEntry, history: History, world, hints, inherited, testing) -> list[HistoryNode]:
    """Record the step's children in the history, each with its settings
    (``inherited`` is the stepping goal's handler), set the entry's child
    ids, and return the children."""
    entry.child_ids = tuple(_child_ids(entry.goal_id, len(entry.child_clauses)))
    children = []
    for cid, cl in zip(entry.child_ids, entry.child_clauses):
        child = history.record_node(
            entry.goal_id, cid, cl, entry.process, entry.variable_map, entry.type_map, entry.liftable, world
        )
        child.settings = goal_settings(cid, hints, inherited, testing)
        children.append(child)
    return children


# ---------------------------------------------------------------------------
# the waterfall proper

# the steps of one proof attempt: a guard against looping rule sets and splits
PROOF_STEPS = 1000


def run_waterfall(top: Term, world, hints: tuple[HintSpec, ...], seed: int) -> ProofResult:
    """Prove ``top`` as far as the waterfall goes, testing with ``seed``. With
    ``world.settings.backtrack`` on, every goal whose hint names no backtrack
    handler gets the testing one."""
    check_hints(hints)
    history = History()
    fresh = FreshNames(clause_vars([top]))
    result = ProofResult("failed", top, history=history, seed=seed)
    testing = world.settings.backtrack

    budget = Budget(PROOF_STEPS)
    goal = history.record_top("Goal", [top])
    try:
        clauses = clausify(top, budget.left)
    except TooManyClauses:
        clauses = [[top]]
        result.diagnostics.append(f"Goal: more clauses than the proof budget of {PROOF_STEPS} steps; not split")
    agenda: deque[HistoryNode] = deque()
    if clauses == [[top]]:
        goal.settings = goal_settings("Goal", hints, None, testing)
        agenda.append(goal)
    elif not clauses:
        result.status = "proved"
        return result
    else:
        ids = _child_ids("Goal", len(clauses))
        # a clausified goal without a hint of its own takes "Goal"'s; the
        # first hint naming a goal wins, so its own still does
        hints = (
            *hints, *(spec.replace(goal_id=cid) for spec in hints if spec.goal_id == "Goal" for cid in ids)
        )
        entry = ProcessLogEntry("Goal", "clausify", "children", parent_clause=[top], child_clauses=clauses)
        result.process_log.append(entry)
        agenda.extend(_record_children(entry, history, world, hints, None, testing))
    pool: list[HistoryNode] = []

    while agenda:
        if not budget.spend():
            result.diagnostics.append(f"proof budget of {PROOF_STEPS} steps exhausted; remaining goals pooled unprocessed")
            pool.extend(agenda)
            break
        goal = agenda.popleft()
        for process in PROCESS_NAMES:
            if process in goal.settings.do_not:
                continue
            if process == "simplify":
                entry = _simplify(goal, world, budget, result.diagnostics)
            elif process == "eliminate-destructors":
                entry = eliminate_destructors(goal, world, history, fresh)
            else:
                entry = generalize(goal, fresh)
            if entry is None:
                continue
            result.process_log.append(entry)
            children = _record_children(entry, history, world, hints, goal.settings.backtrack, testing)
            outcome = apply_backtrack(goal.settings.backtrack, entry.process, children, goal, world, seed)
            if outcome.action != "redo":
                if outcome.note:
                    result.diagnostics.append(f"{goal.id}: {outcome.note}")
                agenda.extend(children)
                break
            # the processes before this one did not apply, and nothing they
            # read has changed, so the goal goes on to the next one
            for child in children:
                del history.nodes[child.id]
            entry.outcome, entry.note, entry.child_ids = "discarded", outcome.note, ()
            goal.settings = goal.settings.replace(do_not=(*goal.settings.do_not, entry.process))
        else:
            pool.append(goal)

    result.checkpoints = pool
    result.status = "proved" if not pool else "failed"

    for goal in pool:
        alist = history.accumulated_type_alist(goal.id, world)
        report = run_trials(goal.literals, alist, world, seed, goal_trials(goal, world), goal_id=goal.id)
        result.checkpoint_reports[goal.id] = report
        for binding in report.counterexamples:
            _classify_counterexample(result, history, goal, binding, top, world)
    return result


def _classify_counterexample(result: ProofResult, history: History, goal: HistoryNode, binding, top: Term, world):
    lift = history.lift(goal.id, binding, world)
    if lift.status == "failed":
        result.subgoal_counterexamples.append(SubgoalCounterexample(goal.id, binding, lift.reason))
        return
    reason = _spurious_reason(history, goal, binding, lift, top, world)
    if reason is not None:
        result.spurious_lifts.append(SubgoalCounterexample(goal.id, binding, reason))
        return
    result.counterexamples.append(
        LiftedCounterexample(
            goal.id, binding, lift.binding,
            had_wildcards=lift.had_wildcards, wildcard_vars=lift.wildcard_vars,
        )
    )


def _spurious_reason(history: History, goal: HistoryNode, binding, lift, top: Term, world) -> Optional[str]:
    """Why a lifted binding does not re-falsify ``top``, or None when it
    does. With don't-care variables it must falsify under each wildcard
    probe too, whatever the don't-cares are instantiated to."""
    try:
        if truthy(evaluate(top, lift.binding, world)):
            return "lifted binding does not falsify the top-level conjecture"
    except EvaluationError as e:
        return f"evaluation error at top level: {e}"
    if lift.had_wildcards:
        for probe in WILDCARD_PROBES:
            relift = history.lift(goal.id, binding, world, wildcard_value=probe)
            if relift.status != "lifted":
                return "wildcard probe failed to lift"
            try:
                if truthy(evaluate(top, relift.binding, world)):
                    return "wildcard instantiation no longer falsifies"
            except EvaluationError as e:
                return f"wildcard probe error: {e}"
    return None
