"""Trial generation: extract type restrictions, instantiate variables, classify outcomes.

Hypotheses are always evaluated before the conclusion, so no trial passes
vacuously: a reported witness satisfies every hypothesis, and a reported
counterexample falsifies the whole conjecture. Satisfying assignments are
deduplicated by the tuple of their values in variable order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .clauses import clause_vars, split_implies
from .datadef import (
    Restriction,
    SingletonRestriction,
    TypeSelection,
    enumerate_value,
    minimal_type,
    recognize,
    sample,
)
from .evaluator import EvaluationError, evaluate
from .rand import IndexSource
from .terms import QNIL, App, Quote, Term, Var, is_negation, negate
from .values import Value, print_value, truthy

TypeAlist = dict[str, tuple[Restriction, ...]]
Binding = dict[str, Value]

# what a trial may raise: an evaluation error, or a value nested too deeply
# for a recursive recognizer
_TRIAL_ERRORS = (EvaluationError, RecursionError)


@dataclass
class TestReport:
    __test__ = False  # not a pytest class

    goal_id: Optional[str]
    type_alist: TypeAlist
    selections: dict[str, TypeSelection]
    trials_run: int = 0
    satisfied: int = 0
    unique_satisfied: int = 0
    counterexamples: list[Binding] = field(default_factory=list)
    witnesses: list[Binding] = field(default_factory=list)
    erroring: int = 0
    erroring_unique: int = 0
    first_error: Optional[str] = None
    seed: int = 0
    dist: str = "geometric"
    mode: str = "random"
    elapsed: float = 0.0

    @property
    def falsified(self) -> bool:
        return bool(self.counterexamples)


def extract_restrictions(literals: list[Term], world) -> TypeAlist:
    """Datatype and equality hypotheses become per-variable restriction lists.

    A hypothesis (recognizerp x) maps x to the recognizer's type; (equal x 'v)
    pins x to the singleton v. Unrestricted variables map to all.
    """
    alist: dict[str, list[Restriction]] = {v: [] for v in clause_vars(literals)}
    for lit in literals[:-1]:
        if not is_negation(lit):
            continue
        hyp = lit.args[0]
        if not isinstance(hyp, App):
            continue
        if len(hyp.args) == 1 and isinstance(hyp.args[0], Var):
            type_name = world.types.recognizer_index.get(hyp.fn)
            if type_name is not None:
                alist[hyp.args[0].name].append(type_name)
        elif hyp.fn == "equal" and len(hyp.args) == 2:
            a, b = hyp.args
            if isinstance(a, Var) and isinstance(b, Quote):
                alist[a.name].append(SingletonRestriction(b.value))
            elif isinstance(b, Var) and isinstance(a, Quote):
                alist[b.name].append(SingletonRestriction(a.value))
    return {v: tuple(rs) if rs else ("all",) for v, rs in alist.items()}


def print_binding(binding: Binding, var_order) -> str:
    """Canonical alist form."""
    parts = [f"({v} . {print_value(binding[v])})" for v in var_order if v in binding]
    return "(" + " ".join(parts) + ")"


def _var_plans(alist: TypeAlist, world):
    return {v: minimal_type(world, list(rs)) for v, rs in alist.items()}


def _passes_residuals(world, selection: TypeSelection, value: Value) -> bool:
    for r in selection.residuals:
        if isinstance(r, SingletonRestriction):
            if value != r.value:
                return False
        elif not recognize(world, r, value):
            return False
    return True


def _index_bound(world, selection: TypeSelection, exhaustive_bound: int) -> int:
    if isinstance(selection.primary, SingletonRestriction):
        return 1
    entry = world.types.entries[selection.primary]
    if entry.size is not None:
        return min(exhaustive_bound, entry.size)
    return exhaustive_bound


def _bind(plans, var_order, value_of):
    """One trial's binding, each non-singleton variable's value drawn by
    ``value_of(var, type)``, and the first error an enumerator raised (None if
    none did). Every variable is drawn even after an error, so each trial makes
    the same draws whether or not an enumerator fails."""
    binding, error = {}, None
    for v in var_order:
        primary = plans[v].primary
        if isinstance(primary, SingletonRestriction):
            binding[v] = primary.value
        else:
            try:
                binding[v] = value_of(v, primary)
            except _TRIAL_ERRORS as e:
                if error is None:
                    error = e
    return binding, error


def _exhaustive_assignments(world, plans, var_order, bounds, per_goal_cap: int):
    counters = [0] * len(var_order)
    for _ in range(min(math.prod(bounds), per_goal_cap)):
        index = dict(zip(var_order, counters))
        yield _bind(plans, var_order, lambda v, t: enumerate_value(world, t, index[v]))
        # odometer: last variable fastest
        for i in range(len(counters) - 1, -1, -1):
            counters[i] += 1
            if counters[i] < bounds[i]:
                break
            counters[i] = 0


def _random_assignments(world, plans, var_order, trials: int, dist: str, rng: IndexSource):
    def draw(v, t):
        return sample(world, t, rng, dist)

    for _ in range(trials):
        yield _bind(plans, var_order, draw)


def _erred(report: TestReport, e: BaseException):
    report.erroring += 1
    if report.first_error is None:
        report.first_error = str(e)


def run_trials(
    literals: list[Term],
    alist: TypeAlist,
    world,
    seed: int,
    trials: int,
    goal_id: Optional[str] = None,
) -> TestReport:
    """Instantiate, evaluate, and classify trials for one clause. Its
    hypotheses are the negations of every literal but the last, and its
    conclusion is the last literal (nil for the empty clause); variables come
    in ``clause_vars`` order. ``trials`` is the random-mode count; the mode,
    distribution and bounds come from ``world.settings``.

    Deterministic for a fixed seed: each trial draws one index per non-singleton
    variable in variable order, so the first k trials of a longer run match a
    k-trial run exactly.
    """
    hyps = [negate(lit) for lit in literals[:-1]]
    concl = literals[-1] if literals else QNIL
    var_order = clause_vars(literals)
    for v in var_order:
        if v not in alist:
            raise ValueError(f"type alist does not cover variable {v}")
    plans = _var_plans(alist, world)
    settings = world.settings

    mode = settings.mode
    if mode != "random":
        bounds = [_index_bound(world, plans[v], settings.exhaustive_bound) for v in var_order]
        if mode == "mixed":
            mode = "exhaustive" if math.prod(bounds) <= trials else "random"

    if mode == "exhaustive":
        assignments = _exhaustive_assignments(world, plans, var_order, bounds, settings.per_goal_cap)
    else:
        rng = IndexSource(seed, uniform_bound=settings.uniform_bound)
        assignments = _random_assignments(world, plans, var_order, trials, settings.dist, rng)

    report = TestReport(
        goal_id=goal_id,
        type_alist=alist,
        selections=plans,
        seed=seed,
        dist=settings.dist,
        mode=mode,
    )
    # one conjunction evaluates the hypotheses in order, stopping at the first
    # that fails, with the depth cap applying to each on its own
    hyp_term = App("and", tuple(hyps)) if hyps else None
    filtered = [(v, plans[v]) for v in var_order if plans[v].residuals]
    seen: dict[tuple, str] = {}  # binding values -> "cex" | "wit" | "err"
    started = time.perf_counter()
    for binding, error in assignments:
        report.trials_run += 1
        if error is not None:
            _erred(report, error)  # a custom enumerator failed to instantiate
            continue
        try:
            if filtered and not all(_passes_residuals(world, plan, binding[v]) for v, plan in filtered):
                continue
            ok = hyp_term is None or truthy(evaluate(hyp_term, binding, world))
        except _TRIAL_ERRORS as e:
            _erred(report, e)
            continue
        if not ok:
            continue  # vacuous: a hypothesis failed
        report.satisfied += 1
        key = tuple(binding[v] for v in var_order)
        if key in seen:
            if seen[key] == "err":
                report.erroring += 1  # erroring is counted per trial
            continue
        report.unique_satisfied += 1
        try:
            value = evaluate(concl, binding, world)
        except _TRIAL_ERRORS as e:
            _erred(report, e)
            report.erroring_unique += 1
            seen[key] = "err"
            continue
        if truthy(value):
            seen[key] = "wit"
            report.witnesses.append(dict(binding))
        else:
            seen[key] = "cex"
            report.counterexamples.append(dict(binding))
    report.elapsed = time.perf_counter() - started
    return report


def top_level_test(term: Term, world, seed: int) -> TestReport:
    """Test an unsimplified conjecture: extract restrictions, then run the
    world's number of trials."""
    hyps, concl = split_implies(term)
    clause = [negate(h) for h in hyps] + [concl]
    return run_trials(clause, extract_restrictions(clause, world), world, seed, world.settings.trials)
