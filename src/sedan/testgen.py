"""Trial generation: extract type restrictions, instantiate variables, classify outcomes.

Hypotheses are always evaluated before the conclusion, so no trial passes
vacuously: a reported witness satisfies every hypothesis, and a reported
counterexample falsifies the whole conjecture.

A trial is a tuple of enumerator indices, one per non-singleton variable.
Repeats are common, since geometric draws favour small indices, so a bounded
memo keeps each tuple's outcome and a repeat only counts it. A new tuple
mostly draws indices seen before, so each type's decoded values are kept by
index too, shared by its variables, and a run decodes each (type, index) once.
Two tuples may still decode to the same values, and reports count by value:
satisfying assignments are deduplicated by the tuple of their values in
variable order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice, product, repeat
from typing import Optional

from .clauses import clause_vars, split_implies
from .datadef import (
    Restriction,
    SingletonRestriction,
    TypeSelection,
    minimal_type,
    # trials call recognizers in their conjunction, not through recognize;
    # the name stays here for perfbench's tracer, which spans it
    recognize,
    recognizer_name,
    sample,
)
from .evaluator import EvaluationError, evaluate
from .rand import IndexSource
from .terms import QNIL, App, Quote, Term, Var, is_negation, negate
from .values import Value, print_value, truthy

TypeAlist = dict[str, tuple[Restriction, ...]]
Binding = dict[str, Value]

# what a trial may raise
_TRIAL_ERRORS = EvaluationError

# the most index tuples whose outcomes one run_trials call remembers
OUTCOME_MEMO_CAPACITY = 1 << 16

# a trial's outcome: what it adds to the (satisfied, erroring) counts
_VACUOUS, _ERRED, _SATISFIED, _SATISFIED_ERRED = (0, 0), (0, 1), (1, 0), (1, 1)


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


def _residual_checks(world, plans: dict[str, TypeSelection], var_order) -> list[Term]:
    """Each variable's residual restrictions, in variable order, as terms: a
    singleton is an equality with its value, a type a call of its recognizer."""
    return [
        App("equal", (Var(v), Quote(r.value))) if isinstance(r, SingletonRestriction)
        else App(recognizer_name(world, r), (Var(v),))
        for v in var_order
        for r in plans[v].residuals
    ]


def _index_bound(world, selection: TypeSelection, exhaustive_bound: int) -> int:
    entry = world.types.entries[selection.primary]
    if entry.size is not None:
        return min(exhaustive_bound, entry.size)
    return exhaustive_bound


def _satisfied(report: TestReport, seen: dict, binding: Binding, concl: Term, world) -> tuple[int, int]:
    """Classify a binding that satisfies every hypothesis by the conclusion,
    once per distinct tuple of values (the binding holds the variables in
    clause order); returns the trial's outcome."""
    key = tuple(binding.values())
    verdict = seen.get(key)
    if verdict is None:
        report.unique_satisfied += 1
        try:
            value = evaluate(concl, binding, world)
        except _TRIAL_ERRORS as e:
            report.erroring_unique += 1
            if report.first_error is None:
                report.first_error = str(e)
            verdict = "err"
        else:
            verdict = "wit" if truthy(value) else "cex"
            (report.witnesses if verdict == "wit" else report.counterexamples).append(binding)
        seen[key] = verdict
    return _SATISFIED_ERRED if verdict == "err" else _SATISFIED


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
    in ``clause_vars`` order. ``trials`` bounds the trials in every mode; the
    mode, distribution and bounds come from ``world.settings``.

    A trial is a tuple of indices, one per non-singleton variable in variable
    order: the next draws of a seeded ``IndexSource`` in random mode, the next
    position of an odometer in exhaustive mode. One conjunction decides
    whether a trial satisfies the hypotheses: each variable's residual
    restrictions, in variable order, and then the hypotheses. Decoders,
    recognizers and evaluation are deterministic, so a trial's outcome is a
    function of its tuple; a tuple seen before adds its remembered outcome to
    the counts without being decoded or evaluated again. The memo holds at most
    ``OUTCOME_MEMO_CAPACITY`` tuples; past that, new tuples run in full.
    A new tuple takes each value from its type's decoded values, shared by the
    variables of that type and filled in every mode, and decodes only an index
    not decoded before; these hold at most ``OUTCOME_MEMO_CAPACITY`` values in
    all, and a decode that raised is not kept.

    Deterministic for a fixed seed, and the first k trials of a longer run
    match a k-trial run exactly.
    """
    hyps = [negate(lit) for lit in literals[:-1]]
    concl = literals[-1] if literals else QNIL
    var_order = clause_vars(literals)
    for v in var_order:
        if v not in alist:
            raise ValueError(f"type alist does not cover variable {v}")
    plans = _var_plans(alist, world)
    settings = world.settings
    # every binding starts as a copy of the template, which holds each
    # singleton variable's value, and gets the other variables decoded
    template: Binding = {}
    decoded: dict[str, dict[int, Value]] = {}  # per type, index -> value, shared by its variables
    drawn = []  # (variable, type, its decoded values) for each index of a trial's tuple
    for v in var_order:
        primary = plans[v].primary
        if isinstance(primary, SingletonRestriction):
            template[v] = primary.value
        else:
            template[v] = None
            drawn.append((v, primary, decoded.setdefault(primary, {})))
    width = len(drawn)

    mode = settings.mode
    if mode != "random":
        bounds = [_index_bound(world, plans[v], settings.exhaustive_bound) for v, _, _ in drawn]
        if mode == "mixed":
            mode = "exhaustive" if math.prod(bounds) <= trials else "random"
    # the decoded values, and the outcomes outside exhaustive mode, each
    # remember at most this many entries
    room = capacity = OUTCOME_MEMO_CAPACITY
    if mode == "exhaustive":
        # the odometer, last variable fastest, never repeats a tuple, but it
        # repeats each variable's indices
        tuples = islice(product(*map(range, bounds)), trials)
        capacity = 0
    else:
        rng = IndexSource(seed, settings.dist, settings.uniform_bound)
        draws = (rng.draw() for _ in range(trials * width))
        tuples = zip(*[draws] * width) if width else repeat((), trials)

    report = TestReport(
        goal_id=goal_id,
        type_alist=alist,
        selections=plans,
        seed=seed,
        dist=settings.dist,
        mode=mode,
    )
    # one conjunction evaluates the residual checks and then the hypotheses in
    # order, stopping at the first that fails, with the depth cap applying to
    # each on its own
    checks = _residual_checks(world, plans, var_order) + hyps
    hyp_term = App("and", tuple(checks)) if checks else None
    seen: dict[tuple, str] = {}  # binding values -> "cex" | "wit" | "err"
    memo: dict[tuple, tuple[int, int]] = {}  # index tuple -> outcome
    trials_run = satisfied = erroring = 0
    started = time.perf_counter()
    for indices in tuples:
        trials_run += 1
        outcome = memo.get(indices)
        if outcome is None:
            binding = template.copy()
            try:
                for (v, t, values), i in zip(drawn, indices):
                    value = values.get(i)  # no value is None
                    if value is None:
                        value = sample(world, t, i)
                        if room:
                            values[i] = value
                            room -= 1
                    binding[v] = value
                ok = hyp_term is None or truthy(evaluate(hyp_term, binding, world))
            except _TRIAL_ERRORS as e:
                # a custom enumerator or recognizer, or a hypothesis, raised
                if report.first_error is None:
                    report.first_error = str(e)
                outcome = _ERRED
            else:
                outcome = _satisfied(report, seen, binding, concl, world) if ok else _VACUOUS
            if len(memo) < capacity:
                memo[indices] = outcome
        satisfied += outcome[0]
        erroring += outcome[1]
    report.elapsed = time.perf_counter() - started
    report.trials_run, report.satisfied, report.erroring = trials_run, satisfied, erroring
    return report


def top_level_test(term: Term, world, seed: int) -> TestReport:
    """Test an unsimplified conjecture: extract restrictions, then run the
    world's number of trials."""
    hyps, concl = split_implies(term)
    clause = [negate(h) for h in hyps] + [concl]
    return run_trials(clause, extract_restrictions(clause, world), world, seed, world.settings.trials)
