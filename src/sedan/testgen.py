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

A clause's trials run in one generated function (``evaluator.trial_loop``):
each variable is a local, a singleton a constant, and the conjunction and the
conclusion are inlined, so a trial makes no ``evaluate`` call. Generated
code raises the depth cap's error itself, and a trial that overflows the
Python stack errs once, with the overflow's ``EvaluationError``.
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
# no trial calls evaluate; the name stays here for perfbench's tracer
from .evaluator import evaluate, trial_loop
from .rand import IndexSource
from .terms import QNIL, App, Quote, Term, Var, is_negation, negate
from .values import Value, print_value

TypeAlist = dict[str, tuple[Restriction, ...]]
Binding = dict[str, Value]

# the most index tuples whose outcomes one run_trials call remembers
OUTCOME_MEMO_CAPACITY = 1 << 16


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
    restrictions, in variable order, and then the hypotheses. The clause's
    trials run in one generated function (``evaluator.trial_loop``), which
    holds each variable in a local and inlines the conjunction and the
    conclusion; a test past the depth cap raises there, and a trial that
    overflows the Python stack errs there too. Decoders,
    recognizers and evaluation are deterministic, so a trial's outcome is a
    function of its tuple; a tuple seen before adds its remembered outcome to
    the counts without being decoded or evaluated again. The memo holds at most ``OUTCOME_MEMO_CAPACITY`` tuples; past that,
    new tuples run in full. A new tuple takes each value from its type's
    decoded values, shared by the variables of that type and filled in every
    mode, and decodes through ``sample`` only an index not decoded before;
    these hold at most ``OUTCOME_MEMO_CAPACITY`` values in all, and a decode
    that raised is not kept.

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
    pinned: Binding = {}  # each singleton variable's value
    drawn = []  # (variable, type) for each index of a trial's tuple
    for v in var_order:
        primary = plans[v].primary
        if isinstance(primary, SingletonRestriction):
            pinned[v] = primary.value
        else:
            drawn.append((v, primary))
    width = len(drawn)

    mode = settings.mode
    if mode != "random":
        bounds = [_index_bound(world, plans[v], settings.exhaustive_bound) for v, _ in drawn]
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
    elif width:
        rng = IndexSource(seed, settings.dist, settings.uniform_bound)
        # no draw is -1, so this is the next trials * width draws
        tuples = zip(*[islice(iter(rng.draw, -1), trials * width)] * width)
    else:
        tuples = repeat((), trials)

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
    loop = trial_loop(world, var_order, drawn, pinned, hyp_term, concl)
    decoded = [{} for _ in dict.fromkeys(t for _, t in drawn)]  # per type, index -> value
    started = time.perf_counter()
    loop(tuples, {}, capacity, room, sample, world, report, settings.depth_cap, *decoded)
    report.elapsed = time.perf_counter() - started
    return report


def top_level_test(term: Term, world, seed: int) -> TestReport:
    """Test an unsimplified conjecture: extract restrictions, then run the
    world's number of trials."""
    hyps, concl = split_implies(term)
    clause = [negate(h) for h in hyps] + [concl]
    return run_trials(clause, extract_restrictions(clause, world), world, seed, world.settings.trials)
