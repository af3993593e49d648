"""The simplification process: ground evaluation, equality substitution,
conditional rewriting, propositional cleanup, and re-clausification, iterated
to a fixpoint. Each pass and each rule application spends a step of the
proof's ``Budget``, whose steps left cap the clauses a clause splits into.

The rewriting stage runs with or without rules: besides applying them, it is
what picks an ``if``'s branch once its test folds to a constant. Rule
hypotheses are relieved against the goal's other literals (assumed false, so
negated hypotheses are usable facts) or by recursive rewriting, bounded by
the backchain depth. Spending the budget, or nesting past the structure cap,
turns the rewriting stage off for the goal, with a diagnostic naming the cause.
"""

from __future__ import annotations

from typing import Optional

from .clauses import TooManyClauses, clausify
from .evaluator import EvaluationError, evaluate
from .terms import QNIL, QT, App, Quote, Term, Var, app, free_var_set, is_negation, subst_vars
from .values import truthy


class SimplifyOutcome:
    def __init__(
        self,
        status: str,  # "proved" | "unchanged" | "children"
        children: Optional[list[list[Term]]] = None,
        substitutions: Optional[dict[str, Term]] = None,
        diagnostics: Optional[list[str]] = None,
    ):
        self.status = status
        self.children = [] if children is None else children
        self.substitutions = {} if substitutions is None else substitutions
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.rule_applications = 0


class Budget:
    """The steps one proof attempt may take, and one simplify call's cuts."""

    def __init__(self, steps: int):
        self.left = steps
        self.exhausted = False
        self.depth_cut = self.nested = False

    def spend(self) -> bool:
        if self.left <= 0:
            self.exhausted = True
            return False
        self.left -= 1
        return True


def match(pattern: Term, term: Term, sigma: Optional[dict] = None) -> Optional[dict]:
    """Structural first-order match; repeated pattern variables must agree."""
    if sigma is None:
        sigma = {}
    if isinstance(pattern, Var):
        bound = sigma.get(pattern.name)
        if bound is None:
            sigma[pattern.name] = term
            return sigma
        return sigma if bound == term else None
    if isinstance(pattern, Quote):
        return sigma if pattern == term else None
    if isinstance(term, App) and isinstance(pattern, App):
        if pattern.fn != term.fn or len(pattern.args) != len(term.args):
            return None
        for p, t in zip(pattern.args, term.args):
            if match(p, t, sigma) is None:
                return None
        return sigma
    return None


def _is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, App):
        return all(_is_ground(a) for a in t.args)
    return True


def fold_ground(t: Term, world) -> Term:
    """Evaluate maximal variable-free subterms; an erroring subterm is left
    in place and its arguments are folded instead."""
    if not isinstance(t, App):
        return t
    if _is_ground(t):
        try:
            return Quote(evaluate(t, {}, world))
        except EvaluationError:
            pass
    new_args = tuple(fold_ground(a, world) for a in t.args)
    return t if new_args == t.args else App(t.fn, new_args)


class _Context:
    def __init__(self, assumed_true: frozenset, assumed_nil: frozenset):
        self.assumed_true = assumed_true  # terms known non-nil (from negated literals)
        self.assumed_nil = assumed_nil  # terms known nil (from positive literals)


def _context_for(literals: list[Term], skip: int) -> _Context:
    true_terms = []
    nil_terms = []
    for i, lit in enumerate(literals):
        if i == skip:
            continue
        if is_negation(lit):
            true_terms.append(lit.args[0])
        else:
            nil_terms.append(lit)
    return _Context(frozenset(true_terms), frozenset(nil_terms))


def _relieve(hyp: Term, world, ctx: _Context, budget: Budget, depth: int) -> bool:
    if hyp in ctx.assumed_true:
        return True
    if hyp in ctx.assumed_nil:
        return False
    if is_negation(hyp) and hyp.args[0] in ctx.assumed_nil:
        return True
    if _is_ground(hyp):
        try:
            return truthy(evaluate(hyp, {}, world))
        except EvaluationError:
            return False
    if depth >= world.settings.max_rewrite_depth:
        budget.depth_cut = True
        return False
    reduced = _rewrite(hyp, world, ctx, budget, depth + 1)
    return reduced == QT


_STRUCT_RECURSION_CAP = 300


def _rewrite(t: Term, world, ctx: _Context, budget: Budget, depth: int, srec: int = 0) -> Term:
    """Inside-out conditional rewriting with constant folding."""
    if not isinstance(t, App) or budget.exhausted or budget.nested:
        return t
    if srec > _STRUCT_RECURSION_CAP:
        budget.nested = True
        return t
    if t.fn == "if":
        # rewrite only the test; the branches stay lazy like evaluation
        test = _rewrite(t.args[0], world, ctx, budget, depth, srec + 1)
        if isinstance(test, Quote):
            branch = t.args[1] if truthy(test.value) else t.args[2]
            return _rewrite(branch, world, ctx, budget, depth, srec + 1)
        return t if test is t.args[0] else App("if", (test, t.args[1], t.args[2]))
    # an unchanged term stays the same object, and keeps its compiled code
    new_args = tuple([_rewrite(a, world, ctx, budget, depth, srec + 1) for a in t.args])
    if any(new is not old for new, old in zip(new_args, t.args)):
        t = App(t.fn, new_args)
    if _is_ground(t):
        try:
            return Quote(evaluate(t, {}, world))
        except EvaluationError:
            return t
    # match fails on a rule whose left-hand side has another function symbol
    for rule in world.rules_by_head.get(t.fn, ()):
        sigma = match(rule.lhs, t)
        if sigma is None:
            continue
        if not all(_relieve(subst_vars(h, sigma), world, ctx, budget, depth) for h in rule.hyps):
            continue
        if not budget.spend():
            return t
        return _rewrite(subst_vars(rule.rhs, sigma), world, ctx, budget, depth, srec + 1)
    return t


def _find_substitution(literals: list[Term]):
    """First hypothesis (not (equal A B)) where one side is a variable absent
    from the other side; returns (index, var, term)."""
    for i, lit in enumerate(literals[:-1]):
        if not is_negation(lit):
            continue
        hyp = lit.args[0]
        if not (isinstance(hyp, App) and hyp.fn == "equal" and len(hyp.args) == 2):
            continue
        a, b = hyp.args
        if isinstance(a, Var) and a.name not in free_var_set(b):
            return i, a.name, b
        if isinstance(b, Var) and b.name not in free_var_set(a):
            return i, b.name, a
    return None


def _cleanup(literals: list[Term]):
    """Returns (new literals, proved)."""
    out: list[Term] = []
    for lit in literals:
        # reflexive equalities
        if isinstance(lit, App) and lit.fn == "equal" and len(lit.args) == 2 and lit.args[0] == lit.args[1]:
            lit = QT
        if is_negation(lit):
            inner = lit.args[0]
            if isinstance(inner, App) and inner.fn == "equal" and len(inner.args) == 2 and inner.args[0] == inner.args[1]:
                lit = QNIL
            elif isinstance(inner, Quote):
                lit = QNIL if truthy(inner.value) else QT
        if isinstance(lit, Quote):
            if truthy(lit.value):
                return literals, True
            continue  # a false disjunct drops out
        if lit not in out:
            out.append(lit)
    for lit in out:
        if is_negation(lit) and lit.args[0] in out:
            return literals, True  # complementary pair
    return out, False


def simplify_clause(literals: list[Term], world, budget: Budget) -> SimplifyOutcome:
    """Run the staged simplifier on one clause, spending ``budget``."""
    budget.depth_cut = budget.nested = False
    start, passes = budget.left, 0
    lits = list(literals)
    substitutions: dict[str, Term] = {}
    diagnostics: list[str] = []
    out = None

    while budget.spend():
        passes += 1
        before = list(lits)

        lits = [fold_ground(lit, world) for lit in lits]

        found = _find_substitution(lits)
        if found is not None:
            idx, var, replacement = found
            del lits[idx]
            mapping = {var: replacement}
            lits = [subst_vars(lit, mapping) for lit in lits]
            substitutions = {k: subst_vars(v, mapping) for k, v in substitutions.items()}
            substitutions[var] = replacement

        if not budget.nested:
            rewritten = [_rewrite(lit, world, _context_for(lits, i), budget, 0) for i, lit in enumerate(lits)]
            if budget.exhausted:
                diagnostics.append("proof budget exhausted; rewriting disabled for this goal")
            elif budget.nested:
                diagnostics.append(f"rewriting nested past {_STRUCT_RECURSION_CAP} levels; rewriting disabled for this goal")
            else:
                lits = rewritten

        lits, proved = _cleanup(lits)
        if proved:
            out = SimplifyOutcome("proved", substitutions=substitutions, diagnostics=diagnostics)
            break

        # a literal that still carries connectives splits the clause
        try:
            new_clauses = clausify(lits[0] if len(lits) == 1 else app("or", *lits), budget.left)
        except TooManyClauses:
            new_clauses = [lits]
        if new_clauses != [lits]:
            out = SimplifyOutcome("children", children=new_clauses, substitutions=substitutions, diagnostics=diagnostics)
            break

        if lits == before:
            break

    if out is None:  # a fixpoint, or the budget spent
        if budget.depth_cut:
            diagnostics.append("rewrite backchain depth limit reached while relieving hypotheses")
        if not lits:
            lits = [QNIL]  # empty disjunction is false
        if lits == list(literals):
            out = SimplifyOutcome("unchanged", diagnostics=diagnostics)
        else:
            out = SimplifyOutcome("children", children=[lits], substitutions=substitutions, diagnostics=diagnostics)
    out.rule_applications = start - budget.left - passes
    return out
