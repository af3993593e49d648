"""Shared verification helpers: instance-wise process soundness checks.

For a kept process application, children must imply the parent at every
sampled point, where bindings travel through the recorded variable maps:
liftable edges derive the parent's binding from the child's (evaluating each
parent variable's expression), and generalize edges derive the child's
binding from the parent's via the reverse map. No sampled binding may satisfy
every child while falsifying the parent.
"""

from sedan.datadef import sample
from sedan.evaluator import EvaluationError, evaluate
from sedan.history import clause_vars
from sedan.rand import IndexSource
from sedan.reader import read_sexprs, sexpr_to_value
from sedan.terms import Var
from sedan.values import Cons, truthy


def _clause_truth(literals, binding, world):
    for lit in literals:
        if truthy(evaluate(lit, binding, world)):
            return True
    return False


def check_entry_soundness(entry, world, bindings=200, seed=1234):
    """Returns a list of offending binding descriptions (empty = sound)."""
    parent_vars = clause_vars(entry.parent_clause)
    child_vars = sorted({v for cl in entry.child_clauses for v in clause_vars(cl)})
    # a binding draws at most one index per variable of either clause
    draws = IndexSource(seed).draws(bindings * (len(parent_vars) + len(child_vars)))
    offenders = []
    for _ in range(bindings):
        if entry.liftable:
            child_binding = {v: sample(world, "all", next(draws)) for v in child_vars}
            parent_binding = {}
            for pv in parent_vars:
                expr = entry.variable_map.get(pv)
                if expr is None:
                    expr = Var(pv) if pv in child_vars else None
                if expr is None:
                    parent_binding[pv] = sample(world, "all", next(draws))
                else:
                    try:
                        parent_binding[pv] = evaluate(expr, child_binding, world)
                    except EvaluationError:
                        parent_binding[pv] = sample(world, "all", next(draws))
        else:
            # generalize: the parent instantiates the child through the reverse map
            parent_binding = {v: sample(world, "all", next(draws)) for v in parent_vars}
            child_binding = {}
            for cv in child_vars:
                expr = entry.variable_map.get(cv, Var(cv) if cv in parent_vars else None)
                if expr is None:
                    child_binding[cv] = sample(world, "all", next(draws))
                else:
                    try:
                        child_binding[cv] = evaluate(expr, parent_binding, world)
                    except EvaluationError:
                        child_binding[cv] = sample(world, "all", next(draws))
        try:
            children_true = all(
                _clause_truth(cl, child_binding, world) for cl in entry.child_clauses
            )
            parent_true = _clause_truth(entry.parent_clause, parent_binding, world)
        except EvaluationError:
            continue
        if children_true and not parent_true:
            offenders.append((entry.goal_id, entry.process, parent_binding))
    return offenders


def check_process_soundness(result, world, bindings=200, seed=1234):
    """Check every kept application in a proof result's log."""
    offenders = []
    for entry in result.process_log:
        if entry.outcome == "discarded":
            continue
        offenders.extend(check_entry_soundness(entry, world, bindings, seed))
    return offenders


def unfalsifying_counterexamples(proof, conjecture, world):
    """The top bindings of a structured proof report's counterexamples that do
    not falsify ``conjecture`` (empty = every one re-falsifies it)."""
    offenders = []
    for cex in proof["counterexamples"]:
        [alist] = read_sexprs(cex["top_binding"])
        pairs, binding = sexpr_to_value(alist), {}
        while isinstance(pairs, Cons):
            binding[pairs.car.car.name] = pairs.car.cdr
            pairs = pairs.cdr
        if truthy(evaluate(conjecture, binding, world)):
            offenders.append(cex["top_binding"])
    return offenders
