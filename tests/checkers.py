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
from sedan.terms import Var
from sedan.values import truthy


def _clause_truth(literals, binding, world):
    for lit in literals:
        if truthy(evaluate(lit, binding, world)):
            return True
    return False


def check_entry_soundness(entry, world, bindings=200, seed=1234):
    """Returns a list of offending binding descriptions (empty = sound)."""
    rng = IndexSource(seed)
    parent_vars = clause_vars(entry.parent_clause)
    child_vars = sorted({v for cl in entry.child_clauses for v in clause_vars(cl)})
    offenders = []
    for _ in range(bindings):
        if entry.liftable:
            child_binding = {v: sample(world, "all", rng.draw()) for v in child_vars}
            parent_binding = {}
            for pv in parent_vars:
                expr = entry.variable_map.get(pv)
                if expr is None:
                    expr = Var(pv) if pv in child_vars else None
                if expr is None:
                    parent_binding[pv] = sample(world, "all", rng.draw())
                else:
                    try:
                        parent_binding[pv] = evaluate(expr, child_binding, world)
                    except EvaluationError:
                        parent_binding[pv] = sample(world, "all", rng.draw())
        else:
            # generalize: the parent instantiates the child through the reverse map
            parent_binding = {v: sample(world, "all", rng.draw()) for v in parent_vars}
            child_binding = {}
            for cv in child_vars:
                expr = entry.variable_map.get(cv, Var(cv) if cv in parent_vars else None)
                if expr is None:
                    child_binding[cv] = sample(world, "all", rng.draw())
                else:
                    try:
                        child_binding[cv] = evaluate(expr, parent_binding, world)
                    except EvaluationError:
                        child_binding[cv] = sample(world, "all", rng.draw())
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
