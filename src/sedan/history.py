"""Testing-history genealogy: lift subgoal counterexamples back to the top goal.

Each node maps every parent variable to a term over the child's variables (or
to the don't-care marker when a variable was elided with no defining
expression), and carries the child's accumulated type restrictions so subgoals
never lose type information their ancestors had.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import testgen
from .clauses import clause_vars
from .datadef import Restriction, enumerate_value, print_restriction
from .evaluator import EvaluationError, evaluate
from .terms import Term, Var, print_term
from .values import NIL, Value

DONT_CARE = None  # marker inside variable maps

# values a lift with don't-care variables is re-checked under, besides nil
WILDCARD_PROBES = 3


@dataclass
class HistoryNode:
    goal_id: str
    parent_id: Optional[str]
    process: Optional[str]
    clause: list[Term]
    variable_map: dict[str, Optional[Term]] = field(default_factory=dict)
    type_map: dict[str, tuple[Restriction, ...]] = field(default_factory=dict)
    liftable: bool = True
    variables: list[str] = field(default_factory=list)  # clause_vars(clause), recorded once


@dataclass
class LiftOutcome:
    status: str  # "lifted" | "failed"
    binding: Optional[dict[str, Value]] = None
    reason: Optional[str] = None
    had_wildcards: bool = False
    wildcard_vars: tuple[str, ...] = ()  # top-level vars still carrying a pure don't-care


def merge_restrictions(own, inherited) -> tuple[Restriction, ...]:
    """Own restrictions first, then each inherited one not already listed;
    an inherited ``all`` adds nothing and is dropped."""
    out = list(own)
    for r in inherited:
        if r != "all" and r not in out:
            out.append(r)
    return tuple(out)


def merge_type_alists(variables, own, inherited) -> dict[str, tuple[Restriction, ...]]:
    """Per variable, own restrictions (bar ``all``) before inherited ones; a
    variable left with none maps to ``all``."""
    return {
        v: merge_restrictions([r for r in own.get(v, ()) if r != "all"], inherited.get(v, ())) or ("all",)
        for v in variables
    }


class History:
    def __init__(self):
        self.nodes: dict[str, HistoryNode] = {}
        self.order: list[str] = []

    def record_top(self, goal_id: str, clause: list[Term]):
        if goal_id in self.nodes:
            raise ValueError(f"duplicate goal id: {goal_id}")
        node = HistoryNode(goal_id, None, None, list(clause), variables=clause_vars(clause))
        self.nodes[goal_id] = node
        self.order.append(goal_id)

    def record_node(
        self,
        parent_id: str,
        goal_id: str,
        clause: list[Term],
        process: str,
        variable_map: dict[str, Optional[Term]],
        type_map: Optional[dict[str, tuple[Restriction, ...]]] = None,
        liftable: bool = True,
        world=None,
    ):
        """Store a child node; parent variables without an entry map to
        themselves when they survive and to the don't-care marker otherwise."""
        if goal_id in self.nodes:
            raise ValueError(f"duplicate goal id: {goal_id}")
        parent = self.nodes[parent_id]
        child_vars = clause_vars(clause)
        child_var_set = set(child_vars)
        full_map: dict[str, Optional[Term]] = {}
        for pv in parent.variables:
            if pv in variable_map:
                full_map[pv] = variable_map[pv]
            elif pv in child_var_set:
                full_map[pv] = Var(pv)
            else:
                full_map[pv] = DONT_CARE
        merged = self.merge_child_restrictions(parent_id, child_vars, full_map, type_map or {}, world)
        node = HistoryNode(goal_id, parent_id, process, list(clause), full_map, merged, liftable, child_vars)
        self.nodes[goal_id] = node
        self.order.append(goal_id)
        return node

    def merge_child_restrictions(
        self,
        parent_id: str,
        child_vars: list[str],
        variable_map: dict[str, Optional[Term]],
        process_typemap: dict[str, tuple[Restriction, ...]],
        world,
    ) -> dict[str, tuple[Restriction, ...]]:
        """Process-provided restrictions first, inherited parent restrictions after
        (datatype monotonicity for surviving variables). A process's ``all`` adds
        nothing and is dropped, so an unrestricted variable always maps to ()."""
        parent_acc = self.accumulated_type_alist(parent_id, world)
        survivors = {pv for pv, expr in variable_map.items() if expr == Var(pv)}
        return {
            cv: merge_restrictions(
                [r for r in process_typemap.get(cv, ()) if r != "all"],
                parent_acc.get(cv, ()) if cv in survivors else (),
            )
            for cv in child_vars
        }

    def accumulated_type_alist(self, goal_id: str, world) -> dict[str, tuple[Restriction, ...]]:
        """Own extracted restrictions first, inherited restrictions after."""
        node = self.nodes[goal_id]
        own = testgen.extract_restrictions(node.clause, world)
        return merge_type_alists(node.variables, own, node.type_map)

    def lift(
        self,
        goal_id: str,
        assignment: dict[str, Value],
        world,
        wildcard_value: Value = NIL,
    ) -> LiftOutcome:
        """Walk child-to-parent variable maps up to the top-level binding.

        Don't-care variables get ``wildcard_value`` (nil by default) and the
        outcome is flagged. Crossing a non-liftable edge fails."""
        node = self.nodes[goal_id]
        binding = dict(assignment)
        had_wildcards = False
        pure_wildcards: set[str] = set()  # vars whose value is a bare don't-care
        while node.parent_id is not None:
            if not node.liftable:
                return LiftOutcome("failed", reason=f"non-liftable {node.process} edge at {node.goal_id}")
            parent_binding: dict[str, Value] = {}
            parent_wild: set[str] = set()
            for pv, expr in node.variable_map.items():
                if expr is DONT_CARE:
                    parent_binding[pv] = wildcard_value
                    parent_wild.add(pv)
                    had_wildcards = True
                else:
                    if isinstance(expr, Var) and expr.name in pure_wildcards:
                        parent_wild.add(pv)
                    try:
                        parent_binding[pv] = evaluate(expr, binding, world)
                    except EvaluationError as e:
                        return LiftOutcome("failed", reason=f"evaluation error in variable map: {e}")
            binding = parent_binding
            pure_wildcards = parent_wild
            node = self.nodes[node.parent_id]
        top_vars = node.variables
        missing = [v for v in top_vars if v not in binding]
        if missing:
            return LiftOutcome("failed", reason=f"lift lost top-level variables: {missing}")
        return LiftOutcome(
            "lifted",
            {v: binding[v] for v in top_vars},
            had_wildcards=had_wildcards,
            wildcard_vars=tuple(v for v in top_vars if v in pure_wildcards),
        )

    def wildcard_probe_values(self, world) -> list[Value]:
        """Alternative instantiations for don't-care variables in lift checks.

        Skips nil (the default instantiation) so each probe is informative."""
        out: list[Value] = []
        i = 1
        while len(out) < WILDCARD_PROBES:
            v = enumerate_value(world, "all", i)
            if v != NIL and v not in out:
                out.append(v)
            i += 1
        return out

    def to_json(self) -> list[dict]:
        out = []
        for gid in self.order:
            node = self.nodes[gid]
            out.append(
                {
                    "goal": node.goal_id,
                    "parent": node.parent_id,
                    "process": node.process,
                    "liftable": node.liftable,
                    "variable_map": {
                        pv: (print_term(expr) if expr is not DONT_CARE else "?")
                        for pv, expr in node.variable_map.items()
                    },
                    "type_map": {
                        cv: [print_restriction(r) for r in rs] for cv, rs in node.type_map.items()
                    },
                }
            )
        return out

