"""Testing-history genealogy: lift subgoal counterexamples back to the top goal.

Each node maps every parent variable to a term over the child's variables (or
to the don't-care marker when a variable was elided with no defining
expression), and carries the restrictions the child inherits, so subgoals
never lose type information their ancestors had. A variable that a map term
reads but the child clause lacks (the cdr of an eliminated cons the clause no
longer mentions) is a don't-care too: any value falsifies the child. A goal's
path to the top is worked out once per goal (``History.lift_path``), with one
generated function that assigns the path's map terms edge by edge
(``evaluator.Chain``); a lift runs that function, and don't-cares get nil, or
one of ``WILDCARD_PROBES`` when the waterfall re-checks a lift. This module
alone forms a goal's type alist (``HistoryNode.type_alist``), by the rule
that a ``test?`` gets too, ``testgen.merge_restrictions``, for checkpoints
and for the probe of a generalization alike: the probe tests the child the
waterfall has recorded, and the waterfall removes that child again when the
probe refutes the step. A node is also the waterfall's goal: it
carries the goal's hint settings, which the waterfall sets when it records the
goal.
"""

from __future__ import annotations

from typing import Optional

from . import testgen
from .clauses import clause_vars
from .datadef import Restriction, print_restriction
# a lift runs its path's chain and calls no evaluate; that name stays here for
# perfbench's tracer, which spans it
from .evaluator import Chain, EvaluationError, evaluate, run_chain
from .terms import Term, Var, free_vars, print_term
from .testgen import merge_restrictions
from .values import NIL, Char, Cons, Record, Value

DONT_CARE = None  # marker inside variable maps; a Chain runs it as the wildcard

# values a lift with don't-care variables is re-checked under, besides nil:
# the first three distinct non-nil values of the type all
WILDCARD_PROBES = (Char("a"), "", Cons(0, 0))


class HistoryNode:
    def __init__(
        self,
        id: str,
        parent_id: Optional[str],
        process: Optional[str],
        literals: list[Term],
        variable_map: Optional[dict[str, Optional[Term]]] = None,
        type_map: Optional[dict[str, tuple[Restriction, ...]]] = None,
        liftable: bool = True,
        variables: Optional[list[str]] = None,
        unbound: tuple[str, ...] = (),
    ):
        self.id = id
        self.parent_id = parent_id
        self.process = process
        self.literals = literals
        self.variable_map = {} if variable_map is None else variable_map
        self.type_map = {} if type_map is None else type_map  # inherited restrictions
        self.liftable = liftable
        self.variables = [] if variables is None else variables  # clause_vars(clause), recorded once
        self.unbound = unbound  # variables the map's terms read that the clause lacks
        self.alist: Optional[dict[str, tuple[Restriction, ...]]] = None  # type_alist
        self.path: Optional[LiftPath] = None  # History.lift_path
        self.settings = None  # the goal's forms.HintSpec, set by the waterfall

    def type_alist(self, world) -> dict[str, tuple[Restriction, ...]]:
        """The goal's type alist: per variable, the clause's own restrictions
        first, then the inherited ones, merged by ``merge_restrictions``; a
        variable left with none maps to ``all``. Worked out on the first call
        and kept, since a history serves one proof and so one world; every
        caller reads the same dict."""
        if self.alist is None:
            own = testgen.extract_restrictions(self.literals, world)
            self.alist = {
                v: merge_restrictions(own.get(v, ()), self.type_map.get(v, ())) or ("all",) for v in self.variables
            }
        return self.alist


class LiftPath(Record):
    """What a lift from a goal does that depends on the goal alone: the chain
    of the edges up to the top, or up to the first non-liftable edge, bottom
    first, each as its unbound variables and its map items; that edge's
    failure; and, for a path that reaches the top, the flags every lift along
    it reports."""

    __slots__ = ("chain", "failure", "had_wildcards", "wildcard_vars")

    def __init__(self, chain: Chain, failure: Optional[str], had_wildcards: bool, wildcard_vars: tuple[str, ...]):
        self._fill(chain, failure, had_wildcards, wildcard_vars)


class LiftOutcome(Record):
    __slots__ = ("status", "binding", "reason", "had_wildcards", "wildcard_vars")

    def __init__(
        self,
        status: str,  # "lifted" | "failed"
        binding: Optional[dict[str, Value]] = None,
        reason: Optional[str] = None,
        had_wildcards: bool = False,
        wildcard_vars: tuple[str, ...] = (),  # top-level vars still carrying a pure don't-care
    ):
        self._fill(status, binding, reason, had_wildcards, wildcard_vars)


class History:
    def __init__(self):
        self.nodes: dict[str, HistoryNode] = {}

    @property
    def order(self) -> list[str]:
        """Goal ids in the order they were recorded."""
        return list(self.nodes)

    def record_top(self, goal_id: str, clause: list[Term]) -> HistoryNode:
        if goal_id in self.nodes:
            raise ValueError(f"duplicate goal id: {goal_id}")
        node = self.nodes[goal_id] = HistoryNode(goal_id, None, None, list(clause), variables=clause_vars(clause))
        return node

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
    ) -> HistoryNode:
        """Store and return a child node; parent variables without an entry
        map to themselves when they survive and to the don't-care marker
        otherwise. The child inherits the step's ``type_map`` restrictions
        first, then its parent's type alist for each variable that survives
        by name."""
        if goal_id in self.nodes:
            raise ValueError(f"duplicate goal id: {goal_id}")
        parent = self.nodes[parent_id]
        parent_alist = self.accumulated_type_alist(parent_id, world)
        type_map = type_map or {}
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
        inherited = {
            cv: merge_restrictions(type_map.get(cv, ()), parent_alist[cv] if full_map.get(cv) == Var(cv) else ())
            for cv in child_vars
        }
        read = (v for expr in full_map.values() if expr is not DONT_CARE for v in free_vars(expr))
        unbound = tuple(dict.fromkeys(v for v in read if v not in child_var_set))
        node = self.nodes[goal_id] = HistoryNode(
            goal_id, parent_id, process, list(clause), full_map, inherited, liftable, child_vars, unbound
        )
        return node

    def accumulated_type_alist(self, goal_id: str, world) -> dict[str, tuple[Restriction, ...]]:
        """The recorded goal's type alist (``HistoryNode.type_alist``)."""
        return self.nodes[goal_id].type_alist(world)

    def lift_path(self, goal_id: str) -> LiftPath:
        """The goal's ``LiftPath``, worked out on its first lift and kept."""
        start = node = self.nodes[goal_id]
        if start.path is None:
            edges, pure, had_wildcards = [], [], False  # pure: vars whose value is a bare don't-care
            while node.parent_id is not None and node.liftable:
                wild = {*pure, *node.unbound}
                items = tuple(node.variable_map.items())
                pure = [pv for pv, expr in items if expr is DONT_CARE or (isinstance(expr, Var) and expr.name in wild)]
                had_wildcards = had_wildcards or bool(node.unbound) or any(expr is DONT_CARE for _, expr in items)
                edges.append((node.unbound, items))
                node = self.nodes[node.parent_id]
            failure = None if node.liftable else f"non-liftable {node.process} edge at {node.id}"
            start.path = LiftPath(Chain(tuple(edges)), failure, had_wildcards, tuple(pure))
        return start.path

    def lift(self, goal_id: str, assignment: dict[str, Value], world, wildcard_value: Value = NIL) -> LiftOutcome:
        """Run the goal's path from ``assignment`` up to the top-level binding,
        as its chain: one generated function that evaluates each edge's map
        terms in turn. Don't-care variables, and the variables a map term
        reads that its child clause lacks, get ``wildcard_value`` (nil by
        default). A path cut by a non-liftable edge fails, unless an edge
        below that one fails to evaluate first."""
        path = self.lift_path(goal_id)
        try:
            binding = run_chain(world, path.chain, assignment, wildcard_value)
        except EvaluationError as e:
            return LiftOutcome("failed", reason=f"evaluation error in variable map: {e}")
        if path.failure is not None:
            return LiftOutcome("failed", reason=path.failure)
        return LiftOutcome("lifted", binding, had_wildcards=path.had_wildcards, wildcard_vars=path.wildcard_vars)

    def to_json(self) -> list[dict]:
        out = []
        for node in self.nodes.values():
            out.append(
                {
                    "goal": node.id,
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
