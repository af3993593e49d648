"""Testing-history genealogy: lift subgoal counterexamples back to the top goal.

Each node maps every parent variable to a term over the child's variables (or
to the don't-care marker when a variable was elided with no defining
expression), and carries the restrictions the child inherits, so subgoals
never lose type information their ancestors had. A variable that a map term
reads but the child clause lacks (the cdr of an eliminated cons the clause no
longer mentions) is a don't-care too: any value falsifies the child. A goal's
path to the top is worked out once per goal (``History.lift_path``). A lift
takes all of a checkpoint's counterexamples at once and runs one generated
function (``evaluator.chain_function``) that, per binding, assigns the
path's map terms edge by edge and re-checks the top conjecture on the
result; a binding whose lift crossed a don't-care (nil) must falsify the top
under each of ``WILDCARD_PROBES`` too. This module
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
from .evaluator import chain_function, evaluate
from .terms import Term, Var, free_vars, print_term
from .testgen import merge_restrictions
from .values import NIL, Char, Cons, Record, Value

DONT_CARE = None  # marker inside variable maps; a chain runs it as the wildcard

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
    """What a lift from a goal does that depends on the goal alone: the
    steps of its chain (``evaluator.chain_function``), the edges up to the
    top, or up to the first non-liftable edge, bottom first, each as its
    unbound variables and its map items; that edge's failure; and, for a path
    that reaches the top, the flags every lift along it reports."""

    __slots__ = ("steps", "failure", "had_wildcards", "wildcard_vars")

    def __init__(self, steps: tuple, failure: Optional[str], had_wildcards: bool, wildcard_vars: tuple[str, ...]):
        self._fill(steps, failure, had_wildcards, wildcard_vars)


class Lift(Record):
    """A goal's lift of a batch of bindings: one outcome per binding, in
    order, as a tuple (status, top-level binding, reason); "lifted" when one
    binding lifts; and the path's flags. A binding's status is "lifted",
    with no reason, when its top-level binding falsifies the top conjecture
    (under every wildcard probe too); "spurious" when it does not; "failed",
    with no binding, when the path gives none. An outcome is a tuple, not a
    ``Record``, since a lift makes one per counterexample."""

    __slots__ = ("status", "outcomes", "had_wildcards", "wildcard_vars")

    def __init__(
        self,
        status: str,  # "lifted" | "failed"
        outcomes: list[tuple[str, Optional[dict[str, Value]], Optional[str]]],
        had_wildcards: bool = False,
        wildcard_vars: tuple[str, ...] = (),  # top-level vars still carrying a pure don't-care
    ):
        self._fill(status, outcomes, had_wildcards, wildcard_vars)


# per kind of a chain's row that does not lift: the outcome of a binding's
# lift, as a status and a reason, and the reason a wildcard probe's row of
# that kind demotes it with; a reason with {} takes the row's error
_DEMOTIONS = {
    "failed": ("failed", "evaluation error in variable map: {}", "wildcard probe failed to lift"),
    "raised": ("spurious", "evaluation error at top level: {}", "wildcard probe error: {}"),
    "holds": ("spurious", "lifted binding does not falsify the top-level conjecture",
              "wildcard instantiation no longer falsifies"),
}


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
            start.path = LiftPath(tuple(edges), failure, had_wildcards, tuple(pure))
        return start.path

    def lift(
        self, goal_id: str, bindings: list[dict[str, Value]], world, top: Term, wildcard_value: Value = NIL
    ) -> Lift:
        """Lift each binding of the goal's variables to the top and re-check
        ``top`` on it, as one chain: one generated function that evaluates
        each edge's map terms in turn for every binding, then tests ``top``.
        Don't-care variables, and the variables a map term reads that its
        child clause lacks, get ``wildcard_value`` (nil by default). A
        binding whose lift falsifies ``top`` stays lifted only if it does
        under each of ``WILDCARD_PROBES`` too, when the path has don't-cares:
        the function runs again per probe over the bindings still standing.
        A path cut by a non-liftable edge fails, unless an edge below that
        one fails to evaluate first."""
        path = self.lift_path(goal_id)
        run = chain_function(world, path.steps, top if path.failure is None else None)
        cap = world.settings.depth_cap
        outcomes = run(bindings, wildcard_value, world, cap)  # a lifted row is its outcome
        for i, (kind, binding, error) in enumerate(outcomes):
            if kind == "failed" and error is None:
                outcomes[i] = ("failed", None, path.failure)
            elif kind != "lifted":
                status, reason, _ = _DEMOTIONS[kind]
                outcomes[i] = (status, binding, reason.format(error))
        standing = [i for i, outcome in enumerate(outcomes) if outcome[0] == "lifted"]
        for probe in WILDCARD_PROBES if path.had_wildcards else ():
            rows = run([bindings[i] for i in standing], probe, world, cap)
            for i, (kind, _, error) in zip(standing, rows):
                if kind != "lifted":
                    outcomes[i] = ("spurious", outcomes[i][1], _DEMOTIONS[kind][2].format(error))
            standing = [i for i in standing if outcomes[i][0] == "lifted"]
        return Lift("lifted" if standing else "failed", outcomes, path.had_wildcards, path.wildcard_vars)

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
