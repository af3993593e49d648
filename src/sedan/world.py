"""The world: the evolving database of functions, rewrite rules, types, and settings.

Construction is a linear sequence of form admissions; during a proof attempt or
a testing run the world is read-only.

``World.settings`` is the one record of every setting: testing parameters,
backtracking, and the evaluator's and simplifier's limits. It is frozen, so a
``set-testing`` form changes it in one update,
``world.settings = world.settings.replace(**updates)``, and a value outside
``SETTING_BOUNDS`` is a ``ValueError`` naming the field.

``World.functions`` is the one table for every callable name except the
special forms. A new world seeds it with the built-ins (``evaluator.BUILTINS``)
and then the base types (``datadef.install_base_types``, the one source of the
base recognizers such as ``natp``); data definitions add their recognizers
``Xp`` and enumerators ``nth-X`` as ``HostFunction`` records, whose
one-argument ``impl`` calls the type's generated function through the world's
namespace and holds no reference to the world; and each defun adds a
``FunctionDef``. No name is ever redefined.

``World.namespace`` holds the globals of the world's generated code: the
host functions and defun functions that ``evaluator`` emits calls to.
"""

from __future__ import annotations

from typing import Optional

from .datadef import AdmissionError, TypeTable, install_base_types
from .evaluator import BUILTINS, HostFunction, arity_admits, arity_bounds, arity_text, new_namespace
from .rand import DEFAULT_UNIFORM_BOUND
from .subtypes import SubtypeGraph
from .terms import App, Term, Var, free_var_set
from .values import Record


class FunctionDef(Record):
    __slots__ = ("name", "formals", "body")

    def __init__(self, name: str, formals: tuple[str, ...], body: Term):
        self._fill(name, formals, body)

    def arity_bounds(self):
        return (len(self.formals), len(self.formals))


class RewriteRule(Record):
    """Conditional rewrite rule: under the hypotheses, lhs rewrites to rhs."""

    __slots__ = ("name", "hyps", "lhs", "rhs")

    def __init__(self, name: str, hyps: tuple[Term, ...], lhs: Term, rhs: Term):
        self._fill(name, hyps, lhs, rhs)


# the values each setting accepts: an integer is the least one allowed and a
# tuple lists the allowed values. Settings, set-testing and the command line
# all check against this one table.
SETTING_BOUNDS = {
    "trials": 0,
    "mode": ("random", "exhaustive", "mixed"),
    "dist": ("geometric", "uniform"),
    "seed": 0,
    "exhaustive_bound": 0,
    "uniform_bound": 1,  # a uniform draw is below it
    "deterministic": (None, True, False),
    "backtrack": (True, False),
    "max_rewrite_depth": 0,
    "depth_cap": 0,
    "evidence_trials": 0,
}


def within_bound(value, bound) -> bool:
    if type(bound) is int:
        return type(value) is int and value >= bound
    return any(value is b or (type(b) is str and value == b) for b in bound)


def describe_bound(bound) -> str:
    if type(bound) is int:
        return f"a {('nonnegative', 'positive')[bound]} integer"
    return f"one of {bound}"


class Settings(Record):
    """Every setting, one field per entry of ``SETTING_BOUNDS``, in its order.
    A value out of its bound is a ``ValueError`` naming the field, whether
    the record is built or made by ``replace``."""

    __slots__ = tuple(SETTING_BOUNDS)

    def __init__(
        self,
        trials: int = 100,
        mode: str = "random",  # random | exhaustive | mixed
        dist: str = "geometric",  # geometric | uniform
        seed: int = 24,
        exhaustive_bound: int = 1000,
        uniform_bound: int = DEFAULT_UNIFORM_BOUND,
        deterministic: Optional[bool] = None,  # None: on for thm forms, off for test?
        backtrack: bool = True,  # goals without a handler hint get test-gen-checkpoint
        max_rewrite_depth: int = 8,
        depth_cap: int = 10_000,
        evidence_trials: int = 1000,
    ):
        self._fill(trials, mode, dist, seed, exhaustive_bound, uniform_bound, deterministic, backtrack,
                   max_rewrite_depth, depth_cap, evidence_trials)
        for name, bound in SETTING_BOUNDS.items():
            value = getattr(self, name)
            if not within_bound(value, bound):
                raise ValueError(f"setting {name} expects {describe_bound(bound)}, got {value!r}")


class World:
    def __init__(self, settings: Settings = Settings()):
        self.functions: dict[str, HostFunction | FunctionDef] = dict(BUILTINS)
        self.rules_by_name: dict[str, RewriteRule] = {}
        # the rules on each left-hand side's function symbol, in admission order
        self.rules_by_head: dict[str, list[RewriteRule]] = {}
        self.settings = settings
        self.namespace = new_namespace(self)  # the globals of its generated code
        self.types = TypeTable()
        self.subtypes = SubtypeGraph()
        install_base_types(self)

    def check_term(self, term: Term, allow_vars=None):
        """Well-formedness: every applied name is callable with a valid arity,
        and (when allow_vars is given) all variables are drawn from it."""
        stack = [term]
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                if allow_vars is not None and t.name not in allow_vars:
                    raise AdmissionError(f"unbound variable in body: {t.name}")
            elif isinstance(t, App):
                bounds = arity_bounds(self, t.fn)
                if bounds is None:
                    raise AdmissionError(f"unknown function: {t.fn}")
                if not arity_admits(*bounds, len(t.args)):
                    raise AdmissionError(f"{t.fn} applied to {len(t.args)} argument(s), expects {arity_text(*bounds)}")
                stack.extend(t.args)

    def define_function(self, name: str, formals: tuple[str, ...], body: Term):
        """Admit a defun. It enters the table before its body is checked, so a
        self-call resolves like any other call. No termination proof is
        attempted (the evaluator's depth cap guards execution)."""
        self.add_function(name, FunctionDef(name, tuple(formals), body))
        try:
            if len(set(formals)) != len(formals):
                raise AdmissionError(f"duplicate formal in {name}")
            self.check_term(body, allow_vars=set(formals))
        except AdmissionError:
            del self.functions[name]
            raise

    def add_function(self, name: str, fn: HostFunction | FunctionDef):
        if arity_bounds(self, name) is not None:
            raise AdmissionError(f"redefinition of {name}")
        self.functions[name] = fn

    def add_rule(self, rule: RewriteRule):
        if rule.name in self.rules_by_name:
            raise AdmissionError(f"duplicate rule name: {rule.name}")
        for t in (rule.lhs, rule.rhs, *rule.hyps):
            self.check_term(t)
        if not isinstance(rule.lhs, App):
            raise AdmissionError(f"rule {rule.name}: left-hand side must be a function application")
        lhs_vars = free_var_set(rule.lhs)
        if not free_var_set(rule.rhs) <= lhs_vars:
            raise AdmissionError(f"rule {rule.name}: right-hand side has variables not bound by the left-hand side")
        for h in rule.hyps:
            if not free_var_set(h) <= lhs_vars:
                raise AdmissionError(f"rule {rule.name}: hypothesis has variables not bound by the left-hand side")
        self.rules_by_name[rule.name] = rule
        self.rules_by_head.setdefault(rule.lhs.fn, []).append(rule)
