"""The world: the evolving database of functions, rewrite rules, types, and settings.

Construction is a linear sequence of form admissions; during a proof attempt or
a testing run the world is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .datadef import AdmissionError, TypeTable, install_base_types
from .evaluator import arity_bounds, is_callable_name
from .subtypes import SubtypeGraph
from .terms import App, Term, Var, free_var_set


@dataclass(frozen=True)
class FunctionDef:
    name: str
    formals: tuple[str, ...]
    body: Term

    def is_native(self) -> bool:
        return False

    def arity_bounds(self):
        return (len(self.formals), len(self.formals))


@dataclass(frozen=True)
class NativeFunction:
    """A function implemented in the host language (type recognizers, enumerators)."""

    name: str
    arity: int
    fn: Callable  # fn(argv, world) -> Value

    def is_native(self) -> bool:
        return True

    def arity_bounds(self):
        return (self.arity, self.arity)


@dataclass(frozen=True)
class RewriteRule:
    """Conditional rewrite rule: under the hypotheses, lhs rewrites to rhs."""

    name: str
    hyps: tuple[Term, ...]
    lhs: Term
    rhs: Term


@dataclass
class Settings:
    depth_cap: int = 10_000
    evidence_trials: int = 1000
    max_rewrite_depth: int = 8
    max_rule_applications: int = 10_000
    max_goals_per_proof: int = 10_000  # global guard against looping rule sets


class World:
    def __init__(self):
        self.functions: dict[str, FunctionDef | NativeFunction] = {}
        self.rules: list[RewriteRule] = []
        self.rules_by_name: dict[str, RewriteRule] = {}
        # the rules on each left-hand side's function symbol, in admission order
        self.rules_by_head: dict[str, list[RewriteRule]] = {}
        self.settings = Settings()
        self.types = TypeTable()
        self.subtypes = SubtypeGraph()
        install_base_types(self)

    def check_term(self, term: Term, allow_vars=None, extra_fn: Optional[str] = None):
        """Well-formedness: every applied name is callable with a valid arity,
        and (when allow_vars is given) all variables are drawn from it."""
        stack = [term]
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                if allow_vars is not None and t.name not in allow_vars:
                    raise AdmissionError(f"unbound variable in body: {t.name}")
            elif isinstance(t, App):
                if not (is_callable_name(self, t.fn) or t.fn == extra_fn):
                    raise AdmissionError(f"unknown function: {t.fn}")
                bounds = arity_bounds(self, t.fn)
                if bounds is not None:
                    lo, hi = bounds
                    n = len(t.args)
                    if n < lo or (hi is not None and n > hi):
                        raise AdmissionError(f"{t.fn} applied to {n} argument(s), expects {lo}" + ("" if hi == lo else f"..{hi if hi is not None else '*'}"))
                elif t.fn == extra_fn:
                    # self-recursive call in a body being admitted: arity checked by caller
                    pass
                stack.extend(t.args)

    def define_function(self, name: str, formals: tuple[str, ...], body: Term):
        """Admit a defun. Self-recursion is allowed; no termination proof is
        attempted (the evaluator's depth cap guards execution)."""
        if is_callable_name(self, name):
            raise AdmissionError(f"redefinition of {name}")
        if len(set(formals)) != len(formals):
            raise AdmissionError(f"duplicate formal in {name}")
        self.check_term(body, allow_vars=set(formals), extra_fn=name)
        # arity of self-calls
        for t in self._walk_apps(body):
            if t.fn == name and len(t.args) != len(formals):
                raise AdmissionError(f"{name} called with {len(t.args)} argument(s) in its own body, expects {len(formals)}")
        self.functions[name] = FunctionDef(name, tuple(formals), body)

    def define_native(self, name: str, arity: int, fn: Callable):
        if is_callable_name(self, name):
            raise AdmissionError(f"redefinition of {name}")
        self.functions[name] = NativeFunction(name, arity, fn)

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
        self.rules.append(rule)
        self.rules_by_name[rule.name] = rule
        self.rules_by_head.setdefault(rule.lhs.fn, []).append(rule)

    @staticmethod
    def _walk_apps(term: Term):
        stack = [term]
        while stack:
            t = stack.pop()
            if isinstance(t, App):
                yield t
                stack.extend(t.args)
