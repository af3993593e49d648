"""Terms of the conjecture language: variables, quoted constants, applications."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .values import NIL, T, Char, Symbol, Value, print_value


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Quote:
    value: Value

    def __repr__(self):
        return print_term(self)


@dataclass(frozen=True)
class App:
    fn: str
    args: Tuple["Term", ...]

    def __repr__(self):
        return print_term(self)


Term = Var | Quote | App

QT = Quote(T)
QNIL = Quote(NIL)


def app(fn: str, *args: Term) -> App:
    return App(fn, tuple(args))


def free_vars(term: Term) -> list[str]:
    """Variable names in first-occurrence order (quoted data has none)."""
    seen: dict[str, None] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            seen.setdefault(t.name, None)
        elif isinstance(t, App):
            stack.extend(reversed(t.args))
    return list(seen)


def free_var_set(term: Term) -> set[str]:
    return set(free_vars(term))


def subst_vars(term: Term, mapping: dict[str, Term]) -> Term:
    """Replace variables by terms throughout."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, App):
        new_args = tuple(subst_vars(a, mapping) for a in term.args)
        if new_args == term.args:
            return term
        return App(term.fn, new_args)
    return term


def replace_subterm(term: Term, target: Term, replacement: Term) -> Term:
    """Replace every occurrence of an entire subterm (never inside quotes)."""
    if term == target:
        return replacement
    if isinstance(term, App):
        new_args = tuple(replace_subterm(a, target, replacement) for a in term.args)
        if new_args == term.args:
            return term
        return App(term.fn, new_args)
    return term


def term_size(term: Term) -> int:
    if isinstance(term, App):
        return 1 + sum(term_size(a) for a in term.args)
    return 1


def subterms(term: Term):
    """Preorder traversal. Quotes are atomic."""
    yield term
    if isinstance(term, App):
        for a in term.args:
            yield from subterms(a)


def negate(term: Term) -> Term:
    if isinstance(term, App) and term.fn == "not" and len(term.args) == 1:
        return term.args[0]
    return app("not", term)


def is_negation(term: Term) -> bool:
    return isinstance(term, App) and term.fn == "not" and len(term.args) == 1


def _self_evaluating(v: Value) -> bool:
    # numbers, strings, characters, t, nil, and keyword symbols read back as
    # themselves, so they need no quote mark when printed in term position
    if isinstance(v, (int, Fraction, Char)) or isinstance(v, str):
        return True
    if isinstance(v, Symbol):
        return v in (T, NIL) or v.name.startswith(":")
    return False


def print_term(term: Term, upcase: bool = False) -> str:
    """Printed form of a term; ``upcase`` as for ``print_value``."""
    if isinstance(term, Var):
        return term.name.upper() if upcase else term.name
    if isinstance(term, Quote):
        if _self_evaluating(term.value):
            return print_value(term.value, upcase)
        return "'" + print_value(term.value, upcase)
    parts = [term.fn.upper() if upcase else term.fn] + [print_term(a, upcase) for a in term.args]
    return "(" + " ".join(parts) + ")"
