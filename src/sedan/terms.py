"""Terms of the conjecture language: variables, quoted constants, applications.

A term is immutable, equals a term of its own class with equal fields, and
hashes as the tuple of its fields; an App keeps its hash once worked out. The
``_compiled`` slot holds the term's generated function (``evaluator._code``)
and takes no part in equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .values import NIL, T, Char, Immutable, Symbol, Value, print_value


class Var(Immutable):
    __slots__ = ("name", "_compiled")

    def __init__(self, name: str):
        _set_name(self, name)

    def __eq__(self, other):
        if type(other) is Var:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return self.name


class Quote(Immutable):
    __slots__ = ("value", "_compiled")

    def __init__(self, value: Value):
        _set_value(self, value)

    def __eq__(self, other):
        if type(other) is Quote:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self):
        return print_term(self)


class App(Immutable):
    __slots__ = ("fn", "args", "_hash", "_compiled")

    def __init__(self, fn: str, args: Tuple["Term", ...]):
        _set_fn(self, fn)
        _set_args(self, args)
        _set_hash(self, None)

    def __eq__(self, other):
        if type(other) is App:
            return self.fn == other.fn and self.args == other.args
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:  # the first call hashes the arguments
            h = hash((self.fn, self.args))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return print_term(self)


# the slots' own setters, which __setattr__ does not go through
_set_name, _set_value = Var.name.__set__, Quote.value.__set__
_set_fn, _set_args, _set_hash = App.fn.__set__, App.args.__set__, App._hash.__set__

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
