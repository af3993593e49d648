"""The value universe: exact rationals, symbols, characters, strings, and pairs.

Integers are plain Python ints; non-integer rationals are ``fractions.Fraction``
(always lowest terms, positive denominator). ``nil`` doubles as the empty list
and logical false; every other value is logically true.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@dataclass(frozen=True)
class Symbol:
    """A case-sensitive symbol. ``t`` and ``nil`` are ordinary symbols."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Char:
    """A single character, distinct from a length-1 string."""

    ch: str

    def __repr__(self):
        return print_value(self)


class Cons:
    """An ordered pair of values, immutable once made.

    Equality and hashing walk the cdr spine iteratively so long proper lists
    do not hit the interpreter recursion limit."""

    __slots__ = ("car", "cdr")

    def __init__(self, car: "Value", cdr: "Value"):
        object.__setattr__(self, "car", car)
        object.__setattr__(self, "cdr", cdr)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a cons")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a cons")

    def __eq__(self, other):
        a, b = self, other
        while isinstance(a, Cons) and isinstance(b, Cons):
            if a is b:
                return True
            if not (a.car == b.car):
                return False
            a, b = a.cdr, b.cdr
        if isinstance(a, Cons) or isinstance(b, Cons):
            return False
        return a == b

    def __hash__(self):
        h = 0
        node = self
        while isinstance(node, Cons):
            h = hash((h, node.car))
            node = node.cdr
        return hash((h, "·", node))

    def __repr__(self):
        return print_value(self)


Value = Union[int, Fraction, Symbol, Char, str, Cons]

NIL = Symbol("nil")
T = Symbol("t")


def truthy(v: Value) -> bool:
    # nil is a Symbol but not a singleton, so no identity test will do
    return type(v) is not Symbol or v.name != "nil"


def boolify(b: bool) -> Symbol:
    return T if b else NIL


def norm_rat(f: Fraction) -> Value:
    """Collapse denominator-1 fractions to int so integers stay fast and canonical."""
    if f.denominator == 1:
        return f.numerator
    return f


def is_rational(v: Value) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def is_integer(v: Value) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def from_list(items, tail: Value = NIL) -> Value:
    """Build a cons chain from a Python list."""
    out = tail
    for item in reversed(items):
        out = Cons(item, out)
    return out


def is_true_list(v: Value) -> bool:
    while isinstance(v, Cons):
        v = v.cdr
    return v == NIL


def proper_length(v: Value) -> int:
    """Number of cons cells along the cdr chain."""
    n = 0
    while isinstance(v, Cons):
        n += 1
        v = v.cdr
    return n


_CHAR_NAMES = {" ": "Space", "\n": "Newline", "\t": "Tab"}
CHAR_BY_NAME = {name: ch for ch, name in _CHAR_NAMES.items()}


def _escape_string(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def print_value(v: Value, upcase: bool = False) -> str:
    """Canonical printed form; parses back to an equal value.

    ``upcase`` prints symbols in upper case, the way ACL2 session output
    echoes them; the result then no longer reads back case-preserved."""
    if isinstance(v, bool):
        raise TypeError("Python bool is not a value; use t/nil symbols")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Symbol):
        return v.name.upper() if upcase else v.name
    if isinstance(v, Char):
        return "#\\" + _CHAR_NAMES.get(v.ch, v.ch)
    if isinstance(v, str):
        return '"' + _escape_string(v) + '"'
    if isinstance(v, Cons):
        parts = []
        while isinstance(v, Cons):
            parts.append(print_value(v.car, upcase))
            v = v.cdr
        if v == NIL:
            return "(" + " ".join(parts) + ")"
        return "(" + " ".join(parts) + " . " + print_value(v, upcase) + ")"
    raise TypeError(f"not a value: {v!r}")


def order_key(v: Value):
    """Total order over values; used to canonicalize set-typed lists.

    Cons keys flatten the cdr spine so deep lists compare without deep
    recursion; lexicographic tuple comparison keeps the order total."""
    if is_rational(v):
        return (0, Fraction(v))
    if isinstance(v, Symbol):
        return (1, v.name)
    if isinstance(v, Char):
        return (2, v.ch)
    if isinstance(v, str):
        return (3, v)
    spine = []
    while isinstance(v, Cons):
        spine.append(order_key(v.car))
        v = v.cdr
    spine.append((5, order_key(v)))  # rank-5 terminator stays comparable with element keys
    return (4, tuple(spine))
