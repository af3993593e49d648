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

    Equality, hashing, printing and ``order_key`` walk a value iteratively:
    each follows the cdr spine in a loop and keeps on an explicit stack only
    the cells whose car is itself a cons, so neither a long list nor a value
    nested deep in its cars hits the interpreter recursion limit."""

    __slots__ = ("car", "cdr")

    def __init__(self, car: "Value", cdr: "Value"):
        _set_car(self, car)
        _set_cdr(self, cdr)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a cons")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a cons")

    def __eq__(self, other):
        a, b = self, other
        pending = None  # pairs of cars still to compare, the first a cons
        while True:
            while type(a) is Cons and type(b) is Cons:
                if a is b:
                    break
                x = a.car
                if type(x) is Cons:
                    if pending is None:
                        pending = []
                    pending.append((x, b.car))
                elif not (x == b.car):
                    return False
                a, b = a.cdr, b.cdr
            else:
                if type(a) is Cons or type(b) is Cons or not (a == b):
                    return False
            if not pending:
                return True
            a, b = pending.pop()

    def __hash__(self):
        h, node = 0, self
        outer = None  # (hash of the cars before it, cell) per list whose car is being hashed
        while True:
            while type(node) is Cons:
                car = node.car
                if type(car) is Cons:
                    if outer is None:
                        outer = []
                    outer.append((h, node))
                    h, node = 0, car
                    continue
                h = hash((h, car))
                node = node.cdr
            h = hash((h, "·", node))
            if not outer:
                return h
            before, cell = outer.pop()
            h, node = hash((before, h)), cell.cdr

    def __repr__(self):
        return print_value(self)


Value = Union[int, Fraction, Symbol, Char, str, Cons]

# the slots' own setters, which __setattr__ does not go through
_set_car, _set_cdr = Cons.car.__set__, Cons.cdr.__set__

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
    if type(v) is not Cons:
        return _print_atom(v, upcase)
    out = ["("]  # each item is followed by " ", which the list's end replaces
    outer = []  # cells whose car is being printed
    while True:
        while type(v) is Cons:
            car = v.car
            if type(car) is Cons:
                outer.append(v)
                out.append("(")
                v = car
                continue
            out.append(_print_atom(car, upcase))
            out.append(" ")
            v = v.cdr
        out[-1] = ")" if v == NIL else " . " + _print_atom(v, upcase) + ")"
        if not outer:
            return "".join(out)
        out.append(" ")
        v = outer.pop().cdr


def _print_atom(v: Value, upcase: bool) -> str:
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
    raise TypeError(f"not a value: {v!r}")


def order_key(v: Value) -> tuple:
    """Total order over values; used to canonicalize set-typed lists.

    The key is a flat tuple, so keys of deep values compare without
    recursion: an atom gives its (rank, payload) pair, and a cons gives
    (4,), what its cars give, then (5, its tail's pair). A list's end
    outranks any item, so lists compare item by item as nested keys would."""
    if type(v) is not Cons:
        return (_atom_key(v),)
    keys = [(4,)]
    outer = []  # cells whose car is being keyed
    while True:
        while type(v) is Cons:
            car = v.car
            if type(car) is Cons:
                outer.append(v)
                keys.append((4,))
                v = car
                continue
            keys.append(_atom_key(car))
            v = v.cdr
        keys.append((5, _atom_key(v)))
        if not outer:
            return tuple(keys)
        v = outer.pop().cdr


def _atom_key(v: Value):
    if is_rational(v):
        return (0, Fraction(v))
    if isinstance(v, Symbol):
        return (1, v.name)
    if isinstance(v, Char):
        return (2, v.ch)
    if isinstance(v, str):
        return (3, v)
    raise TypeError(f"not a value: {v!r}")
