"""The value universe: exact rationals, symbols, characters, strings, and pairs.

Integers are plain Python ints; non-integer rationals are ``fractions.Fraction``
(always lowest terms, positive denominator). ``nil`` doubles as the empty list
and logical false; every other value is logically true. A cons is immutable
and keeps its hash once worked out, so a value hashed again (a dedup key that
repeats a decoded value) costs no walk.

Every immutable class of the package is a plain ``__slots__`` class built on
``Immutable``, and ``Record`` adds the equality, hashing, printing and
``replace`` of a record whose slots are its fields. Every class is written out
by hand: generating methods at import would cost more than the rest of
sedan's set-up.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_set = object.__setattr__


class Immutable:
    """A ``__slots__`` object whose attributes ``__init__`` sets once, through
    the slots' own setters; assigning or deleting one afterwards raises
    ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Record(Immutable):
    """An immutable record whose fields are its class's ``__slots__``, in
    order. It equals a record of its own class with equal fields, hashes as
    the tuple of its fields, and prints as ``Name(field=value, ...)``. A
    subclass's ``__init__`` names its parameters and passes them to
    ``_fill``."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, made through ``__init__`` so that
        its checks run again; an unknown field name is a ``TypeError``."""
        kept = {name: getattr(self, name) for name in self.__slots__ if name not in changes}
        return type(self)(**kept, **changes)


class Symbol(Immutable):
    """A case-sensitive symbol. ``t`` and ``nil`` are ordinary symbols."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)

    def __eq__(self, other):
        if type(other) is Symbol:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return self.name


class Char(Immutable):
    """A single character, distinct from a length-1 string."""

    __slots__ = ("ch",)

    def __init__(self, ch: str):
        _set_ch(self, ch)

    def __eq__(self, other):
        if type(other) is Char:
            return self.ch == other.ch
        return NotImplemented

    def __hash__(self):
        return hash((self.ch,))

    def __repr__(self):
        return print_value(self)


class Cons(Immutable):
    """An ordered pair of values, immutable once made.

    Equality, hashing, printing and ``order_key`` walk a value iteratively:
    each follows the cdr spine in a loop and keeps on an explicit stack only
    the cells whose car is itself a cons, so neither a long list nor a value
    nested deep in its cars hits the interpreter recursion limit. A cons is
    immutable, so the first ``hash`` keeps its walk's result in the ``_hash``
    slot and later calls return it without walking again."""

    __slots__ = ("car", "cdr", "_hash")

    def __init__(self, car: "Value", cdr: "Value"):
        _set_car(self, car)
        _set_cdr(self, cdr)

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
        try:
            return self._hash
        except AttributeError:  # the first call walks the value
            pass
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
                _set_hash(self, h)
                return h
            before, cell = outer.pop()
            h, node = hash((before, h)), cell.cdr

    def __repr__(self):
        return print_value(self)


Value = Union[int, Fraction, Symbol, Char, str, Cons]

# the slots' own setters, which __setattr__ does not go through
_set_name, _set_ch = Symbol.name.__set__, Char.ch.__set__
_set_car, _set_cdr, _set_hash = Cons.car.__set__, Cons.cdr.__set__, Cons._hash.__set__

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
