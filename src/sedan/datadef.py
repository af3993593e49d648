"""Data definitions: recognizers and surjective enumerators by syntax-directed translation.

Every registered type gets a total enumerator from the naturals onto its extent
and a membership recognizer. Encodings:

  nat       identity
  pos       n + 1
  neg       -(n + 1)
  integer   zig-zag: even n -> n/2, odd n -> -(n+1)/2
  rational  unpair n into (i, j); value integer(i) / (j + 1), reduced
  boolean   n mod 2 -> t, nil
  character n mod 62 over [a-z A-Z 0-9]
  string    decoded as a list of characters
  symbol    a fixed 16-name alphabet, then generated names s0, s1, ...
  lists     0 -> empty; n+1 unpairs into head index and tail index
  products  Cantor unpair into component indices
  oneof     n mod k picks the branch, n div k indexes within it; index 0 is
            routed to a registration-chosen base branch so recursive unions
            stay well-founded

Pairing is Cantor's: pair(i, j) = (i+j)(i+j+1)/2 + j.

Types whose extent is provably finite and small are collapsed to an explicit
extent, making the enumerator periodic with period |T|. An extent is built
bottom-up in time linear in its size: an enum's or a oneof's duplicates are
removed in order, each value keeping its first place; a product's or record's
values are distinct by construction, one per choice of its parts' values; and
a type with more than EXTENT_CAP values has no extent.

Each type's enumerator and recognizer are generated Python, emitted on first
use by ``_TypeEmitter``, which builds on the evaluator's emitter core
``Source`` as the term emitter does: a function ``dec(n)`` and a function
``rec(v)``. Each lives in a slot of the world's namespace that generates it
on its first call, and every caller calls through that slot: enumeration,
recognition, sampling, the host functions ``Xp``/``nth-X`` in the world's
function table, subtype evidence, and a reference to a named type in another
type's code, so mutually recursive groups need no compile order. A custom
type evaluates an application of its user-supplied functions through the
namespace's ``w_evaluate``, which holds the world weakly. The source depends
only on the type's shape, so ``compile()`` runs once per shape for every
world. No generated function holds its world, so a finished world is freed
by reference counting. A recursive type's functions recurse once per level of
the value, and an evidence index that overflows the Python stack errs.

Only this module reads a type expression. It registers the base types too,
in ``install_base_types``, through ``register_defdata`` as any other type.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .evaluator import EvaluationError, HostFunction, Source, arity_admits, arity_bounds, lazy_slot, with_overflow_error
from .reader import ParseError, SAtom, Sexpr, SList, dotted_pair, sexpr_to_value, unquote
from .terms import App, Var
from .values import (
    NIL,
    T,
    Char,
    Cons,
    Record,
    Symbol,
    Value,
    from_list,
    is_true_list,
    norm_rat,
    order_key,
    print_value,
)

EXTENT_CAP = 4096
_UNGROUNDED = math.inf


class AdmissionError(Exception):
    """A form the world cannot admit. Defined below the world so that
    registration can raise it; ``sedan.world`` re-exports it."""


class DatadefError(Exception):
    pass


class UnknownTypeError(DatadefError):
    def __init__(self, name: str):
        super().__init__(f"unknown type: {name}")
        self.name = name


class SubtypeEvidenceError(DatadefError):
    def __init__(self, t1: str, t2: str, index: int, value: Value):
        super().__init__(
            f"cannot admit {t1} as a subtype of {t2}: "
            f"enumerated witness at index {index} is {print_value(value)}"
        )
        self.witness_index = index
        self.witness_value = value


def pair(i: int, j: int) -> int:
    s = i + j
    return s * (s + 1) // 2 + j


def unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    j = z - t
    return w - j, j


def zigzag(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


ALPHABET62 = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
SYMBOL_ALPHABET = tuple(
    Symbol(s)
    for s in ["nil", "t", "a", "b", "c", "x", "y", "z", "foo", "bar", "baz", "u", "v", "w", "p", "q"]
)


# ---------------------------------------------------------------------------
# type expressions


class BaseRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._fill(name)


class NamedRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._fill(name)


class EnumExpr(Record):
    __slots__ = ("values",)

    def __init__(self, values: tuple[Value, ...]):
        self._fill(values)


class OneofExpr:
    def __init__(self, branches: tuple[TypeExpr, ...], base_branch: int = 0):
        self.branches = branches
        self.base_branch = base_branch  # index 0's branch, pinned by register_defdata


class ProductExpr(Record):
    __slots__ = ("car", "cdr")

    def __init__(self, car: TypeExpr, cdr: TypeExpr):
        self._fill(car, cdr)


class ListofExpr(Record):
    __slots__ = ("elem",)

    def __init__(self, elem: TypeExpr):
        self._fill(elem)


class SetExpr(Record):
    __slots__ = ("elem",)

    def __init__(self, elem: TypeExpr):
        self._fill(elem)


class RecordExpr(Record):
    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, fields: tuple[tuple[str, TypeExpr], ...]):
        self._fill(tag, fields)


class CustomExpr(Record):
    __slots__ = ("recognizer", "enumerator")

    def __init__(self, recognizer: str, enumerator: str):
        self._fill(recognizer, enumerator)


TypeExpr = (
    BaseRef | NamedRef | EnumExpr | OneofExpr | ProductExpr | ListofExpr | SetExpr
    | RecordExpr | CustomExpr
)


class SingletonRestriction(Record):
    """A variable pinned to one value by an equality hypothesis."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self._fill(value)


Restriction = str | SingletonRestriction


def print_restriction(r: Restriction, upcase: bool = False) -> str:
    """A type name, or ``=`` and a singleton's value; ``upcase`` as for ``print_value``."""
    if isinstance(r, SingletonRestriction):
        return "=" + print_value(r.value, upcase)
    return r.upper() if upcase else r


class TypeEntry:
    def __init__(self, name: str, expr: TypeExpr, extent: Optional[tuple[Value, ...]] = None):
        self.name = name
        self.expr = expr
        self.extent = extent  # the values of a finite type

    @property
    def size(self) -> Optional[int]:
        return len(self.extent) if self.extent is not None else None


class TypeTable:
    def __init__(self):
        self.entries: dict[str, TypeEntry] = {}
        self.recognizer_index: dict[str, str] = {}


BASE_EDGES = (
    ("pos", "nat"), ("nat", "integer"), ("neg", "integer"),
    ("integer", "rational"), ("boolean", "symbol"), ("proper-cons", "true-list"),
)


# ---------------------------------------------------------------------------
# compilation: a type's enumerator becomes generated Python dec(n) -> value and
# its recognizer rec(v) -> bool, emitted by _TypeEmitter and made in the
# world's namespace on first use. Neither holds the world.


def _decoder(world, name: str):
    return _generate_type(world, name, _TypeEmitter.decoder)


def _recognizer(world, name: str):
    return _generate_type(world, name, _TypeEmitter.recognizer)


def _generate_type(world, name: str, emit):
    """A finite type runs over its extent, any other over its expression."""
    entry = world.types.entries.get(name)
    if entry is None:
        raise UnknownTypeError(name)
    em = _TypeEmitter(world)
    return em.make(emit(em, "_f", entry.expr if entry.extent is None else EnumExpr(entry.extent)))


def _dec_rational(n: int) -> Value:
    i, j = unpair(n)
    return zigzag(i) if j == 0 else norm_rat(Fraction(zigzag(i), j + 1))


def _dec_string(n: int) -> str:
    chars = []
    while n > 0:
        i, n = unpair(n - 1)
        chars.append(ALPHABET62[i % 62])
    return "".join(chars)


def _dec_symbol(n: int) -> Symbol:
    if n < len(SYMBOL_ALPHABET):
        return SYMBOL_ALPHABET[n]
    return Symbol(f"s{n - len(SYMBOL_ALPHABET)}")


_CHARS62 = tuple(Char(c) for c in ALPHABET62)


def _dec_all(n: int) -> Value:
    # branches: rational, symbol, character, string, true-list, pair
    b, inner = n % 6, n // 6
    if b == 0:
        return _dec_rational(inner)
    if b == 1:
        return _dec_symbol(inner)
    if b == 2:
        return _CHARS62[inner % 62]
    if b == 3:
        return _dec_string(inner)
    if b == 4:
        return _dec_true_list(inner)
    i, j = unpair(inner)
    return Cons(_dec_all(i), _dec_all(j))


def _dec_true_list(n: int) -> Value:
    items = []
    while n > 0:
        i, n = unpair(n - 1)
        items.append(_dec_all(i))
    return from_list(items)


def _dec_proper_cons(n: int) -> Cons:
    i, j = unpair(n)
    return Cons(_dec_all(i), _dec_true_list(j))


def _canonical_set(items: list[Value]) -> Value:
    """The set's list: its items in ``order_key`` order, without repeats."""
    canon = []
    for item in sorted(items, key=order_key):
        if not canon or canon[-1] != item:
            canon.append(item)
    return from_list(canon)


# the base types' encodings and checks, as Python expressions of the index or
# value {0}, which is a name or a chain of .car/.cdr from one
_BASE_DEC = {
    "all": "_dec_all({0})",
    "nat": "{0}",
    "pos": "({0} + 1)",
    "neg": "(-{0} - 1)",
    "integer": "({0} // 2 if {0} % 2 == 0 else -({0} + 1) // 2)",
    "rational": "_dec_rational({0})",
    "boolean": "(_T if {0} % 2 == 0 else _NIL)",
    "character": "_CHARS62[{0} % 62]",
    "string": "_dec_string({0})",
    "symbol": "_dec_symbol({0})",
    "true-list": "_dec_true_list({0})",
    "proper-cons": "_dec_proper_cons({0})",
}
_BASE_REC = {
    "all": "True",
    "nat": "(type({0}) is int and {0} >= 0)",
    "pos": "(type({0}) is int and {0} > 0)",
    "neg": "(type({0}) is int and {0} < 0)",
    "integer": "(type({0}) is int)",
    "rational": "(type({0}) is int or type({0}) is _Fraction)",
    "boolean": "(type({0}) is _Symbol and ({0}.name == 't' or {0}.name == 'nil'))",
    "symbol": "(type({0}) is _Symbol)",
    "string": "(type({0}) is str)",
    "character": "(type({0}) is _Char)",
    "true-list": "_is_true_list({0})",
    "proper-cons": "(type({0}) is _Cons and _is_true_list({0}))",
}
BASE_TYPES = tuple(_BASE_REC)
# nil is a Symbol but not a singleton, so no identity test will do
_IS_NIL = "(type({0}) is _Symbol and {0}.name == 'nil')"

# the names type code reads besides evaluator's; install_base_types adds them
# to every world's namespace
_TYPE_PRELUDE = {
    "_Char": Char,
    "_Fraction": Fraction,
    "_isqrt": math.isqrt,
    "_from_list": from_list,
    "_canonical_set": _canonical_set,
    "_order_key": order_key,
    "_is_true_list": is_true_list,
    "_CHARS62": _CHARS62,
    "_dec_all": _dec_all,
    "_dec_rational": _dec_rational,
    "_dec_string": _dec_string,
    "_dec_symbol": _dec_symbol,
    "_dec_true_list": _dec_true_list,
    "_dec_proper_cons": _dec_proper_cons,
}

# a function nests at most this many compound type expressions; a deeper one
# moves into a helper function, which keeps the source far inside Python's
# limits on indentation, nested loops and parentheses
_NEST_LIMIT = 8
# a oneof with more branches than this halves its branch range with an if
# before a chain of elifs picks one, so no chain is long
_CHAIN_LIMIT = 16


def _product_spine(expr: ProductExpr):
    """The components of a right-nested product and the type of its last cdr."""
    comps = []
    while isinstance(expr, ProductExpr):
        comps.append(expr.car)
        expr = expr.cdr
    return comps, expr


class _TypeEmitter(Source):
    """Python source for one type's enumerator or recognizer in one world.

    ``decoder`` and ``recognizer`` return the source of one function. Quoted
    values, extents, sizes and the symbols of a record are constants of the
    ``Source``, so the source depends only on the type's shape.

    An enumerator is statements: ``unpair`` is inlined as ``isqrt``
    arithmetic, a product or record binds its components in order and then
    builds its conses from the tail, a oneof branches on ``n % k`` (index 0
    goes to its base branch), and a listof or set is a loop. A recognizer is
    one expression, a conjunction along a product's or record's spine and a
    disjunction over a oneof's branches, except that a listof or set is a
    loop in a function of its own."""

    # -- enumerators ----------------------------------------------------------

    def decoder(self, name: str, expr: TypeExpr) -> str:
        out: list[str] = []
        value = self.dec(expr, "n", out, 2, 0)
        return f"    def {name}(n):\n{''.join(out)}        return {value}\n"

    def dec(self, expr: TypeExpr, n: str, out: list[str], level: int, nest: int) -> str:
        """An expression for the value at index ``n``, a name, after the
        statements it needs, appended to ``out`` at indentation ``level``."""
        kind = type(expr)
        if kind is BaseRef:
            return _BASE_DEC[expr.name].format(n)
        if kind is NamedRef:
            return f"{lazy_slot(self.world, 'e_', expr.name, _decoder)}({n})"
        if kind is EnumExpr:
            if len(expr.values) == 1:
                return self.const(expr.values[0])
            return f"{self.const(expr.values)}[{n} % {self.const(len(expr.values))}]"
        if kind is CustomExpr:
            call = self.const(App(expr.enumerator, (Var("n"),)))
            return f"w_evaluate({call}, {{'n': {n}}})"
        if nest == _NEST_LIMIT:
            return f"{self.helper(lambda name: self.decoder(name, expr))}({n})"
        pad, nest = "    " * level, nest + 1
        if kind is ProductExpr:
            cars, last = _product_spine(expr)
            parts = []
            for car in cars:
                i, n = self.unpair(n, out, pad)
                parts.append(self.bind(self.dec(car, i, out, level, nest), out, pad))
            return self.build(parts, self.dec(last, n, out, level, nest), out, pad)
        if kind is RecordExpr:
            parts = []
            for pos, (fname, fexpr) in enumerate(expr.fields):
                i = n
                if pos < len(expr.fields) - 1:
                    i, n = self.unpair(n, out, pad)
                value = self.bind(self.dec(fexpr, i, out, level, nest), out, pad)
                parts.append(f"_Cons({self.const(Symbol(fname))}, {value})")
            return self.build([self.const(Symbol(expr.tag)), *parts], "_NIL", out, pad)
        if kind is OneofExpr:
            branches, k = expr.branches, len(expr.branches)
            if k == 1:
                return self.dec(branches[0], n, out, level, nest)
            b, m, r = self.temp(), self.temp(), self.temp()
            pick = f"{n} % {k}" if expr.base_branch == 0 else f"{n} % {k} if {n} else {expr.base_branch}"
            out.append(f"{pad}{b} = {pick}\n{pad}{m} = {n} // {k}\n")
            self.branch(branches, 0, k, (b, m, r), out, level, nest)
            return r
        if kind is ListofExpr or kind is SetExpr:
            items, z, w, i = self.temp(), self.temp(), self.temp(), self.temp()
            inner = pad + "    "
            out.append(
                f"{pad}{items} = []\n{pad}{z} = {n}\n{pad}while {z} > 0:\n"
                f"{inner}{z} -= 1\n{inner}{w} = (_isqrt(8 * {z} + 1) - 1) // 2\n"
                f"{inner}{z} -= {w} * ({w} + 1) // 2\n{inner}{i} = {w} - {z}\n"
            )
            value = self.dec(expr.elem, i, out, level + 1, nest)
            out.append(f"{inner}{items}.append({value})\n")
            return f"{'_from_list' if kind is ListofExpr else '_canonical_set'}({items})"
        raise DatadefError(f"cannot decode {expr!r}")

    def unpair(self, z: str, out: list[str], pad: str) -> tuple[str, str]:
        w, j, i = self.temp(), self.temp(), self.temp()
        out.append(f"{pad}{w} = (_isqrt(8 * {z} + 1) - 1) // 2\n{pad}{j} = {z} - {w} * ({w} + 1) // 2\n{pad}{i} = {w} - {j}\n")
        return i, j

    def bind(self, text: str, out: list[str], pad: str) -> str:
        """A name for the expression's value, computed now."""
        if text.isidentifier():
            return text
        name = self.temp()
        out.append(f"{pad}{name} = {text}\n")
        return name

    def build(self, parts: list[str], tail: str, out: list[str], pad: str) -> str:
        """The conses of ``parts`` onto ``tail``, one statement each."""
        r = self.temp()
        for part in reversed(parts):
            out.append(f"{pad}{r} = _Cons({part}, {tail})\n")
            tail = r
        return r

    def branch(self, branches, lo: int, hi: int, names, out: list[str], level: int, nest: int):
        """Statements setting r to branch b's value at index m, for b in [lo, hi)."""
        b, m, r = names
        pad = "    " * level
        if hi - lo == 1:
            value = self.dec(branches[lo], m, out, level, nest)
            out.append(f"{pad}{r} = {value}\n")
        elif hi - lo > _CHAIN_LIMIT:
            mid = (lo + hi) // 2
            out.append(f"{pad}if {b} < {mid}:\n")
            self.branch(branches, lo, mid, names, out, level + 1, nest)
            out.append(f"{pad}else:\n")
            self.branch(branches, mid, hi, names, out, level + 1, nest)
        else:
            for i in range(lo, hi):
                out.append(f"{pad}{'if' if i == lo else 'elif'} {b} == {i}:\n" if i < hi - 1 else f"{pad}else:\n")
                self.branch(branches, i, i + 1, names, out, level + 1, nest)

    # -- recognizers ----------------------------------------------------------

    def recognizer(self, name: str, expr: TypeExpr) -> str:
        if type(expr) is ListofExpr or type(expr) is SetExpr:
            body = self.loop(expr)
        else:
            body = f"        return {self.rec(expr, 'v', 0)}\n"
        return f"    def {name}(v):\n{body}"

    def loop(self, expr) -> str:
        """A listof's or set's recognizer body: a loop over the list's cells;
        a set's keys must ascend strictly too (sorted, without repeats)."""
        lines = ["while type(v) is _Cons:", f"    if not {self.rec(expr.elem, 'v.car', 1)}:", "        return False"]
        if type(expr) is SetExpr:
            lines = ["prev = None", *lines, "    key = _order_key(v.car)",
                     "    if prev is not None and not prev < key:", "        return False", "    prev = key"]
        lines += ["    v = v.cdr", f"return {_IS_NIL.format('v')}"]
        return "".join([f"        {line}\n" for line in lines])

    def rec(self, expr: TypeExpr, v: str, nest: int) -> str:
        """An expression for whether ``v`` (a name, or a chain of .car and
        .cdr from one) is in the type, as a Python bool."""
        kind = type(expr)
        if kind is BaseRef:
            return _BASE_REC[expr.name].format(v)
        if kind is NamedRef:
            return f"{lazy_slot(self.world, 'r_', expr.name, _recognizer)}({v})"
        if kind is EnumExpr:
            if expr.values == (NIL,):
                return _IS_NIL.format(v)
            return f"({v} in {self.const(expr.values)})"
        if kind is CustomExpr:
            call = self.const(App(expr.recognizer, (Var("v"),)))
            r = self.temp()
            return f"(type({r} := w_evaluate({call}, {{'v': {v}}})) is not _Symbol or {r}.name != 'nil')"
        if nest == _NEST_LIMIT or kind is ListofExpr or kind is SetExpr:
            return f"{self.helper(lambda name: self.recognizer(name, expr))}({v})"
        nest += 1
        if kind is OneofExpr:
            return f"({' or '.join([self.rec(b, v, nest) for b in expr.branches])})"
        if kind is ProductExpr:
            # v's spine is read once per cell: each cdr is bound to a name
            # where it is first tested, except the last one
            cars, last = _product_spine(expr)
            checks = [f"type({v}) is _Cons", self.rec(cars[0], f"{v}.car", nest)]
            for car in cars[1:]:
                cell = self.temp()
                checks.append(f"type({cell} := {v}.cdr) is _Cons")
                checks.append(self.rec(car, f"{cell}.car", nest))
                v = cell
            checks.append(self.rec(last, f"{v}.cdr", nest))
            return f"({' and '.join(checks)})"
        if kind is RecordExpr:
            checks = [f"type({v}) is _Cons", f"{v}.car == {self.const(Symbol(expr.tag))}"]
            for fname, fexpr in expr.fields:
                rest, cell = self.temp(), self.temp()
                checks.append(f"type({rest} := {v}.cdr) is _Cons and type({cell} := {rest}.car) is _Cons")
                checks.append(f"{cell}.car == {self.const(Symbol(fname))}")
                checks.append(self.rec(fexpr, f"{cell}.cdr", nest))
                v = rest
            checks.append(_IS_NIL.format(f"{v}.cdr"))
            return f"({' and '.join(checks)})"
        raise DatadefError(f"cannot recognize with {expr!r}")


# ---------------------------------------------------------------------------
# public operations


def enumerate_value(world, name: str, n: int) -> Value:
    """Total surjective map from naturals onto the named type's extent."""
    return world.namespace[lazy_slot(world, "e_", name, _decoder)](n)


# the trial loop decodes an index drawn from a ``rand.IndexSource`` under this
# name, which perfbench's tracer spans per type
sample = enumerate_value


def recognize(world, name: str, v: Value) -> bool:
    return world.namespace[lazy_slot(world, "r_", name, _recognizer)](v)


@with_overflow_error
def _evidence(world, decode: str, rec: str, i: int):
    """The value at index ``i`` of the type whose decoder slot is ``decode``,
    and whether the recognizer slot ``rec`` accepts it."""
    ns = world.namespace
    v = ns[decode](i)
    return v, ns[rec](v)


def recognizer_name(world, name: str) -> str:
    """The function that recognizes the named type: ``Xp``, or a custom
    type's own recognizer."""
    expr = world.types.entries[name].expr
    return expr.recognizer if isinstance(expr, CustomExpr) else _derived_names(name)[0]


# ---------------------------------------------------------------------------
# groundedness and finiteness: walks over a type expression's parts


def _parts(expr: TypeExpr) -> tuple[TypeExpr, ...]:
    """The type expressions directly inside ``expr``, in order."""
    kind = type(expr)
    if kind is OneofExpr:
        return expr.branches
    if kind is ProductExpr:
        return (expr.car, expr.cdr)
    if kind is ListofExpr or kind is SetExpr:
        return (expr.elem,)
    if kind is RecordExpr:
        return tuple(f for _, f in expr.fields)
    return ()


def _referenced_names(expr: TypeExpr):
    if type(expr) is NamedRef:
        yield expr.name
    for part in _parts(expr):
        yield from _referenced_names(part)


def _height(expr: TypeExpr, heights: dict[str, float]) -> float:
    """How deep the least values of ``expr`` nest references to the group's
    members, whose heights so far are ``heights``. On the way each oneof's
    index-0 branch is pinned to its lowest branch."""
    kind = type(expr)
    if kind is NamedRef:
        # a type registered before the group is grounded
        return heights[expr.name] + 1 if expr.name in heights else 0
    below = [_height(part, heights) for part in _parts(expr)]
    if kind is OneofExpr:
        expr.base_branch = below.index(min(below))
        return min(below)
    if kind is ListofExpr or kind is SetExpr:
        return 0  # nil is always available
    return max(below, default=0)


def _finite_extent(expr: TypeExpr, world) -> Optional[tuple[Value, ...]]:
    """A type entry's ``extent``: its values in enumeration order when there
    are at most ``EXTENT_CAP`` of them, else None. A group member whose extent
    is not computed yet counts as infinite."""
    kind = type(expr)
    if kind is BaseRef:
        return (T, NIL) if expr.name == "boolean" else None
    if kind is NamedRef:
        return world.types.entries[expr.name].extent
    if kind is EnumExpr or kind is OneofExpr:
        # only here can values repeat; each keeps its first place
        if kind is EnumExpr:
            parts = [expr.values]
        else:
            parts = [_finite_extent(branch, world) for branch in expr.branches]
        if None in parts:
            return None
        values = tuple(dict.fromkeys(itertools.chain.from_iterable(parts)))
        return values if len(values) <= EXTENT_CAP else None
    if kind is ProductExpr or kind is RecordExpr:
        # a value is a cons chain over one choice per part, the last its tail,
        # so the values are distinct by construction
        if kind is ProductExpr:
            cars, last = _product_spine(expr)
            parts = [_finite_extent(part, world) for part in (*cars, last)]
        else:
            parts = [_finite_extent(part, world) for part in _parts(expr)]
        if None in parts or math.prod(map(len, parts)) > EXTENT_CAP:
            return None
        if kind is RecordExpr:
            pairs = [[Cons(Symbol(fname), v) for v in part] for (fname, _), part in zip(expr.fields, parts)]
            parts = [(Symbol(expr.tag),), *pairs, (NIL,)]
        return tuple(from_list(choice[:-1], choice[-1]) for choice in itertools.product(*parts))
    return None  # listof, set, custom: infinite or unknown


# ---------------------------------------------------------------------------
# registration


def _auto_subtype_edges(world, name: str, expr: TypeExpr):
    """Syntactically evident containments, admitted without an evidence run."""
    graph = world.subtypes
    graph.add_edge(name, "all")
    if isinstance(expr, (ListofExpr, SetExpr)):
        graph.add_edge(name, "true-list")
    if isinstance(expr, RecordExpr):
        graph.add_edge(name, "proper-cons")
    if isinstance(expr, ProductExpr) and _product_spine(expr)[1] == EnumExpr((NIL,)):
        graph.add_edge(name, "proper-cons")
    if isinstance(expr, EnumExpr):
        for base in BASE_TYPES:
            if base != "all" and all(recognize(world, base, v) for v in expr.values):
                graph.add_edge(name, base)
    if isinstance(expr, (NamedRef, BaseRef)):
        # a direct alias has exactly the other type's extent
        graph.add_edge(name, expr.name)
        graph.add_edge(expr.name, name)


def register_defdata(world, definitions: list[tuple[str, TypeExpr]]):
    """Register one data definition or a mutually recursive group of them."""
    definitions = [
        (name, RecordExpr(name, expr.fields) if isinstance(expr, RecordExpr) and not expr.tag else expr)
        for name, expr in definitions
    ]
    group = {name for name, _ in definitions}
    if len(group) != len(definitions):
        raise AdmissionError("duplicate name within a defdata group")
    # every function the group adds, checked whole before the world changes
    hosts: dict[str, tuple[str, HostFunction]] = {}  # function -> (its type, host)
    for name, expr in definitions:
        if name in world.types.entries:
            raise AdmissionError(f"duplicate type name: {name}")
        recog, enum = _derived_names(name)
        if isinstance(expr, CustomExpr):
            # the user supplies both functions; they must already exist
            for fname in (expr.recognizer, expr.enumerator):
                bounds = arity_bounds(world, fname)
                if bounds is None:
                    raise AdmissionError(f"custom type {name}: unknown function {fname}")
                if not arity_admits(*bounds, 1):
                    raise AdmissionError(f"custom type {name}: {fname} cannot take exactly one argument")
            added = {} if enum in world.functions else {enum: _enumerator_host(world, name)}
        else:
            for fname in (recog, enum):
                if fname in world.functions:
                    raise AdmissionError(f"defdata {name} would redefine function {fname}")
            added = {recog: _recognizer_host(world, name), enum: _enumerator_host(world, name)}
        for fname, host in added.items():
            if fname in hosts:
                raise AdmissionError(f"defdata group defines function {fname} twice: for {hosts[fname][0]} and for {name}")
            hosts[fname] = (name, host)
        for ref in _referenced_names(expr):
            if ref not in group and ref not in world.types.entries:
                raise AdmissionError(f"unknown referenced type: {ref}")

    # groundedness fixpoint over the group; its last pass changes no height,
    # so the base branches it pins are the lowest under the final heights
    heights: dict[str, float] = dict.fromkeys(group, _UNGROUNDED)
    changed = True
    while changed:
        changed = False
        for name, expr in definitions:
            h = _height(expr, heights)
            if h < heights[name]:
                heights[name] = h
                changed = True
    for name in group:
        if heights[name] == _UNGROUNDED:
            raise AdmissionError(f"recursive data definition {name} has no base case")

    # install entries first so mutual references resolve during extent checks
    for name, expr in definitions:
        world.types.entries[name] = TypeEntry(name, expr)
    for name, expr in definitions:
        world.types.entries[name].extent = _finite_extent(expr, world)

    for fname, (_, host) in hosts.items():
        world.add_function(fname, host)
    for name, expr in definitions:
        world.types.recognizer_index[recognizer_name(world, name)] = name
        _auto_subtype_edges(world, name, expr)


def _derived_names(name: str) -> tuple[str, str]:
    return name + "p", "nth-" + name


def _recognizer_host(world, type_name: str) -> HostFunction:
    """``Xp``: the type's recognizer, called through the world's namespace."""
    ns, key = world.namespace, lazy_slot(world, "r_", type_name, _recognizer)
    return HostFunction(1, 1, lambda v: T if ns[key](v) else NIL)


def _enumerator_host(world, type_name: str) -> HostFunction:
    """``nth-X``: a non-natural index acts as 0."""
    ns, key = world.namespace, lazy_slot(world, "e_", type_name, _decoder)

    def impl(n):
        return ns[key](n if type(n) is int and n >= 0 else 0)

    return HostFunction(1, 1, impl)


def install_base_types(world):
    """Register the base types with ``register_defdata``, each as its own
    ``BaseRef``, like any other type: an entry, ``Xp``, ``nth-X`` and an edge
    to ``all``. Only what no defdata adds is done here: the names type code
    reads, ``real/rationalp`` as another name for ``rationalp``, and the
    containments among the base types (``BASE_EDGES``)."""
    world.namespace.update(_TYPE_PRELUDE)
    register_defdata(world, [(name, BaseRef(name)) for name in BASE_TYPES])
    world.add_function("real/rationalp", world.functions["rationalp"])
    world.types.recognizer_index["real/rationalp"] = "rational"
    for t1, t2 in BASE_EDGES:
        world.subtypes.add_edge(t1, t2)


# ---------------------------------------------------------------------------
# subtype edges and minimal-type selection


def add_subtype_edge(world, t1: str, t2: str, trust: bool = False):
    """Admit the containment T1 <= T2, after an enumerated evidence check.

    The check runs recognize(t2, enumerate(t1, i)) for i in [0, N). Following
    a failure the edge is rejected with the witness index and value, and an
    index whose enumeration or recognition raises, or overflows the Python
    stack, rejects it too. ``trust`` skips the check (for curated corpus
    files).
    """
    for name in (t1, t2):
        if name not in world.types.entries:
            raise UnknownTypeError(name)
    if not trust:
        n_trials = world.settings.evidence_trials
        entry = world.types.entries[t1]
        if entry.size is not None:
            n_trials = min(n_trials, entry.size)
        # the slots are looked up once, and read on every call: each replaces
        # itself on its first
        decode = lazy_slot(world, "e_", t1, _decoder)
        rec = lazy_slot(world, "r_", t2, _recognizer)
        for i in range(n_trials):
            try:
                v, ok = _evidence(world, decode, rec, i)
            except EvaluationError as e:
                raise DatadefError(
                    f"cannot admit {t1} as a subtype of {t2}: evidence check at index {i} raised: {e}"
                ) from None
            if not ok:
                raise SubtypeEvidenceError(t1, t2, i, v)
    world.subtypes.add_edge(t1, t2)


class TypeSelection(Record):
    """Outcome of minimal-type selection for one variable's restriction list."""

    __slots__ = ("primary", "residuals")

    def __init__(self, primary: Restriction, residuals: tuple[Restriction, ...]):
        self._fill(primary, residuals)


def minimal_type(world, restrictions: list[Restriction]) -> TypeSelection:
    """Pick the strongest restriction to sample from; the rest become filters.

    Singleton restrictions always win. Among named types, a type contained in
    every other (via the subtype closure) wins; otherwise the first restriction
    is primary and the remainder act as rejection filters.
    """
    if not restrictions:
        raise ValueError("empty restriction list")
    singletons = [r for r in restrictions if isinstance(r, SingletonRestriction)]
    names = [r for r in restrictions if isinstance(r, str)]
    for name in names:
        if name not in world.types.entries:
            raise UnknownTypeError(name)
    if singletons:
        primary: Restriction = singletons[0]
        residuals = tuple(r for r in restrictions if r != primary)
        return TypeSelection(primary, residuals)
    graph = world.subtypes
    minimal = graph.minimal_among(names)
    if minimal is not None:
        residuals = tuple(n for n in names if not graph.subsumes(minimal, n))
        return TypeSelection(minimal, residuals)
    primary = names[0]
    residuals = tuple(n for n in names[1:] if not graph.subsumes(primary, n))
    return TypeSelection(primary, residuals)


def _reaches_custom(world, name: str) -> bool:
    """Whether the named type's expression, or a type it refers to, directly
    or not, is a custom type."""
    seen, todo = {name}, [name]
    while todo:
        expr = world.types.entries[todo.pop()].expr
        if isinstance(expr, CustomExpr):
            return True
        for ref in _referenced_names(expr):
            if ref not in seen:
                seen.add(ref)
                todo.append(ref)
    return False


def selection_decides(world, selection: TypeSelection, name: str) -> bool:
    """Whether a variable sampled under ``selection`` is known to satisfy the
    named type's recognizer once its residual checks pass. A residual is
    decided: its check is that very call. So is the primary type, whose
    recognizer accepts every value its decoder yields, unless it reaches a
    custom type, whose user functions may reject or raise. A type that only
    contains the primary through a subtype edge is not: a ``defdata-subtype``
    edge is checked on evidence, not proven."""
    return name in selection.residuals or (name == selection.primary and not _reaches_custom(world, name))


def component_types(world, restrictions) -> tuple[list[Restriction], list[Restriction]]:
    """Restrictions on the car and on the cdr of a pair that meets every one
    of ``restrictions``: a listof gives its element type to the car and itself
    to the cdr, a product its named components, and true-list or proper-cons
    a true-list cdr. Singletons and other shapes give nothing."""
    car_r: list[Restriction] = []
    cdr_r: list[Restriction] = []

    def name_of(expr):
        if isinstance(expr, (BaseRef, NamedRef)):
            return expr.name
        return None

    for r in restrictions:
        if not isinstance(r, str) or r not in world.types.entries:
            continue
        expr = world.types.entries[r].expr
        if isinstance(expr, ListofExpr):
            elem = name_of(expr.elem)
            if elem:
                car_r.append(elem)
            cdr_r.append(r)
        elif isinstance(expr, ProductExpr):
            head = name_of(expr.car)
            if head:
                car_r.append(head)
            tail = name_of(expr.cdr)
            if tail:
                cdr_r.append(tail)
        elif isinstance(expr, BaseRef) and expr.name in ("true-list", "proper-cons"):
            cdr_r.append("true-list")
    return car_r, cdr_r


# ---------------------------------------------------------------------------
# surface-syntax compilation


def compile_type_expr(sx: Sexpr, group: set[str], world) -> TypeExpr:
    if isinstance(sx, SAtom):
        v = sx.value
        if isinstance(v, Symbol) and not v.name.startswith(":"):
            name = v.name
            if name in ("t", "nil"):
                return EnumExpr((T if name == "t" else NIL,))
            if name in group:
                return NamedRef(name)
            if name in world.types.entries:
                return BaseRef(name) if name in _BASE_REC else NamedRef(name)
            raise ParseError(f"unknown type name: {name}", sx.line, sx.col)
        return EnumExpr((v,))
    items = sx.items
    if not items:
        raise ParseError("empty type expression", sx.line, sx.col)
    head = items[0]
    if not (isinstance(head, SAtom) and isinstance(head.value, Symbol)):
        raise ParseError("type expression must start with a symbol", sx.line, sx.col)
    op = head.value.name
    args = items[1:]
    if op == "quote":
        if len(args) != 1:
            raise ParseError("quote takes exactly one datum", sx.line, sx.col)
        return EnumExpr((sexpr_to_value(args[0]),))
    if op == "enum":
        if len(args) == 1 and isinstance(args[0], SList):
            values = _datum_list(unquote(args[0]), sx)
        else:
            values = [sexpr_to_value(a) for a in args]
        if not values:
            raise ParseError("enum needs at least one value", sx.line, sx.col)
        return EnumExpr(tuple(values))
    if op == "oneof":
        if not args:
            raise ParseError("oneof needs at least one branch", sx.line, sx.col)
        return OneofExpr(tuple(compile_type_expr(a, group, world) for a in args))
    if op == "cons":
        if len(args) != 2:
            raise ParseError("cons type takes exactly two components", sx.line, sx.col)
        return ProductExpr(
            compile_type_expr(args[0], group, world), compile_type_expr(args[1], group, world)
        )
    if op == "list":
        out: TypeExpr = EnumExpr((NIL,))
        for a in reversed(args):
            out = ProductExpr(compile_type_expr(a, group, world), out)
        return out
    if op == "listof":
        if len(args) != 1:
            raise ParseError("listof takes exactly one element type", sx.line, sx.col)
        return ListofExpr(compile_type_expr(args[0], group, world))
    if op == "set":
        if len(args) != 1:
            raise ParseError("set takes exactly one element type", sx.line, sx.col)
        return SetExpr(compile_type_expr(args[0], group, world))
    if op == "record":
        return RecordExpr("", tuple(_compile_field(a, group, world) for a in args))
    if op == "custom":
        if len(args) != 2 or not all(isinstance(a, SAtom) and isinstance(a.value, Symbol) for a in args):
            raise ParseError("custom takes a recognizer and an enumerator function name", sx.line, sx.col)
        return CustomExpr(args[0].value.name, args[1].value.name)
    # any other head with dotted-pair arguments is a tagged record variant
    if args and all(_is_dotted_field(a) for a in args):
        return RecordExpr(op, tuple(_compile_field(a, group, world) for a in args))
    raise ParseError(f"unknown type constructor: {op}", sx.line, sx.col)


def _datum_list(sx: Sexpr, ctx: Sexpr) -> list[Value]:
    if not isinstance(sx, SList):
        raise ParseError("enum expects a list of values", ctx.line, ctx.col)
    return [sexpr_to_value(i) for i in sx.items]


def _is_dotted_field(sx: Sexpr) -> bool:
    return dotted_pair(sx) and isinstance(sx.items[0], SAtom) and isinstance(sx.items[0].value, Symbol)


def _compile_field(sx: Sexpr, group: set[str], world):
    if not _is_dotted_field(sx):
        raise ParseError("record field must look like (name . type)", sx.line, sx.col)
    fname = sx.items[0].value.name
    return (fname, compile_type_expr(sx.items[2], group, world))
