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
extent, making the enumerator periodic with period |T|.

Each type's enumerator and recognizer are compiled once, on first use, into
closures ``dec(world, n)`` and ``rec(world, v)`` memoised on its TypeEntry;
enumeration, recognition, sampling, the host functions ``Xp``/``nth-X`` in
the world's function table and subtype evidence all run them. The closures
take the world as an argument instead of holding it, so no finished world
stays alive through them, and a reference to a named type is looked up when
it is called, so mutually recursive groups need no compile order. A custom
type evaluates an application of its user-supplied functions, built once
when the type compiles.

Only this module reads a type expression, and it defines the base types'
recognizers (``natp``, ...) too, in ``install_base_types``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .evaluator import EvaluationError, HostFunction, arity_bounds, evaluate
from .reader import ParseError, SAtom, Sexpr, SList, dotted_pair, sexpr_to_value, unquote
from .terms import App, Var
from .values import (
    NIL,
    T,
    Char,
    Cons,
    Symbol,
    Value,
    boolify,
    from_list,
    is_integer,
    is_rational,
    is_true_list,
    norm_rat,
    order_key,
    print_value,
    truthy,
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


def split_indices(n: int, k: int) -> list[int]:
    """Split one natural into k component indices (right-nested unpairing)."""
    if k == 0:
        return []
    out = []
    for _ in range(k - 1):
        i, n = unpair(n)
        out.append(i)
    out.append(n)
    return out


def zigzag(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


ALPHABET62 = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
SYMBOL_ALPHABET = tuple(
    Symbol(s)
    for s in ["nil", "t", "a", "b", "c", "x", "y", "z", "foo", "bar", "baz", "u", "v", "w", "p", "q"]
)


# ---------------------------------------------------------------------------
# type expressions


@dataclass(frozen=True)
class BaseRef:
    name: str


@dataclass(frozen=True)
class NamedRef:
    name: str


@dataclass(frozen=True)
class EnumExpr:
    values: tuple[Value, ...]


@dataclass(frozen=True)
class OneofExpr:
    branches: tuple["TypeExpr", ...]
    base_branch: int = 0


@dataclass(frozen=True)
class ProductExpr:
    car: "TypeExpr"
    cdr: "TypeExpr"


@dataclass(frozen=True)
class ListofExpr:
    elem: "TypeExpr"


@dataclass(frozen=True)
class SetExpr:
    elem: "TypeExpr"


@dataclass(frozen=True)
class RecordExpr:
    tag: str
    fields: tuple[tuple[str, "TypeExpr"], ...]


@dataclass(frozen=True)
class CustomExpr:
    recognizer: str
    enumerator: str


TypeExpr = (
    BaseRef | NamedRef | EnumExpr | OneofExpr | ProductExpr | ListofExpr | SetExpr
    | RecordExpr | CustomExpr
)


@dataclass(frozen=True)
class SingletonRestriction:
    """A variable pinned to one value by an equality hypothesis."""

    value: Value


Restriction = str | SingletonRestriction


def print_restriction(r: Restriction, upcase: bool = False) -> str:
    """A type name, or a singleton's value; ``upcase`` as for ``print_value``."""
    if isinstance(r, SingletonRestriction):
        return print_value(r.value, upcase)
    return r.upper() if upcase else r


@dataclass
class TypeEntry:
    name: str
    expr: TypeExpr
    extent: Optional[tuple[Value, ...]] = None  # the values of a finite type
    # compiled on first use: dec(world, n) enumerates, rec(world, v) recognizes
    dec: Optional[Callable] = field(default=None, repr=False, compare=False)
    rec: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> Optional[int]:
        return len(self.extent) if self.extent is not None else None


@dataclass
class TypeTable:
    entries: dict[str, TypeEntry] = field(default_factory=dict)
    recognizer_index: dict[str, str] = field(default_factory=dict)


BASE_EDGES = (
    ("pos", "nat"), ("nat", "integer"), ("neg", "integer"),
    ("integer", "rational"), ("boolean", "symbol"), ("proper-cons", "true-list"),
)


# ---------------------------------------------------------------------------
# compilation: a type's enumerator becomes dec(world, n) -> value and its
# recognizer rec(world, v) -> bool. The world is an argument, never captured,
# so compiled code keeps no finished world alive; a NamedRef is looked up when
# it is called, so a mutually recursive group compiles in any order.


def _decoder(world, name: str):
    entry = world.types.entries.get(name)
    if entry is None:
        raise UnknownTypeError(name)
    if entry.dec is None:
        extent = entry.extent
        if extent is None:
            entry.dec = _compile_dec(entry.expr)
        else:
            size = len(extent)
            entry.dec = lambda world, n: extent[n % size]
    return entry.dec


def _recognizer(world, name: str):
    entry = world.types.entries.get(name)
    if entry is None:
        raise UnknownTypeError(name)
    if entry.rec is None:
        extent = entry.extent
        if extent is None:
            entry.rec = _compile_rec(entry.expr)
        else:
            entry.rec = lambda world, v: v in extent
    return entry.rec


def _decode_items(elem, world, n: int) -> list[Value]:
    """The elements a list index encodes: 0 is empty, n+1 unpairs into the
    head's index and the tail's."""
    items = []
    while n > 0:
        head, n = unpair(n - 1)
        items.append(elem(world, head))
    return items


def _dec_listof(elem):
    return lambda world, n: from_list(_decode_items(elem, world, n))


def _dec_rational(world, n: int) -> Value:
    i, j = unpair(n)
    return zigzag(i) if j == 0 else norm_rat(Fraction(zigzag(i), j + 1))


def _dec_string(world, n: int) -> str:
    chars = []
    while n > 0:
        i, n = unpair(n - 1)
        chars.append(ALPHABET62[i % 62])
    return "".join(chars)


def _dec_symbol(world, n: int) -> Symbol:
    if n < len(SYMBOL_ALPHABET):
        return SYMBOL_ALPHABET[n]
    return Symbol(f"s{n - len(SYMBOL_ALPHABET)}")


_CHARS62 = tuple(Char(c) for c in ALPHABET62)


def _dec_all(world, n: int) -> Value:
    # branches: rational, symbol, character, string, true-list, pair
    b, inner = n % 6, n // 6
    if b < 5:
        return _ALL_BRANCHES[b](world, inner)
    i, j = unpair(inner)
    return Cons(_dec_all(world, i), _dec_all(world, j))


def _dec_proper_cons(world, n: int) -> Cons:
    i, j = unpair(n)
    return Cons(_dec_all(world, i), _dec_true_list(world, j))


_dec_true_list = _dec_listof(_dec_all)

_BASE_DEC = {
    "all": _dec_all,
    "nat": lambda world, n: n,
    "pos": lambda world, n: n + 1,
    "neg": lambda world, n: -(n + 1),
    "integer": lambda world, n: zigzag(n),
    "rational": _dec_rational,
    "boolean": lambda world, n: T if n % 2 == 0 else NIL,
    "character": lambda world, n: _CHARS62[n % 62],
    "string": _dec_string,
    "symbol": _dec_symbol,
    "true-list": _dec_true_list,
    "proper-cons": _dec_proper_cons,
}
_ALL_BRANCHES = tuple(_BASE_DEC[b] for b in ("rational", "symbol", "character", "string", "true-list"))

_BASE_REC = {
    "all": lambda world, v: True,
    "nat": lambda world, v: is_integer(v) and v >= 0,
    "pos": lambda world, v: is_integer(v) and v > 0,
    "neg": lambda world, v: is_integer(v) and v < 0,
    "integer": lambda world, v: is_integer(v),
    "rational": lambda world, v: is_rational(v),
    "boolean": lambda world, v: v == T or v == NIL,
    "symbol": lambda world, v: isinstance(v, Symbol),
    "string": lambda world, v: isinstance(v, str),
    "character": lambda world, v: isinstance(v, Char),
    "true-list": lambda world, v: is_true_list(v),
    "proper-cons": lambda world, v: isinstance(v, Cons) and is_true_list(v),
}
BASE_TYPES = tuple(_BASE_REC)


def _product_spine(expr: ProductExpr):
    """The components of a right-nested product and the type of its last cdr."""
    comps = []
    while isinstance(expr, ProductExpr):
        comps.append(expr.car)
        expr = expr.cdr
    return comps, expr


def _compile_dec(expr: TypeExpr):
    if isinstance(expr, BaseRef):
        return _BASE_DEC[expr.name]
    if isinstance(expr, NamedRef):
        name = expr.name
        return lambda world, n: _decoder(world, name)(world, n)
    if isinstance(expr, EnumExpr):
        values, size = expr.values, len(expr.values)
        return lambda world, n: values[n % size]
    if isinstance(expr, OneofExpr):
        branches = tuple(_compile_dec(b) for b in expr.branches)
        base, k = branches[expr.base_branch], len(branches)

        def oneof(world, n):
            if n == 0:
                return base(world, 0)
            return branches[n % k](world, n // k)

        return oneof
    if isinstance(expr, ProductExpr):
        cars, last = _product_spine(expr)
        comps, tail = tuple(_compile_dec(c) for c in cars), _compile_dec(last)

        def product(world, n):
            items = []
            for dec in comps:
                i, n = unpair(n)
                items.append(dec(world, i))
            return from_list(items, tail(world, n))

        return product
    if isinstance(expr, ListofExpr):
        return _dec_listof(_compile_dec(expr.elem))
    if isinstance(expr, SetExpr):
        elem = _compile_dec(expr.elem)

        def set_(world, n):
            canon = []
            for item in sorted(_decode_items(elem, world, n), key=order_key):
                if not canon or canon[-1] != item:
                    canon.append(item)
            return from_list(canon)

        return set_
    if isinstance(expr, RecordExpr):
        tag = Symbol(expr.tag)
        names = tuple(Symbol(fname) for fname, _ in expr.fields)
        fields = tuple(_compile_dec(fexpr) for _, fexpr in expr.fields)

        def record(world, n):
            indices = split_indices(n, len(fields))
            return from_list([tag] + [
                Cons(fname, dec(world, i)) for fname, dec, i in zip(names, fields, indices)
            ])

        return record
    if isinstance(expr, CustomExpr):
        call = App(expr.enumerator, (Var("n"),))
        return lambda world, n: evaluate(call, {"n": n}, world)
    raise DatadefError(f"cannot decode {expr!r}")


def _compile_rec(expr: TypeExpr):
    if isinstance(expr, BaseRef):
        return _BASE_REC[expr.name]
    if isinstance(expr, NamedRef):
        name = expr.name
        return lambda world, v: _recognizer(world, name)(world, v)
    if isinstance(expr, EnumExpr):
        values = expr.values
        return lambda world, v: v in values
    if isinstance(expr, OneofExpr):
        branches = tuple(_compile_rec(b) for b in expr.branches)

        def oneof(world, v):
            for rec in branches:
                if rec(world, v):
                    return True
            return False

        return oneof
    if isinstance(expr, ProductExpr):
        cars, last = _product_spine(expr)
        comps, tail = tuple(_compile_rec(c) for c in cars), _compile_rec(last)

        def product(world, v):
            for rec in comps:
                if not (isinstance(v, Cons) and rec(world, v.car)):
                    return False
                v = v.cdr
            return tail(world, v)

        return product
    if isinstance(expr, ListofExpr):
        elem = _compile_rec(expr.elem)

        def listof(world, v):
            while isinstance(v, Cons):
                if not elem(world, v.car):
                    return False
                v = v.cdr
            return v == NIL

        return listof
    if isinstance(expr, SetExpr):
        elem = _compile_rec(expr.elem)

        def set_(world, v):
            prev_key = None
            while isinstance(v, Cons):
                if not elem(world, v.car):
                    return False
                key = order_key(v.car)
                if prev_key is not None and not prev_key < key:
                    return False
                prev_key = key
                v = v.cdr
            return v == NIL

        return set_
    if isinstance(expr, RecordExpr):
        tag = Symbol(expr.tag)
        fields = tuple((Symbol(fname), _compile_rec(fexpr)) for fname, fexpr in expr.fields)

        def record(world, v):
            if not (isinstance(v, Cons) and v.car == tag):
                return False
            rest = v.cdr
            for fname, rec in fields:
                if not isinstance(rest, Cons):
                    return False
                cell = rest.car
                if not (isinstance(cell, Cons) and cell.car == fname and rec(world, cell.cdr)):
                    return False
                rest = rest.cdr
            return rest == NIL

        return record
    if isinstance(expr, CustomExpr):
        call = App(expr.recognizer, (Var("v"),))
        return lambda world, v: truthy(evaluate(call, {"v": v}, world))
    raise DatadefError(f"cannot recognize with {expr!r}")


# ---------------------------------------------------------------------------
# public operations


def enumerate_value(world, name: str, n: int) -> Value:
    """Total surjective map from naturals onto the named type's extent."""
    return _decoder(world, name)(world, n)


def recognize(world, name: str, v: Value) -> bool:
    return _recognizer(world, name)(world, v)


def sample(world, name: str, rng, dist: str = "geometric") -> Value:
    """Draw one value: a distribution-controlled index fed to the enumerator."""
    idx = rng.draw_index(dist)
    return _decoder(world, name)(world, idx)


# ---------------------------------------------------------------------------
# groundedness and finiteness


def _height(expr: TypeExpr, member_heights: dict[str, float]) -> float:
    if isinstance(expr, (BaseRef, EnumExpr, CustomExpr)):
        return 0
    if isinstance(expr, NamedRef):
        if expr.name in member_heights:
            h = member_heights[expr.name]
            return h + 1 if h != _UNGROUNDED else _UNGROUNDED
        return 0  # already-registered types are grounded
    if isinstance(expr, (ListofExpr, SetExpr)):
        return 0  # nil is always available
    if isinstance(expr, ProductExpr):
        return max(_height(expr.car, member_heights), _height(expr.cdr, member_heights))
    if isinstance(expr, RecordExpr):
        if not expr.fields:
            return 0
        return max(_height(f, member_heights) for _, f in expr.fields)
    if isinstance(expr, OneofExpr):
        return min(_height(b, member_heights) for b in expr.branches)
    raise DatadefError(f"no height for {expr!r}")


def _resolve_base_branches(expr: TypeExpr, member_heights) -> TypeExpr:
    """Pin each oneof's index-0 branch to its lowest-height branch."""
    if isinstance(expr, OneofExpr):
        branches = tuple(_resolve_base_branches(b, member_heights) for b in expr.branches)
        heights = [_height(b, member_heights) for b in branches]
        return OneofExpr(branches, base_branch=heights.index(min(heights)))
    if isinstance(expr, ProductExpr):
        return ProductExpr(
            _resolve_base_branches(expr.car, member_heights),
            _resolve_base_branches(expr.cdr, member_heights),
        )
    if isinstance(expr, ListofExpr):
        return ListofExpr(_resolve_base_branches(expr.elem, member_heights))
    if isinstance(expr, SetExpr):
        return SetExpr(_resolve_base_branches(expr.elem, member_heights))
    if isinstance(expr, RecordExpr):
        return RecordExpr(
            expr.tag,
            tuple((n, _resolve_base_branches(f, member_heights)) for n, f in expr.fields),
        )
    return expr


def _compute_extent(expr: TypeExpr, world) -> Optional[list[Value]]:
    """Explicit extent when finite and small, else None. Order is deterministic."""
    if isinstance(expr, EnumExpr):
        out = []
        for v in expr.values:
            if v not in out:
                out.append(v)
        return out
    if isinstance(expr, BaseRef):
        return [T, NIL] if expr.name == "boolean" else None
    if isinstance(expr, NamedRef):
        # a group member whose extent is not computed yet counts as infinite
        entry = world.types.entries[expr.name]
        return list(entry.extent) if entry.extent is not None else None
    if isinstance(expr, OneofExpr):
        out = []
        for b in expr.branches:
            sub = _compute_extent(b, world)
            if sub is None:
                return None
            for v in sub:
                if v not in out:
                    out.append(v)
            if len(out) > EXTENT_CAP:
                return None
        return out
    if isinstance(expr, ProductExpr):
        car_ext = _compute_extent(expr.car, world)
        cdr_ext = _compute_extent(expr.cdr, world)
        if car_ext is None or cdr_ext is None or len(car_ext) * len(cdr_ext) > EXTENT_CAP:
            return None
        out = []
        for a in car_ext:
            for d in cdr_ext:
                v = Cons(a, d)
                if v not in out:
                    out.append(v)
        return out
    if isinstance(expr, RecordExpr):
        field_exts = []
        total = 1
        for _, fexpr in expr.fields:
            ext = _compute_extent(fexpr, world)
            if ext is None:
                return None
            total *= max(len(ext), 1)
            if total > EXTENT_CAP:
                return None
            field_exts.append(ext)
        out = [[]]
        for ext in field_exts:
            out = [prev + [v] for prev in out for v in ext]
        values = []
        for combo in out:
            pairs = [Cons(Symbol(fname), v) for (fname, _), v in zip(expr.fields, combo)]
            rec = from_list([Symbol(expr.tag)] + pairs)
            if rec not in values:
                values.append(rec)
        return values
    return None  # listof, set, custom: infinite or unknown


def _finite_extent(expr: TypeExpr, world) -> Optional[tuple[Value, ...]]:
    """A type entry's ``extent``: its values when finite and small, else None."""
    extent = _compute_extent(expr, world)
    return tuple(extent) if extent is not None and len(extent) <= EXTENT_CAP else None


# ---------------------------------------------------------------------------
# registration


def _referenced_names(expr: TypeExpr):
    if isinstance(expr, NamedRef):
        yield expr.name
    elif isinstance(expr, OneofExpr):
        for b in expr.branches:
            yield from _referenced_names(b)
    elif isinstance(expr, ProductExpr):
        yield from _referenced_names(expr.car)
        yield from _referenced_names(expr.cdr)
    elif isinstance(expr, (ListofExpr, SetExpr)):
        yield from _referenced_names(expr.elem)
    elif isinstance(expr, RecordExpr):
        for _, f in expr.fields:
            yield from _referenced_names(f)


def _auto_subtype_edges(world, name: str, expr: TypeExpr):
    """Syntactically evident containments, admitted without an evidence run."""
    graph = world.subtypes
    graph.add_edge(name, "all")
    if isinstance(expr, (ListofExpr, SetExpr)):
        graph.add_edge(name, "true-list")
    if isinstance(expr, RecordExpr):
        graph.add_edge(name, "proper-cons")
    if isinstance(expr, ProductExpr):
        tail = expr
        while isinstance(tail, ProductExpr):
            tail = tail.cdr
        if tail == EnumExpr((NIL,)):
            graph.add_edge(name, "proper-cons")
    if isinstance(expr, EnumExpr):
        for base in BASE_TYPES:
            if base != "all" and all(_BASE_REC[base](world, v) for v in expr.values):
                graph.add_edge(name, base)
    if isinstance(expr, NamedRef):
        # a direct alias has exactly the other type's extent
        graph.add_edge(name, expr.name)
        graph.add_edge(expr.name, name)
    if isinstance(expr, BaseRef):
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
                lo, hi = bounds
                if lo > 1 or (hi is not None and hi < 1):
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

    # groundedness fixpoint over the group
    heights: dict[str, float] = {name: _UNGROUNDED for name in group}
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

    resolved = [(name, _resolve_base_branches(expr, heights)) for name, expr in definitions]

    # install entries first so mutual references resolve during extent checks
    for name, expr in resolved:
        world.types.entries[name] = TypeEntry(name, expr)
    for name, expr in resolved:
        world.types.entries[name].extent = _finite_extent(expr, world)

    for fname, (_, host) in hosts.items():
        world.add_function(fname, host)
    for name, expr in resolved:
        recognizer = expr.recognizer if isinstance(expr, CustomExpr) else _derived_names(name)[0]
        world.types.recognizer_index[recognizer] = name
        _auto_subtype_edges(world, name, expr)


def _derived_names(name: str) -> tuple[str, str]:
    return name + "p", "nth-" + name


def _recognizer_host(world, type_name: str) -> HostFunction:
    """``Xp``; it holds its world weakly, so a finished world is freed."""
    owner = weakref.ref(world)

    def impl(v):
        world = owner()
        return boolify(_recognizer(world, type_name)(world, v))

    return HostFunction(1, 1, impl)


def _enumerator_host(world, type_name: str) -> HostFunction:
    """``nth-X``: a non-natural index acts as 0."""
    owner = weakref.ref(world)

    def impl(n):
        if not (is_integer(n) and n >= 0):
            n = 0
        world = owner()
        return _decoder(world, type_name)(world, n)

    return HostFunction(1, 1, impl)


def install_base_types(world):
    """Register the base types like any other: an entry, a vertex, ``Xp`` and
    ``nth-X``; ``real/rationalp`` is another name for ``rationalp``."""
    for name, rec in _BASE_REC.items():
        expr = BaseRef(name)
        recog, enum = _derived_names(name)
        world.types.entries[name] = TypeEntry(name, expr, _finite_extent(expr, world))
        world.types.recognizer_index[recog] = name
        world.subtypes.add_vertex(name)
        # a base recognizer never reads its world, so it is bound directly
        world.add_function(recog, HostFunction(1, 1, lambda v, rec=rec: T if rec(None, v) else NIL))
        world.add_function(enum, _enumerator_host(world, name))
    world.add_function("real/rationalp", world.functions["rationalp"])
    world.types.recognizer_index["real/rationalp"] = "rational"
    for t1, t2 in BASE_EDGES:
        world.subtypes.add_edge(t1, t2)
    for name in BASE_TYPES:
        if name != "all":
            world.subtypes.add_edge(name, "all")


# ---------------------------------------------------------------------------
# subtype edges and minimal-type selection


def add_subtype_edge(world, t1: str, t2: str, trust: bool = False):
    """Admit the containment T1 <= T2, after an enumerated evidence check.

    The check runs recognize(t2, enumerate(t1, i)) for i in [0, N). Following
    a failure the edge is rejected with the witness index and value, and an
    index whose enumeration or recognition raises rejects it too. ``trust``
    skips the check (for curated corpus files).
    """
    for name in (t1, t2):
        if name not in world.types.entries:
            raise UnknownTypeError(name)
    if not trust:
        n_trials = world.settings.evidence_trials
        entry = world.types.entries[t1]
        if entry.size is not None:
            n_trials = min(n_trials, entry.size)
        dec, rec = _decoder(world, t1), _recognizer(world, t2)
        for i in range(n_trials):
            try:
                v = dec(world, i)
                ok = rec(world, v)
            except (EvaluationError, RecursionError) as e:
                raise DatadefError(
                    f"cannot admit {t1} as a subtype of {t2}: evidence check at index {i} raised: {e}"
                ) from None
            if not ok:
                raise SubtypeEvidenceError(t1, t2, i, v)
    world.subtypes.add_edge(t1, t2)


@dataclass(frozen=True)
class TypeSelection:
    """Outcome of minimal-type selection for one variable's restriction list."""

    primary: Restriction
    residuals: tuple[Restriction, ...]


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
        raise ParseError("record field must look like (name . type)", getattr(sx, "line", 0), getattr(sx, "col", 0))
    fname = sx.items[0].value.name
    return (fname, compile_type_expr(sx.items[2], group, world))
