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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .evaluator import apply_function, arity_bounds, is_callable_name
from .reader import ParseError, SAtom, Sexpr, SList, sexpr_to_value
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
class SingletonExpr:
    value: Value


@dataclass(frozen=True)
class CustomExpr:
    recognizer: str
    enumerator: str


TypeExpr = (
    BaseRef | NamedRef | EnumExpr | OneofExpr | ProductExpr | ListofExpr | SetExpr
    | RecordExpr | SingletonExpr | CustomExpr
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
    kind: str  # "finite" | "infinite"
    extent: Optional[tuple[Value, ...]] = None

    @property
    def size(self) -> Optional[int]:
        return len(self.extent) if self.extent is not None else None


@dataclass
class TypeTable:
    entries: dict[str, TypeEntry] = field(default_factory=dict)
    recognizer_index: dict[str, str] = field(default_factory=dict)


BASE_TYPES = (
    "all", "nat", "pos", "neg", "integer", "rational", "boolean",
    "symbol", "string", "character", "true-list", "proper-cons",
)

BASE_RECOGNIZER = {
    "all": "allp", "nat": "natp", "pos": "posp", "neg": "negp",
    "integer": "integerp", "rational": "rationalp", "boolean": "booleanp",
    "symbol": "symbolp", "string": "stringp", "character": "characterp",
    "true-list": "true-listp", "proper-cons": "proper-consp",
}

BASE_EDGES = (
    ("pos", "nat"), ("nat", "integer"), ("neg", "integer"),
    ("integer", "rational"), ("boolean", "symbol"), ("proper-cons", "true-list"),
)


# ---------------------------------------------------------------------------
# decoding (enumerators)


def _decode_base(world, name: str, n: int) -> Value:
    if name == "nat":
        return n
    if name == "pos":
        return n + 1
    if name == "neg":
        return -(n + 1)
    if name == "integer":
        return zigzag(n)
    if name == "rational":
        i, j = unpair(n)
        return norm_rat(Fraction(zigzag(i), j + 1))
    if name == "boolean":
        return T if n % 2 == 0 else NIL
    if name == "character":
        return Char(ALPHABET62[n % 62])
    if name == "string":
        chars = []
        while n > 0:
            i, n = unpair(n - 1)
            chars.append(ALPHABET62[i % 62])
        return "".join(chars)
    if name == "symbol":
        if n < len(SYMBOL_ALPHABET):
            return SYMBOL_ALPHABET[n]
        return Symbol(f"s{n - len(SYMBOL_ALPHABET)}")
    if name == "true-list":
        return _decode_listof(world, BaseRef("all"), n)
    if name == "proper-cons":
        i, j = unpair(n)
        return Cons(_decode(world, BaseRef("all"), i), _decode_base(world, "true-list", j))
    if name == "all":
        # branches: rational, symbol, character, string, true-list, pair
        b, inner = (0, 0) if n == 0 else (n % 6, n // 6)
        if b == 0:
            return _decode_base(world, "rational", inner)
        if b == 1:
            return _decode_base(world, "symbol", inner)
        if b == 2:
            return _decode_base(world, "character", inner)
        if b == 3:
            return _decode_base(world, "string", inner)
        if b == 4:
            return _decode_base(world, "true-list", inner)
        i, j = unpair(inner)
        return Cons(_decode_base(world, "all", i), _decode_base(world, "all", j))
    raise UnknownTypeError(name)


def _decode_listof(world, elem: TypeExpr, n: int) -> Value:
    items = []
    while n > 0:
        head_idx, n = unpair(n - 1)
        items.append(_decode(world, elem, head_idx))
    return from_list(items)


def _decode(world, expr: TypeExpr, n: int) -> Value:
    if isinstance(expr, BaseRef):
        return _decode_base(world, expr.name, n)
    if isinstance(expr, NamedRef):
        return enumerate_value(world, expr.name, n)
    if isinstance(expr, EnumExpr):
        return expr.values[n % len(expr.values)]
    if isinstance(expr, SingletonExpr):
        return expr.value
    if isinstance(expr, OneofExpr):
        k = len(expr.branches)
        if n == 0:
            return _decode(world, expr.branches[expr.base_branch], 0)
        return _decode(world, expr.branches[n % k], n // k)
    if isinstance(expr, ProductExpr):
        i, j = unpair(n)
        return Cons(_decode(world, expr.car, i), _decode(world, expr.cdr, j))
    if isinstance(expr, ListofExpr):
        return _decode_listof(world, expr.elem, n)
    if isinstance(expr, SetExpr):
        raw = _decode_listof(world, expr.elem, n)
        items = []
        v = raw
        while isinstance(v, Cons):
            items.append(v.car)
            v = v.cdr
        canon = []
        for item in sorted(items, key=order_key):
            if not canon or canon[-1] != item:
                canon.append(item)
        return from_list(canon)
    if isinstance(expr, RecordExpr):
        indices = split_indices(n, len(expr.fields))
        pairs = [
            Cons(Symbol(fname), _decode(world, fexpr, idx))
            for (fname, fexpr), idx in zip(expr.fields, indices)
        ]
        return from_list([Symbol(expr.tag)] + pairs)
    if isinstance(expr, CustomExpr):
        return apply_function(expr.enumerator, [n], world)
    raise DatadefError(f"cannot decode {expr!r}")


# ---------------------------------------------------------------------------
# recognition


def _recognize_base(world, name: str, v: Value) -> bool:
    if name == "all":
        return True
    if name == "nat":
        return is_integer(v) and v >= 0
    if name == "pos":
        return is_integer(v) and v > 0
    if name == "neg":
        return is_integer(v) and v < 0
    if name == "integer":
        return is_integer(v)
    if name == "rational":
        return is_rational(v)
    if name == "boolean":
        return v == T or v == NIL
    if name == "symbol":
        return isinstance(v, Symbol)
    if name == "string":
        return isinstance(v, str)
    if name == "character":
        return isinstance(v, Char)
    if name == "true-list":
        return is_true_list(v)
    if name == "proper-cons":
        return isinstance(v, Cons) and is_true_list(v)
    raise UnknownTypeError(name)


def _recognize(world, expr: TypeExpr, v: Value) -> bool:
    if isinstance(expr, BaseRef):
        return _recognize_base(world, expr.name, v)
    if isinstance(expr, NamedRef):
        return recognize(world, expr.name, v)
    if isinstance(expr, EnumExpr):
        return v in expr.values
    if isinstance(expr, SingletonExpr):
        return v == expr.value
    if isinstance(expr, OneofExpr):
        return any(_recognize(world, b, v) for b in expr.branches)
    if isinstance(expr, ProductExpr):
        return (
            isinstance(v, Cons)
            and _recognize(world, expr.car, v.car)
            and _recognize(world, expr.cdr, v.cdr)
        )
    if isinstance(expr, ListofExpr):
        while isinstance(v, Cons):
            if not _recognize(world, expr.elem, v.car):
                return False
            v = v.cdr
        return v == NIL
    if isinstance(expr, SetExpr):
        prev_key = None
        while isinstance(v, Cons):
            if not _recognize(world, expr.elem, v.car):
                return False
            key = order_key(v.car)
            if prev_key is not None and not prev_key < key:
                return False
            prev_key = key
            v = v.cdr
        return v == NIL
    if isinstance(expr, RecordExpr):
        if not (isinstance(v, Cons) and v.car == Symbol(expr.tag)):
            return False
        rest = v.cdr
        for fname, fexpr in expr.fields:
            if not isinstance(rest, Cons):
                return False
            cell = rest.car
            if not (isinstance(cell, Cons) and cell.car == Symbol(fname)):
                return False
            if not _recognize(world, fexpr, cell.cdr):
                return False
            rest = rest.cdr
        return rest == NIL
    if isinstance(expr, CustomExpr):
        return truthy(apply_function(expr.recognizer, [v], world))
    raise DatadefError(f"cannot recognize with {expr!r}")


# ---------------------------------------------------------------------------
# public operations


def enumerate_value(world, name: str, n: int) -> Value:
    """Total surjective map from naturals onto the named type's extent."""
    entry = world.types.entries.get(name)
    if entry is None:
        raise UnknownTypeError(name)
    if entry.extent is not None:
        return entry.extent[n % len(entry.extent)]
    return _decode(world, entry.expr, n)


def recognize(world, name: str, v: Value) -> bool:
    entry = world.types.entries.get(name)
    if entry is None:
        raise UnknownTypeError(name)
    if entry.extent is not None:
        return v in entry.extent
    return _recognize(world, entry.expr, v)


def sample(world, name: str, rng, dist: str = "geometric") -> Value:
    """Draw one value: a distribution-controlled index fed to the enumerator."""
    idx = rng.draw_index(dist)
    return enumerate_value(world, name, idx)


# ---------------------------------------------------------------------------
# groundedness and finiteness


def _height(expr: TypeExpr, member_heights: dict[str, float], world) -> float:
    if isinstance(expr, (BaseRef, EnumExpr, SingletonExpr, CustomExpr)):
        return 0
    if isinstance(expr, NamedRef):
        if expr.name in member_heights:
            h = member_heights[expr.name]
            return h + 1 if h != _UNGROUNDED else _UNGROUNDED
        return 0  # already-registered types are grounded
    if isinstance(expr, (ListofExpr, SetExpr)):
        return 0  # nil is always available
    if isinstance(expr, ProductExpr):
        return max(_height(expr.car, member_heights, world), _height(expr.cdr, member_heights, world))
    if isinstance(expr, RecordExpr):
        if not expr.fields:
            return 0
        return max(_height(f, member_heights, world) for _, f in expr.fields)
    if isinstance(expr, OneofExpr):
        return min(_height(b, member_heights, world) for b in expr.branches)
    raise DatadefError(f"no height for {expr!r}")


def _resolve_base_branches(expr: TypeExpr, member_heights, world) -> TypeExpr:
    """Pin each oneof's index-0 branch to its lowest-height branch."""
    if isinstance(expr, OneofExpr):
        branches = tuple(_resolve_base_branches(b, member_heights, world) for b in expr.branches)
        heights = [_height(b, member_heights, world) for b in branches]
        return OneofExpr(branches, base_branch=heights.index(min(heights)))
    if isinstance(expr, ProductExpr):
        return ProductExpr(
            _resolve_base_branches(expr.car, member_heights, world),
            _resolve_base_branches(expr.cdr, member_heights, world),
        )
    if isinstance(expr, ListofExpr):
        return ListofExpr(_resolve_base_branches(expr.elem, member_heights, world))
    if isinstance(expr, SetExpr):
        return SetExpr(_resolve_base_branches(expr.elem, member_heights, world))
    if isinstance(expr, RecordExpr):
        return RecordExpr(
            expr.tag,
            tuple((n, _resolve_base_branches(f, member_heights, world)) for n, f in expr.fields),
        )
    return expr


def _compute_extent(expr: TypeExpr, group: set[str], world) -> Optional[list[Value]]:
    """Explicit extent when finite and small, else None. Order is deterministic."""
    if isinstance(expr, EnumExpr):
        out = []
        for v in expr.values:
            if v not in out:
                out.append(v)
        return out
    if isinstance(expr, SingletonExpr):
        return [expr.value]
    if isinstance(expr, BaseRef):
        return [T, NIL] if expr.name == "boolean" else None
    if isinstance(expr, NamedRef):
        if expr.name in group:
            return None
        entry = world.types.entries[expr.name]
        return list(entry.extent) if entry.extent is not None else None
    if isinstance(expr, OneofExpr):
        out = []
        for b in expr.branches:
            sub = _compute_extent(b, group, world)
            if sub is None:
                return None
            for v in sub:
                if v not in out:
                    out.append(v)
            if len(out) > EXTENT_CAP:
                return None
        return out
    if isinstance(expr, ProductExpr):
        car_ext = _compute_extent(expr.car, group, world)
        cdr_ext = _compute_extent(expr.cdr, group, world)
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
            ext = _compute_extent(fexpr, group, world)
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
        if tail == SingletonExpr(NIL):
            graph.add_edge(name, "proper-cons")
    if isinstance(expr, SingletonExpr):
        for base in BASE_TYPES:
            if base != "all" and _recognize_base(world, base, expr.value):
                graph.add_edge(name, base)
    if isinstance(expr, EnumExpr):
        for base in BASE_TYPES:
            if base != "all" and all(_recognize_base(world, base, v) for v in expr.values):
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
    for name, expr in definitions:
        if name in world.types.entries:
            raise AdmissionError(f"duplicate type name: {name}")
        if isinstance(expr, CustomExpr):
            # the user supplies both functions; they must already exist
            for fname in (expr.recognizer, expr.enumerator):
                if not is_callable_name(world, fname):
                    raise AdmissionError(f"custom type {name}: unknown function {fname}")
                lo, hi = arity_bounds(world, fname)
                if lo > 1 or (hi is not None and hi < 1):
                    raise AdmissionError(f"custom type {name}: {fname} cannot take exactly one argument")
        else:
            recog, enum = _derived_names(name)
            for fname in (recog, enum):
                if fname in world.functions:
                    raise AdmissionError(f"defdata {name} would redefine function {fname}")
        for ref in _referenced_names(expr):
            if ref not in group and ref not in world.types.entries:
                raise AdmissionError(f"unknown referenced type: {ref}")

    # groundedness fixpoint over the group
    heights: dict[str, float] = {name: _UNGROUNDED for name in group}
    changed = True
    while changed:
        changed = False
        for name, expr in definitions:
            h = _height(expr, heights, world)
            if h < heights[name]:
                heights[name] = h
                changed = True
    for name in group:
        if heights[name] == _UNGROUNDED:
            raise AdmissionError(f"recursive data definition {name} has no base case")

    resolved = [(name, _resolve_base_branches(expr, heights, world)) for name, expr in definitions]

    # install entries first so mutual references resolve during extent checks
    for name, expr in resolved:
        world.types.entries[name] = TypeEntry(name, expr, "infinite")
    for name, expr in resolved:
        extent = _compute_extent(expr, set(), world)
        entry = world.types.entries[name]
        if extent is not None and len(extent) <= EXTENT_CAP:
            entry.kind = "finite"
            entry.extent = tuple(extent)

    for name, expr in resolved:
        recog, enum = _derived_names(name)
        if isinstance(expr, CustomExpr):
            world.types.recognizer_index[expr.recognizer] = name
            if enum not in world.functions:
                world.define_native(enum, 1, _make_enumerator_native(name))
        else:
            world.define_native(recog, 1, _make_recognizer_native(name))
            world.define_native(enum, 1, _make_enumerator_native(name))
            world.types.recognizer_index[recog] = name
        _auto_subtype_edges(world, name, expr)


def _derived_names(name: str) -> tuple[str, str]:
    return name + "p", "nth-" + name


def _make_recognizer_native(type_name: str):
    def fn(argv, world):
        return boolify(recognize(world, type_name, argv[0]))

    return fn


def _make_enumerator_native(type_name: str):
    def fn(argv, world):
        n = argv[0]
        if not (is_integer(n) and n >= 0):
            n = 0
        return enumerate_value(world, type_name, n)

    return fn


def install_base_types(world):
    for name in BASE_TYPES:
        expr = BaseRef(name)
        entry = TypeEntry(name, expr, "infinite")
        if name == "boolean":
            entry.kind = "finite"
            entry.extent = (T, NIL)
        world.types.entries[name] = entry
        world.types.recognizer_index[BASE_RECOGNIZER[name]] = name
        world.subtypes.add_vertex(name)
        world.define_native("nth-" + name, 1, _make_enumerator_native(name))
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
    a failure the edge is rejected with the witness index and value. ``trust``
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
        for i in range(n_trials):
            v = enumerate_value(world, t1, i)
            if not recognize(world, t2, v):
                raise SubtypeEvidenceError(t1, t2, i, v)
    world.subtypes.add_edge(t1, t2)


@dataclass(frozen=True)
class TypeSelection:
    """Outcome of minimal-type selection for one variable's restriction list."""

    primary: Restriction
    residuals: tuple[Restriction, ...]
    equivalents: tuple[str, ...] = ()


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
        return TypeSelection(minimal, residuals, equivalents=graph.equivalents(minimal))
    primary = names[0]
    residuals = tuple(n for n in names[1:] if not graph.subsumes(primary, n))
    return TypeSelection(primary, residuals, equivalents=graph.equivalents(primary))


# ---------------------------------------------------------------------------
# surface-syntax compilation


def compile_type_expr(sx: Sexpr, group: set[str], world) -> TypeExpr:
    if isinstance(sx, SAtom):
        v = sx.value
        if isinstance(v, Symbol) and not v.name.startswith(":"):
            name = v.name
            if name in ("t", "nil"):
                return SingletonExpr(T if name == "t" else NIL)
            if name in group:
                return NamedRef(name)
            if name in world.types.entries:
                return BaseRef(name) if name in BASE_RECOGNIZER else NamedRef(name)
            raise ParseError(f"unknown type name: {name}", sx.line, sx.col)
        return SingletonExpr(v)
    items = sx.items
    if not items:
        raise ParseError("empty type expression", sx.line, sx.col)
    head = items[0]
    if not (isinstance(head, SAtom) and isinstance(head.value, Symbol)):
        raise ParseError("type expression must start with a symbol", sx.line, sx.col)
    op = head.value.name
    args = items[1:]
    if op == "quote":
        return SingletonExpr(sexpr_to_value(args[0]))
    if op == "enum":
        if len(args) == 1 and isinstance(args[0], SList):
            inner = args[0]
            if (
                inner.items
                and isinstance(inner.items[0], SAtom)
                and inner.items[0].value == Symbol("quote")
            ):
                inner = inner.items[1]
            values = _datum_list(inner, sx)
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
        out: TypeExpr = SingletonExpr(NIL)
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
    return (
        isinstance(sx, SList)
        and len(sx.items) == 3
        and isinstance(sx.items[0], SAtom)
        and isinstance(sx.items[0].value, Symbol)
        and isinstance(sx.items[1], SAtom)
        and sx.items[1].value == Symbol(".")
    )


def _compile_field(sx: Sexpr, group: set[str], world):
    if not _is_dotted_field(sx):
        raise ParseError("record field must look like (name . type)", getattr(sx, "line", 0), getattr(sx, "col", 0))
    fname = sx.items[0].value.name
    return (fname, compile_type_expr(sx.items[2], group, world))
