"""S-expression reader: source text to positioned atoms and lists.

Surface syntax: parenthesized lists, ``;`` line comments, integer and ``p/q``
rational literals, ``"..."`` strings, ``#\\c`` characters, and the ``'x``
quote shorthand (expanded to ``(quote x)``). Every character for which
``str.isspace`` holds (form feed and no-break space included) separates
tokens. A quote must be followed by a datum in its own list: a quote just
before ``)`` or at the end of the text is a "quote mark with nothing to
quote" error at that quote.

An atom is an ``SAtom``, a ``NamedTuple`` of its value and the line and
column where it starts (the cheapest immutable record to build; nothing hashes
or compares nodes); a list is an ``SList`` of its items and position. Within one
``read_sexprs`` call each distinct atom text is classified once (integer,
rational or symbol) and later occurrences share the value; a zero
denominator raises at its first occurrence, so no error is ever shared.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from typing import List, NamedTuple, Union

from .values import CHAR_BY_NAME, NIL, Char, Symbol, Value, from_list, norm_rat


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class SAtom(NamedTuple):
    value: Value
    line: int
    col: int


class SList:
    def __init__(self, items: List[Sexpr], line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


Sexpr = Union[SAtom, SList]

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RAT_RE = re.compile(r"[+-]?\d+/\d+\Z")

# deepest list nesting the reader accepts, which keeps the recursive walks over
# what it reads (term compilation, printing, rewriting) off the Python stack
# limit; cond and c[ad]+r sugar still expand into deeper terms
MAX_NESTING = 256

_QUOTE = Symbol("quote")
_DOT = Symbol(".")


def _classify_atom(text: str, line: int, col: int) -> Value:
    if _INT_RE.match(text):
        return int(text)
    if _RAT_RE.match(text):
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"rational literal with zero denominator: {text}", line, col)
        return norm_rat(Fraction(int(num), int(den)))
    return Symbol(text)


# a string literal up to, not including, its closing quote
_STRING_PREFIX = r'"[^"\\]*(?:\\["\\][^"\\]*)*'

# one token per match. Every character but whitespace starts some group, so the
# search skips exactly the whitespace between tokens. A string or `#\` that the
# string and char groups reject falls through to `bad`, and _bad_literal says
# what is wrong with it.
_TOKEN = re.compile(
    rf"""
    (?P<comment>;[^\n]*)
    |(?P<open>\()
    |(?P<close>\))
    |(?P<quote>')
    |(?P<string>{_STRING_PREFIX}")
    |(?P<char>\#\\[\s\S][^\W_]*)
    |(?P<bad>"|\#\\)
    |(?P<atom>[^\s()'";]+)
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _position(line_starts: List[int], pos: int) -> tuple[int, int]:
    line = bisect_right(line_starts, pos)
    return line, pos - line_starts[line - 1] + 1


def _bad_literal(text: str, pos: int, line_starts: List[int]) -> ParseError:
    """The error for a string or `#\\` at pos that no token pattern accepts."""
    line, col = _position(line_starts, pos)
    if text[pos] == "#":
        return ParseError("unterminated character literal", line, col)
    end = re.compile(_STRING_PREFIX).match(text, pos).end()  # stops at the end or at a bad escape
    if end == len(text):
        return ParseError("unterminated string", line, col)
    if end + 1 == len(text):
        return ParseError("unterminated string escape", line, col)
    return ParseError(f"unknown string escape \\{text[end + 1]}", *_position(line_starts, end + 1))


def read_sexprs(text: str) -> List[Sexpr]:
    """Read all top-level s-expressions, with positions for error reporting."""
    # offsets where each line starts, then one past the end of the text
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)] + [len(text) + 1]
    line, line_start, next_line_start = 1, 0, line_starts[1]
    stack: List[SList] = []
    # each pending quote is (depth, line, col); it wraps the next datum that
    # completes at its depth, and the ')' closing that depth may not come first
    quotes: List[tuple[int, int, int]] = []
    top: List[Sexpr] = []
    items = top  # the items of the innermost open list
    atoms: dict[str, Value] = {}  # atom text -> its value, for this text only
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "comment":
            continue
        start = m.start()
        if start >= next_line_start:
            line = bisect_right(line_starts, start)
            line_start, next_line_start = line_starts[line - 1], line_starts[line]
        col = start - line_start + 1
        if kind == "atom":
            atom = m.group()
            value = atoms.get(atom)
            if value is None:
                value = atoms[atom] = _classify_atom(atom, line, col)
            datum: Sexpr = SAtom(value, line, col)
        elif kind == "open":
            if len(stack) >= MAX_NESTING:
                raise ParseError(f"lists nested deeper than {MAX_NESTING} levels", line, col)
            lst = SList([], line, col)
            stack.append(lst)
            items = lst.items
            continue
        elif kind == "close":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            if quotes and quotes[-1][0] == len(stack):
                raise ParseError("quote mark with nothing to quote", *quotes[-1][1:])
            datum = stack.pop()
            items = stack[-1].items if stack else top
        elif kind == "quote":
            quotes.append((len(stack), line, col))
            continue
        elif kind == "string":
            datum = SAtom(_ESCAPE.sub(r"\1", m.group()[1:-1]), line, col)
        elif kind == "char":
            name = m.group()[2:]
            if len(name) > 1 and name not in CHAR_BY_NAME:
                raise ParseError(f"unknown character name #\\{name}", line, col)
            datum = SAtom(Char(CHAR_BY_NAME.get(name, name)), line, col)
        else:
            raise _bad_literal(text, start, line_starts)
        while quotes and quotes[-1][0] == len(stack):
            _, ql, qc = quotes.pop()
            datum = SList([SAtom(_QUOTE, ql, qc), datum], ql, qc)
        items.append(datum)
    if stack:
        lst = stack[0]
        raise ParseError("unbalanced '('", lst.line, lst.col)
    if quotes:
        raise ParseError("quote mark with nothing to quote", *quotes[-1][1:])
    return top


def _is_dot(sx: Sexpr) -> bool:
    return type(sx) is SAtom and sx.value == _DOT


def dotted_pair(sx: Sexpr) -> bool:
    """Whether sx is written ``(a . b)``: three items, the middle one ``.``."""
    return isinstance(sx, SList) and len(sx.items) == 3 and _is_dot(sx.items[1])


def unquote(sx: Sexpr) -> Sexpr:
    """The datum x of a list ``(quote x)``; any other s-expression unchanged."""
    if type(sx) is SList and len(sx.items) == 2:
        head, datum = sx.items
        if type(head) is SAtom and type(head.value) is Symbol and head.value.name == "quote":
            return datum
    return sx


def sexpr_to_value(sx: Sexpr) -> Value:
    """Interpret an s-expression as literal data (for quoted constants)."""
    if isinstance(sx, SAtom):
        return sx.value
    items = sx.items
    tail = None
    if len(items) >= 3 and _is_dot(items[-2]):
        items, tail = items[:-2], items[-1]
    if any(_is_dot(i) for i in items):
        raise ParseError("misplaced '.' in datum", sx.line, sx.col)
    return from_list([sexpr_to_value(i) for i in items], NIL if tail is None else sexpr_to_value(tail))
