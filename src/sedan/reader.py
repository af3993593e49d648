"""S-expression reader: source text to atoms and lists that know their place.

Surface syntax: parenthesized lists, ``;`` line comments, integer and ``p/q``
rational literals in ASCII digits, ``"..."`` strings, ``#\\c`` characters,
and the ``'x`` quote shorthand (expanded to ``(quote x)``). Every character
for which ``str.isspace`` holds (form feed and no-break space included)
separates tokens. A quote must be followed by a datum in its own list: a
quote just before ``)`` or at the end of the text is a "quote mark with
nothing to quote" error at that quote.

``read_sexprs`` splits the text into token strings with one ``findall`` and
walks them once. A node records one integer, the index of its first token,
beside the ``Source`` it was read from; its ``line`` and ``col`` are worked out
only when read (by an error message, a pin or a test), from the tokens'
offsets and a ``bisect`` over the line starts, both computed for a source the
first time any of its positions is asked for. An atom (``SAtom``) holds its
value, its printed text, its token index and its source; a list (``SList``)
holds its items, its token index and its source. Both are ``__slots__``
records that the reader fills in place, so building a node runs no Python
constructor. Within one call each distinct atom text is classified once
(integer, rational, string, character or symbol) and printed once, and later
occurrences share both; a zero denominator raises at its first occurrence, so
no error is ever shared.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from typing import List, Optional, Union

from .values import CHAR_BY_NAME, NIL, Char, Symbol, Value, from_list, norm_rat, print_value


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Source:
    """The text one ``read_sexprs`` call read, and where its tokens start."""

    __slots__ = ("text", "_offsets", "_line_starts")

    def __init__(self, text: str):
        self.text = text
        self._offsets: Optional[List[int]] = None

    def _tables(self) -> tuple[List[int], List[int]]:
        if self._offsets is None:
            text = self.text
            self._offsets = [m.start() for m in _TOKEN.finditer(text)]
            # offsets where each line starts, then one past the end of the text
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", text)] + [len(text) + 1]
        return self._offsets, self._line_starts

    def offset(self, index: int) -> int:
        """Where the token at index starts in the text."""
        return self._tables()[0][index]

    def position(self, index: int) -> tuple[int, int]:
        """The line and column, from 1, where the token at index starts."""
        return self.position_of(self.offset(index))

    def position_of(self, offset: int) -> tuple[int, int]:
        line_starts = self._tables()[1]
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, *self.position(index))


# a node's position, worked out from its token index when read
_line = property(lambda node: node.source.position(node.index)[0], doc="The line, from 1, where the node starts.")
_col = property(lambda node: node.source.position(node.index)[1], doc="The column, from 1, where the node starts.")


class SAtom:
    """An atom: its value, its printed text (the value as ``print_value``
    writes it, a symbol as its name), its token index and its source. The
    reader fills its slots, and nothing changes them after."""

    __slots__ = ("value", "printed", "index", "source")
    line = _line
    col = _col


class SList:
    """A list: its items, its first token's index and its source. The reader
    fills its slots, and nothing changes them after."""

    __slots__ = ("items", "index", "source")
    line = _line
    col = _col


Sexpr = Union[SAtom, SList]

_NUMBER = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")

# deepest list nesting the reader accepts, which keeps the recursive walks over
# what it reads (term compilation, printing, rewriting) off the Python stack
# limit; cond and c[ad]+r sugar still expand into deeper terms
MAX_NESTING = 256

_QUOTE = Symbol("quote")
_DOT = Symbol(".")


def _classify_atom(text: str) -> Value:
    """The value an atom's text stands for; a zero denominator raises
    ``ZeroDivisionError``."""
    m = _NUMBER.match(text)
    if m is None:
        return Symbol(text)
    num, den = m.groups()
    if den is None:
        return int(num)
    return norm_rat(Fraction(int(num), int(den)))


# a string literal up to, not including, its closing quote
_STRING_PREFIX = r'"[^"\\]*(?:\\["\\][^"\\]*)*'

# one token per match: a paren or quote mark, a character, a complete string,
# the `"` or `#\` that starts a literal the string and char patterns reject, a
# comment, or an atom. Every character but whitespace starts some alternative,
# so the search skips exactly the whitespace between tokens.
_TOKEN = re.compile(rf"""\(|\)|'|\#\\[\s\S][^\W_]*|{_STRING_PREFIX}"|"|\#\\|;[^\n]*|[^\s()'";]+""")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _bad_literal(source: Source, index: int) -> ParseError:
    """The error for the string or `#\\` at index that no token pattern accepts."""
    text, pos = source.text, source.offset(index)
    if text[pos] == "#":
        return ParseError("unterminated character literal", *source.position_of(pos))
    end = re.compile(_STRING_PREFIX).match(text, pos).end()  # stops at the end or at a bad escape
    if end == len(text):
        return ParseError("unterminated string", *source.position_of(pos))
    if end + 1 == len(text):
        return ParseError("unterminated string escape", *source.position_of(pos))
    return ParseError(f"unknown string escape \\{text[end + 1]}", *source.position_of(end + 1))


def _literal(tok: str, source: Source, index: int) -> tuple[Value, str]:
    """The value and printed text of the string, character or atom token tok."""
    first = tok[0]
    if first == '"':
        if len(tok) == 1:
            raise _bad_literal(source, index)
        value: Value = tok[1:-1]
        if "\\" in value:
            value = _ESCAPE.sub(r"\1", value)
        return value, print_value(value)
    if first == "#" and tok[1:2] == "\\":
        name = tok[2:]
        if not name:
            raise _bad_literal(source, index)
        if len(name) > 1 and name not in CHAR_BY_NAME:
            raise source.error(f"unknown character name #\\{name}", index)
        value = Char(CHAR_BY_NAME.get(name, name))
        return value, print_value(value)
    try:
        value = _classify_atom(tok)
    except ZeroDivisionError:
        raise source.error(f"rational literal with zero denominator: {tok}", index) from None
    return value, tok if type(value) is Symbol else print_value(value)


def _quoted(datum: Sexpr, index: int, source: Source) -> SList:
    """The list ``(quote datum)`` that the quote mark at index stands for."""
    quote, lst = SAtom(), SList()
    quote.value, quote.printed, quote.index, quote.source = _QUOTE, "quote", index, source
    lst.items, lst.index, lst.source = [quote, datum], index, source
    return lst


def read_sexprs(text: str) -> List[Sexpr]:
    """Read all top-level s-expressions; each node can say where it starts."""
    source = Source(text)
    stack: List[SList] = []
    # each pending quote is (depth, index); it wraps the next datum that
    # completes at its depth, and the ')' closing that depth may not come
    # first. It stands for a list, (quote datum), so it counts as a level of
    # nesting.
    quotes: List[tuple[int, int]] = []
    top: List[Sexpr] = []
    items = top  # the items of the innermost open list
    atoms: dict[str, tuple[Value, str]] = {}  # atom text -> its value and printed text, for this text only
    for index, tok in enumerate(_TOKEN.findall(text)):
        if tok == "(":
            if len(stack) + len(quotes) >= MAX_NESTING:
                raise source.error(f"lists nested deeper than {MAX_NESTING} levels", index)
            items = []
            lst = SList()
            lst.items, lst.index, lst.source = items, index, source
            stack.append(lst)
            continue
        if tok == ")":
            if not stack:
                raise source.error("unbalanced ')'", index)
            if quotes and quotes[-1][0] == len(stack):
                raise source.error("quote mark with nothing to quote", quotes[-1][1])
            datum: Sexpr = stack.pop()
            items = stack[-1].items if stack else top
        else:
            atom = atoms.get(tok)
            if atom is None:
                if tok == "'":
                    if len(stack) + len(quotes) >= MAX_NESTING:
                        raise source.error(f"lists nested deeper than {MAX_NESTING} levels", index)
                    quotes.append((len(stack), index))
                    continue
                if tok[0] == ";":
                    continue
                atom = atoms[tok] = _literal(tok, source, index)
            datum = SAtom()
            datum.value, datum.printed = atom
            datum.index, datum.source = index, source
        while quotes and quotes[-1][0] == len(stack):
            qi = quotes.pop()[1]
            datum = _quoted(datum, qi, source)
        items.append(datum)
    if stack:
        raise source.error("unbalanced '('", stack[0].index)
    if quotes:
        raise source.error("quote mark with nothing to quote", quotes[-1][1])
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
