"""S-expression reader: source text to positioned atoms and lists.

Surface syntax: parenthesized lists, ``;`` line comments, integer and ``p/q``
rational literals, ``"..."`` strings, ``#\\c`` characters, and the ``'x``
quote shorthand (expanded to ``(quote x)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Union

from .values import CHAR_BY_NAME, Char, Cons, Symbol, Value, from_list, norm_rat


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SAtom:
    value: Value
    line: int
    col: int


@dataclass
class SList:
    items: List["Sexpr"] = field(default_factory=list)
    line: int = 0
    col: int = 0


Sexpr = Union[SAtom, SList]

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RAT_RE = re.compile(r"[+-]?\d+/\d+\Z")
_DELIMS = set("()'\";")

# deepest list nesting the reader accepts, which keeps the recursive walks over
# what it reads (term compilation, printing, rewriting) off the Python stack
# limit; cond and c[ad]+r sugar still expand into deeper terms
MAX_NESTING = 256


def _classify_atom(text: str, line: int, col: int) -> Value:
    if _INT_RE.match(text):
        return int(text)
    if _RAT_RE.match(text):
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"rational literal with zero denominator: {text}", line, col)
        return norm_rat(Fraction(int(num), int(den)))
    return Symbol(text)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int = 1):
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def tokens(self):
        """Yield (kind, payload, line, col); kind in open/close/quote/atom/string/char."""
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in " \t\r\n":
                self._advance()
                continue
            if c == ";":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance()
                continue
            line, col = self.line, self.col
            if c == "(":
                self._advance()
                yield ("open", None, line, col)
            elif c == ")":
                self._advance()
                yield ("close", None, line, col)
            elif c == "'":
                self._advance()
                yield ("quote", None, line, col)
            elif c == '"':
                yield ("string", self._read_string(), line, col)
            elif c == "#" and self.pos + 1 < len(text) and text[self.pos + 1] == "\\":
                yield ("char", self._read_char(), line, col)
            else:
                start = self.pos
                while self.pos < len(text) and text[self.pos] not in _DELIMS and not text[self.pos].isspace():
                    self._advance()
                yield ("atom", text[start:self.pos], line, col)

    def _read_string(self) -> str:
        line, col = self.line, self.col
        self._advance()  # opening quote
        out = []
        text = self.text
        while True:
            if self.pos >= len(text):
                raise ParseError("unterminated string", line, col)
            c = text[self.pos]
            if c == '"':
                self._advance()
                return "".join(out)
            if c == "\\":
                self._advance()
                if self.pos >= len(text):
                    raise ParseError("unterminated string escape", line, col)
                esc = text[self.pos]
                if esc not in ('"', "\\"):
                    raise ParseError(f"unknown string escape \\{esc}", self.line, self.col)
                out.append(esc)
                self._advance()
            else:
                out.append(c)
                self._advance()

    def _read_char(self) -> Char:
        line, col = self.line, self.col
        self._advance(2)  # skip #\
        text = self.text
        if self.pos >= len(text):
            raise ParseError("unterminated character literal", line, col)
        start = self.pos
        self._advance()
        while self.pos < len(text) and text[self.pos].isalnum():
            self._advance()
        name = text[start:self.pos]
        if len(name) == 1:
            return Char(name)
        if name in CHAR_BY_NAME:
            return Char(CHAR_BY_NAME[name])
        raise ParseError(f"unknown character name #\\{name}", line, col)


def read_sexprs(text: str) -> List[Sexpr]:
    """Read all top-level s-expressions, with positions for error reporting."""
    tokenizer = _Tokenizer(text)
    stack: List[SList] = []
    # each pending quote is (depth, line, col); a quote wraps the next datum
    quotes: List[tuple[int, int, int]] = []
    top: List[Sexpr] = []

    def emit(datum: Sexpr):
        while quotes and quotes[-1][0] == len(stack):
            _, ql, qc = quotes.pop()
            wrapper = SList([SAtom(Symbol("quote"), ql, qc), datum], ql, qc)
            datum = wrapper
        if stack:
            stack[-1].items.append(datum)
        else:
            top.append(datum)

    for kind, payload, line, col in tokenizer.tokens():
        if kind == "open":
            if len(stack) >= MAX_NESTING:
                raise ParseError(f"lists nested deeper than {MAX_NESTING} levels", line, col)
            lst = SList([], line, col)
            stack.append(lst)
        elif kind == "close":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            lst = stack.pop()
            emit(lst)
        elif kind == "quote":
            quotes.append((len(stack), line, col))
        elif kind == "string":
            emit(SAtom(payload, line, col))
        elif kind == "char":
            emit(SAtom(payload, line, col))
        else:
            emit(SAtom(_classify_atom(payload, line, col), line, col))
    if stack:
        lst = stack[0]
        raise ParseError("unbalanced '('", lst.line, lst.col)
    if quotes:
        _, ql, qc = quotes[-1]
        raise ParseError("quote mark with nothing to quote", ql, qc)
    return top


def sexpr_to_value(sx: Sexpr) -> Value:
    """Interpret an s-expression as literal data (for quoted constants)."""
    if isinstance(sx, SAtom):
        return sx.value
    items = sx.items
    # dotted pair: (a . b)
    if len(items) == 3 and isinstance(items[1], SAtom) and items[1].value == Symbol("."):
        return Cons(sexpr_to_value(items[0]), sexpr_to_value(items[2]))
    if any(isinstance(i, SAtom) and i.value == Symbol(".") for i in items):
        if len(items) >= 3 and isinstance(items[-2], SAtom) and items[-2].value == Symbol("."):
            return from_list([sexpr_to_value(i) for i in items[:-2]], sexpr_to_value(items[-1]))
        raise ParseError("misplaced '.' in datum", sx.line, sx.col)
    return from_list([sexpr_to_value(i) for i in items])
