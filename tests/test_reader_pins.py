"""Pinned behaviour of the reader: every node read from the corpus and the
fixtures, and the error for each of a set of malformed inputs, compared with
values recorded in ``pinned/reader.json``.

A node is recorded as its position, its kind (atom or list), and for an atom
its value's type and printed value, for a list its length. Any change to
tokenizing, positions, literal classification or a ``ParseError`` shows up
here as a diff. To record them again after an intended change (and explain it
in CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_reader_pins.py
"""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.reader import MAX_NESTING, ParseError, SAtom, read_sexprs
from sedan.values import print_value

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "pinned", "reader.json")
SOURCE_DIRS = [os.path.join(HERE, "..", "src", "sedan", "corpus"), os.path.join(HERE, "fixtures")]

# each reader message at least once, token boundaries, and literal edge cases
INPUTS = [
    # unterminated string
    '"abc',
    '(a "b c)',
    # unterminated string escape
    '"abc\\',
    '(f\n  "x\\',
    # unknown string escape, reported at the escaped character
    '"a\\nb"',
    '(a\n  "x\\q")',
    '"a\\\nb"',
    # unterminated or unknown character name
    "#\\",
    "(a #\\",
    "#\\foo",
    "(x\n #\\Spacey)",
    "#\\(abc",
    "#\\1x",
    # zero denominator
    "1/0",
    "(a -3/0)",
    "+5/00",
    # nested too deep
    "(" * (MAX_NESTING + 1) + ")" * (MAX_NESTING + 1),
    "'(" + "\n(" * MAX_NESTING + ")" * (MAX_NESTING + 1),
    # unbalanced parentheses
    ")",
    "(a))",
    "\n  )",
    "(",
    "(a (b)",
    "((a)\n",
    # a quote with nothing after it
    "'",
    "(a) '",
    "'\n; c\n",
    "''",
    # a quote before the ')' of its list; recorded after the reader began to
    # reject it (it used to quote the next datum, even in a later list)
    "(') (a)",
    "(')\n'",
    "(a '\n ; c\n)",
    "(a '')",
    # well-formed: token boundaries and literals
    "a#\\b #a # #\\  #\\( #\\a(b) #\\Newline #\\Space #\\Tab",
    'ab"cd"e a\'b x;comment\ny "a\\"b\\\\c" "multi\nline" z',
    "1/2 -3/4 +7 -0 007 1.5 .5 . 2/4 -6/3 1/ /2 +-1",
    "(a . b) (1 2 . 3) (. . .) ()",
    "'a '(1 2) ''x (quote y) '#\\a '\"s\"",
    "\r\n(a\tb)\r\n\t; trailing",
    '"\u00e9" #\\\u00e9 \u540d\u524d ;\u00e9\n\u00e9x',
    # texts that end in a comment or hold only comments or whitespace; and a
    # second '.' in a list, which the reader accepts and sexpr_to_value rejects
    "(a)\n; trailing",
    "; only a comment\n;; and another",
    " \n\t\r\n ",
    "(a . b . c)",
]


def _nodes(sx, out):
    if isinstance(sx, SAtom):
        out.append(f"{sx.line}:{sx.col} atom {type(sx.value).__name__} {print_value(sx.value)}")
    else:
        out.append(f"{sx.line}:{sx.col} list {len(sx.items)}")
        for item in sx.items:
            _nodes(item, out)
    return out


def read_record(text: str) -> list[str]:
    """Every node read from text in pre-order, or the one ParseError it raises."""
    try:
        sxs = read_sexprs(text)
    except ParseError as e:
        return [f"error {e.line}:{e.col} {e.message}"]
    out: list[str] = []
    for sx in sxs:
        _nodes(sx, out)
    return out


def source_files():
    paths = []
    for directory in SOURCE_DIRS:
        for name in sorted(os.listdir(directory)):
            if name.endswith(".lisp"):
                paths.append(os.path.join(directory, name))
    return paths


def _key(path):
    return os.path.relpath(path, os.path.join(HERE, "..")).replace(os.sep, "/")


def record():
    """The figures this file pins, computed with the code under test."""
    files = {}
    for path in source_files():
        with open(path, encoding="utf-8") as fh:
            files[_key(path)] = read_record(fh.read())
    return {"files": files, "inputs": {text: read_record(text) for text in INPUTS}}


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_every_source_file_and_input():
    golden = load_golden()
    assert sorted(golden["files"]) == sorted(_key(p) for p in source_files())
    assert sorted(golden["inputs"]) == sorted(INPUTS)


def test_source_files_read_as_pinned():
    got = record()["files"]
    for name, nodes in load_golden()["files"].items():
        assert got[name] == nodes, name


def test_inputs_read_as_pinned():
    got = record()["inputs"]
    for text, nodes in load_golden()["inputs"].items():
        assert got[text] == nodes, repr(text)


def test_pinned_inputs_raise_every_reader_message():
    errors = " ".join(r[0] for r in load_golden()["inputs"].values() if r and r[0].startswith("error"))
    for message in [
        "unterminated string", "unterminated string escape", "unknown string escape",
        "unterminated character literal", "unknown character name", "zero denominator",
        "nested deeper", "unbalanced ')'", "unbalanced '('", "quote mark with nothing to quote",
    ]:
        assert message in errors, message


_PIECES = list("()';\"\\#/.0123456789abN \t\n\r\f\v\x1c\x85\u00a0") + ["#\\", "Newline"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_every_text_reads_or_raises_a_parse_error(text):
    try:
        read_sexprs(text)
    except ParseError:
        pass


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
