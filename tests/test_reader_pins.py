"""Pinned behaviour of the reader: every node read from the corpus and the
fixtures, and the error for each of a set of malformed inputs, compared with
values recorded in ``pinned/reader.json``. The same file pins the position and
message of each ``ParseError`` that compiling forms and type expressions
raises (``forms.compile_form`` and ``datadef.compile_type_expr``).

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

from sedan.datadef import compile_type_expr
from sedan.forms import DefdataForm, parse_forms
from sedan.reader import MAX_NESTING, ParseError, SAtom, read_sexprs
from sedan.values import print_value
from sedan.world import World

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
    # only ASCII digits make a number: these are symbols, recorded after the
    # reader stopped reading other Unicode decimal digits as numbers
    "(thm (equal \u0663 3))\n1/\u0662 -\uff13 \u00b3",
]


# each ParseError site of compile_term, compile_form, _parse_hints,
# _parse_set_testing and compile_type_expr at least once, on a line > 1 and a
# column > 1, so that a wrong line or column base shows
COMPILE_INPUTS = [
    # compile_term
    "\n (test? (x\n   ((f) y)))",
    "\n (test? (g\n   (quote a b)))",
    "\n (test? " + "(cadddr " * 65 + "x" + ")" * 65 + ")",
    "\n (test? (f\n   (second a b)))",
    "\n (test? (f\n   (cond (a))))",
    "\n (test? (cond\n" + "  (p 1)\n" * (MAX_NESTING + 1) + "))",
    "\n (test? (equal x\n   '(a . b . c)))",
    # compile_form
    "\n  foo",
    "\n ()",
    '\n ("a" b)',
    "\n (defun f (x))",
    "\n (defun (f) (x) x)",
    "\n (defun f x x)",
    "\n (defun f (x\n   :k) x)",
    "\n (defdata)",
    "\n (defdata :foo nat)",
    "\n (defdata (a nat)\n   (b))",
    "\n (defdata (a nat) b)",
    "\n (defdata-subtype a)",
    "\n (defdata-subtype a b :trusty t)",
    "\n (defrule r)",
    '\n (defrule "r" (equal a b))',
    "\n (defrule r (equal x y))",
    "\n (thm)",
    "\n (thm (f x) :hintz ())",
    "\n (test? a b)",
    "\n (top-level-test?)",
    "\n (include foo)",
    "\n (defthing a)",
    # _parse_hints
    "\n (thm (f x) :hints a)",
    "\n (thm (f x) :hints (a))",
    "\n (thm (f x) :hints ((goal)))",
    '\n (thm (f x) :hints (("Goal" :trials)))',
    '\n (thm (f x) :hints (("Goal" 5 6)))',
    '\n (thm (f x) :hints (("Goal" :do-not simplify)))',
    '\n (thm (f x) :hints (("Goal" :do-not\n   (simplify 5))))',
    '\n (thm (f x) :hints \'(("Goal" :do-not (fly))))',
    '\n (thm (f x) :hints (("Goal" :trials 0)))',
    '\n (thm (f x) :hints (("Goal"\n   :backtrack "h")))',
    '\n (thm (f x) :hints (("Goal" :speed 1)))',
    # _parse_set_testing
    "\n (set-testing :trials)",
    "\n (set-testing 5 6)",
    "\n (set-testing :speed 1)",
    "\n (set-testing :trials (5))",
    "\n (set-testing :trials -1)",
    "\n (set-testing :deterministic 1)",
    "\n (set-testing :mode fast)",
    # compile_type_expr, against a world with only the base types
    "\n (defdata a\n   (listof b))",
    "\n (defdata a\n   (oneof ()))",
    "\n (defdata a\n   (5 nat))",
    "\n (defdata a\n   (quote x y))",
    "\n (defdata a\n   (enum))",
    "\n (defdata a\n   (oneof))",
    "\n (defdata a\n   (cons nat))",
    "\n (defdata a\n   (listof nat nat))",
    "\n (defdata a\n   (set))",
    "\n (defdata a\n   (custom f))",
    "\n (defdata a\n   (frob nat))",
    "\n (defdata a\n   (enum 'x))",
    "\n (defdata a\n   (record (x nat)))",
    "\n (defdata a\n   (enum a (b . c . d)))",
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


def compile_record(text: str) -> list[str]:
    """The ParseError that parsing text, then compiling each of its defdata
    forms' type expressions against a fresh world, raises first; or ``ok``."""
    try:
        for form in parse_forms(text):
            if isinstance(form, DefdataForm):
                group = {name for name, _ in form.definitions}
                for _, sx in form.definitions:
                    compile_type_expr(sx, group, World())
    except ParseError as e:
        return [f"error {e.line}:{e.col} {e.message}"]
    return ["ok"]


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
    return {
        "files": files,
        "inputs": {text: read_record(text) for text in INPUTS},
        "compile_errors": {text: compile_record(text) for text in COMPILE_INPUTS},
    }


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_every_source_file_and_input():
    golden = load_golden()
    assert sorted(golden["files"]) == sorted(_key(p) for p in source_files())
    assert sorted(golden["inputs"]) == sorted(INPUTS)
    assert sorted(golden["compile_errors"]) == sorted(COMPILE_INPUTS)


def test_source_files_read_as_pinned():
    got = record()["files"]
    for name, nodes in load_golden()["files"].items():
        assert got[name] == nodes, name


def test_inputs_read_as_pinned():
    got = record()["inputs"]
    for text, nodes in load_golden()["inputs"].items():
        assert got[text] == nodes, repr(text)


def test_compile_errors_are_pinned():
    got = record()["compile_errors"]
    for text, errors in load_golden()["compile_errors"].items():
        assert got[text] == errors, repr(text)


def test_each_pinned_compile_error_is_past_the_first_line_and_column():
    for text, errors in load_golden()["compile_errors"].items():
        assert errors[0].startswith("error "), repr(text)
        line, col = errors[0].split()[1].split(":")
        assert int(line) > 1 and int(col) > 1, repr(text)


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
