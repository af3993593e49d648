from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.forms import parse_forms, print_form
from sedan.reader import MAX_NESTING, ParseError, SAtom, read_sexprs, sexpr_to_value
from sedan.terms import App, Quote, Var, app, print_term
from sedan.values import NIL, T, Char, Cons, Symbol, from_list, norm_rat, print_value

from conftest import term
from oracle import SAtom as oracle_atom
from oracle import read_sexprs_by_match


def test_empty_input_gives_no_forms():
    assert parse_forms("") == []
    assert parse_forms("; just a comment\n") == []


def test_defdata_form_parses():
    forms = parse_forms("(defdata loi (listof integer))")
    assert len(forms) == 1
    assert forms[0].definitions[0][0] == "loi"


def test_defun_form_parses():
    src = "(defun rev (x) (if (endp x) nil (append (rev (cdr x)) (list (car x)))))"
    forms = parse_forms(src)
    assert forms[0].name == "rev"
    assert forms[0].formals == ("x",)


def test_unbalanced_parens_report_position():
    with pytest.raises(ParseError) as e:
        parse_forms("(defun f (x)\n  (car x)")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_forms("(defun f (x) x))")
    assert e.value.line == 1 and e.value.col == 16


def test_nesting_past_the_cap_is_a_positioned_parse_error():
    read_sexprs("(" * MAX_NESTING + ")" * MAX_NESTING)
    # a quote mark stands for a list, (quote datum), so it is a level too
    read_sexprs("'" + "(" * (MAX_NESTING - 1) + ")" * (MAX_NESTING - 1))
    with pytest.raises(ParseError, match="nested deeper") as e:
        read_sexprs("'(" + "\n(" * MAX_NESTING + ")" * (MAX_NESTING + 1))
    assert (e.value.line, e.value.col) == (MAX_NESTING, 1)
    read_sexprs("'" * MAX_NESTING + "a")
    with pytest.raises(ParseError, match="nested deeper") as e:
        read_sexprs("(" + "'" * MAX_NESTING + "a)")
    assert (e.value.line, e.value.col) == (1, MAX_NESTING + 1)


def test_unknown_form_head_rejected():
    with pytest.raises(ParseError, match="unknown top-level form"):
        parse_forms("(defthing a b)")


def test_form_arity_violations_positioned():
    with pytest.raises(ParseError, match="defun takes"):
        parse_forms("(defun f (x))")
    with pytest.raises(ParseError, match="takes exactly one formula"):
        parse_forms("(test? a b)")


def test_literals():
    assert term("42") == Quote(42)
    assert term("-7/2") == Quote(Fraction(-7, 2))
    assert term('"hi"') == Quote("hi")
    assert term("#\\a") == Quote(Char("a"))
    assert term("#\\Newline") == Quote(Char("\n"))
    assert term("t") == Quote(T)
    assert term("nil") == Quote(NIL)
    assert term("x") == Var("x")


def test_zero_denominator_is_a_syntax_error():
    with pytest.raises(ParseError, match="zero denominator"):
        read_sexprs("1/0")


@pytest.mark.parametrize("space", ["\f", "\v", "\u00a0", "\x1c", "\x85"])
def test_every_whitespace_character_separates_atoms(space):
    # whitespace other than space, tab, CR and newline must not start an atom
    lst, atom = read_sexprs(f"{space}(a{space}b){space}c{space}")
    assert [sx.value for sx in lst.items] == [Symbol("a"), Symbol("b")]
    assert (lst.line, lst.col, atom.value, atom.col) == (1, 2, Symbol("c"), 8)


def test_a_quote_before_a_closing_paren_is_an_error_at_that_quote():
    # a pending quote must not outlive its list and quote a later datum
    with pytest.raises(ParseError, match="quote mark with nothing to quote") as e:
        read_sexprs("(') (a)")
    assert (e.value.line, e.value.col) == (1, 2)
    with pytest.raises(ParseError, match="quote mark with nothing to quote") as e:
        read_sexprs("(x\n '')\n'y")
    assert (e.value.line, e.value.col) == (2, 3)


def test_quote_shorthand():
    assert term("'foo") == Quote(Symbol("foo"))
    assert term("'(1 2)") == Quote(from_list([1, 2]))
    assert term("''x") == Quote(from_list([Symbol("quote"), Symbol("x")]))


def test_dotted_pair_data():
    assert sexpr_to_value(read_sexprs("(1 . 2)")[0]) == Cons(1, 2)
    assert sexpr_to_value(read_sexprs("(1 2 . 3)")[0]) == Cons(1, Cons(2, 3))


@pytest.mark.parametrize("text", ["(a . b . c)", "(. . b)", "(a . b c . d)", "(1 (x . y . z))", "(a .)", "(.)"])
def test_a_dot_anywhere_but_before_the_last_item_is_misplaced(text):
    # only one '.' is allowed, just before the final datum x of (... . x)
    with pytest.raises(ParseError, match="misplaced '.' in datum") as e:
        sexpr_to_value(read_sexprs("\n  " + text)[0])
    assert e.value.line == 2 and e.value.col in (3, 6)


def test_each_distinct_atom_text_is_classified_once_per_read(monkeypatch):
    import sedan.reader as reader

    calls = []
    classify = reader._classify_atom

    def counting(text):
        calls.append(text)
        return classify(text)

    monkeypatch.setattr(reader, "_classify_atom", counting)
    a, b, lst = read_sexprs("a 1/2\n(a b a\n  1/2 x)")
    assert sorted(calls) == ["1/2", "a", "b", "x"]
    # repeated atoms share a value but keep their own positions
    assert (a.value, a.line, a.col) == (Symbol("a"), 1, 1)
    assert [(sx.value, sx.line, sx.col) for sx in lst.items] == [
        (Symbol("a"), 2, 2), (Symbol("b"), 2, 4), (Symbol("a"), 2, 6), (Fraction(1, 2), 3, 3), (Symbol("x"), 3, 7),
    ]
    # the cache lives for one call only
    read_sexprs("(a)")
    assert calls.count("a") == 2


def test_a_zero_denominator_raises_at_its_first_occurrence():
    with pytest.raises(ParseError, match="zero denominator") as e:
        read_sexprs("(a 1/2\n 1/0 b 1/0)")
    assert (e.value.line, e.value.col) == (2, 2)
    with pytest.raises(ParseError, match="zero denominator") as e:
        read_sexprs("1/0 1/0")
    assert (e.value.line, e.value.col) == (1, 1)


@pytest.mark.parametrize("digit", ["\u0663", "\uff13", "\u00b3", "\u096a"])
def test_only_ascii_digits_make_a_number(digit):
    # int() takes any Unicode decimal digit, so the reader must not hand it one
    sxs = read_sexprs(f"{digit} 1/{digit} -{digit}2 +{digit}")
    assert [sx.value for sx in sxs] == [Symbol(digit), Symbol(f"1/{digit}"), Symbol(f"-{digit}2"), Symbol(f"+{digit}")]
    src = f"(thm (equal {digit} 3))"
    form = parse_forms(src)[0]
    assert form.term == app("equal", Var(digit), Quote(3))
    assert print_form(form) == src


def test_a_node_works_out_its_position_from_its_token_index():
    lst, atom = read_sexprs("; c\n  (a\n\t'b) ; d\n\u00a0x")
    quoted = lst.items[1]
    assert [(sx.line, sx.col) for sx in (lst, lst.items[0], quoted, quoted.items[0], quoted.items[1], atom)] == [
        (2, 3), (2, 4), (3, 2), (3, 2), (3, 3), (4, 2),
    ]
    assert atom.index == 7 and quoted.index == quoted.items[0].index == 3  # each comment is a token


def test_the_echo_prints_each_atom_as_the_reader_printed_it():
    src = r"""(test? (equal (f 007 -4/6 "a\"b" #\Space (quote (x . y)) '#\a) '(1 "s" 2/1)))"""
    echo = r"""(test? (equal (f 7 -2/3 "a\"b" #\Space '(x . y) '#\a) '(1 "s" 2)))"""
    assert print_form(parse_forms(src)[0]) == echo


def test_selector_sugar_expands():
    assert term("(first x)") == app("car", Var("x"))
    assert term("(second x)") == term("(car (cdr x))")
    assert term("(third x)") == term("(car (cdr (cdr x)))")
    assert term("(cadr x)") == term("(car (cdr x))")
    assert term("(cdddr x)") == term("(cdr (cdr (cdr x)))")


def test_cond_expands_to_ifs():
    assert term("(cond (p 1) (t 2))") == term("(if p 1 2)")
    assert term("(cond)") == Quote(NIL)


def test_case_sensitivity():
    assert term("Foo") == Var("Foo")
    assert term("foo") == Var("foo")
    assert term("Foo") != term("foo")


# --- print/parse round trip -------------------------------------------------

_names = st.sampled_from(["x", "y", "zz", "foo-bar", "a1"])
_values = st.recursive(
    st.one_of(
        st.integers(min_value=-999, max_value=999),
        st.fractions(min_value=-9, max_value=9, max_denominator=23).map(norm_rat),
        st.sampled_from([T, NIL, Symbol("red"), Symbol("s0")]),
        st.sampled_from([Char("a"), Char("Z"), Char(" ")]),
        st.text(alphabet="ab\"\\ c", max_size=4),
    ),
    lambda inner: st.tuples(inner, inner).map(lambda p: Cons(p[0], p[1])),
    max_leaves=6,
)

_terms = st.recursive(
    st.one_of(_names.map(Var), _values.map(Quote)),
    lambda inner: st.builds(
        lambda fn, args: App(fn, tuple(args)),
        st.sampled_from(["car", "cons", "equal", "+", "if", "len", "my-fn"]),
        st.lists(inner, min_size=1, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_print_parse_round_trip(t):
    assert term(print_term(t)) == t


@settings(max_examples=100, deadline=None)
@given(_values)
def test_value_print_parse_round_trip(v):
    sx = read_sexprs(print_value(v))
    assert len(sx) == 1
    assert sexpr_to_value(sx[0]) == v


def test_form_print_round_trip():
    src = '(thm (implies (posp n) (natp n)) :hints (("Goal" :do-not (generalize))))'
    form = parse_forms(src)[0]
    reprinted = print_form(form)
    assert parse_forms(reprinted)[0].term == form.term
    assert parse_forms(reprinted)[0].hints == form.hints


# --- the reader against the reader by Match ----------------------------------

_ATOMS = [
    "a", "foo-bar", "x1", ".", "#a", "#", "1.5", "a#\\b", "nil", ":k", "7", "-3", "+0", "007", "+-1", "1/2",
    "-6/3", "2/4", "1/", "/2", "\u0663", "1/\u0662", "\u540d",
]
_LITERALS = ['""', '"ab"', '"a\\"b"', '"x\\\\y"', '"multi\nline"', "#\\a", "#\\Space", "#\\Newline", "#\\(", "#\\\u00e9"]
_MALFORMED = ["1/0", "-3/00", '"a\\qb"', '"abc', '"a\\', "#\\foo", "#\\1x", "#\\", "'", "(", ")"]
_SPACE = [" ", "\n", "\t", "\r\n", "\f", "\v", "\x1c", "\x85", "\u00a0", "\u2003", "; c\n", ";\n"]
_PIECES = _ATOMS + _LITERALS + _MALFORMED + _SPACE


def _deep(n: int, inner: str, quoted: bool) -> str:
    return ("'" if quoted else "") + "(" * n + inner + "\n" + ")" * n


# well-formed data, each optionally quoted, with any whitespace or comment between
_datum = st.recursive(
    st.tuples(st.sampled_from(["", "'"]), st.sampled_from(_ATOMS + _LITERALS)).map("".join),
    lambda inner: st.builds(
        lambda quote, items, space: quote + "(" + space.join(items) + ")",
        st.sampled_from(["", "'", "''"]), st.lists(inner, max_size=4), st.sampled_from(_SPACE),
    ),
    max_leaves=12,
)

_texts = st.one_of(
    st.lists(st.tuples(_datum, st.sampled_from(_SPACE)).map("".join), max_size=4).map("".join),
    st.lists(st.sampled_from(_PIECES), max_size=30).map(" ".join),
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.builds(
        _deep, st.sampled_from([MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]),
        st.lists(st.sampled_from(_PIECES), max_size=6).map(" ".join), st.booleans(),
    ),
)


def _nodes(sx, out):
    if isinstance(sx, (SAtom, oracle_atom)):
        out.append(("atom", type(sx.value), sx.value, sx.line, sx.col))
    else:
        out.append(("list", len(sx.items), sx.line, sx.col))
        for item in sx.items:
            _nodes(item, out)
    return out


def _outcome(read, text):
    try:
        sxs = read(text)
    except ParseError as e:
        return ("error", e.message, e.line, e.col)
    out: list = []
    for sx in sxs:
        _nodes(sx, out)
    return out


@settings(max_examples=600, deadline=None)
@given(_texts)
def test_the_reader_agrees_with_the_reader_by_match(text):
    assert _outcome(read_sexprs, text) == _outcome(read_sexprs_by_match, text)
