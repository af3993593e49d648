from fractions import Fraction

import pytest

from sedan.values import (
    NIL,
    T,
    Char,
    Cons,
    Symbol,
    from_list,
    is_true_list,
    norm_rat,
    order_key,
    print_value,
    proper_length,
    truthy,
)


def test_nil_is_false_everything_else_true():
    assert not truthy(NIL)
    for v in (T, 0, Fraction(1, 2), "", Char("a"), Cons(NIL, NIL), Symbol("foo")):
        assert truthy(v)


def test_rationals_normalize_to_int():
    assert norm_rat(Fraction(4, 2)) == 2
    assert isinstance(norm_rat(Fraction(4, 2)), int)
    assert norm_rat(Fraction(1, 3)) == Fraction(1, 3)


def test_print_value_forms():
    assert print_value(5) == "5"
    assert print_value(Fraction(-1, 3)) == "-1/3"
    assert print_value(Symbol("abc")) == "abc"
    assert print_value("a\"b\\c") == '"a\\"b\\\\c"'
    assert print_value(Char("z")) == "#\\z"
    assert print_value(Char(" ")) == "#\\Space"
    assert print_value(from_list([1, 2, 3])) == "(1 2 3)"
    assert print_value(Cons(1, 2)) == "(1 . 2)"
    assert print_value(Cons(1, Cons(2, 3))) == "(1 2 . 3)"


def test_values_of_distinct_kinds_never_compare_equal():
    kinds = [0, Fraction(1, 2), Symbol("a"), Char("a"), "a", Cons(0, NIL)]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            if i != j:
                assert a != b


def test_symbols_and_chars_are_equal_exactly_when_class_and_field_are():
    assert Symbol("a") == Symbol("a") and Symbol("a") != Symbol("b")
    assert Char("a") == Char("a") and Char("a") != Char("b")
    # one field, two classes: never equal, although the hashes agree
    assert Symbol("a") != Char("a") and Char("a") != Symbol("a") and hash(Symbol("a")) == hash(Char("a"))
    assert Symbol("a").__eq__("a") is NotImplemented and Char("a").__eq__("a") is NotImplemented


def test_a_symbol_or_char_hashes_as_the_tuple_of_its_field():
    # the hash every set and dict of values is ordered by
    assert hash(Symbol("nil")) == hash(("nil",)) and hash(Char("\n")) == hash(("\n",))
    assert len({Symbol("nil"), NIL, Symbol("t")}) == 2


def test_a_symbol_or_char_prints_as_source():
    # the text an error message shows, e.g. "not a value: ..."
    assert [repr(v) for v in (Symbol("foo"), Char("a"), Char(" "))] == ["foo", "#\\a", "#\\Space"]


@pytest.mark.parametrize("value", [Symbol("a"), Char("a")])
def test_a_symbol_or_char_cannot_be_changed(value):
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
        setattr(value, field, "b")
    with pytest.raises(AttributeError, match=f"cannot delete field {field!r}"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 3
    assert getattr(value, field) == "a"


def test_list_helpers():
    lst = from_list([1, 2, 3])
    assert is_true_list(NIL) and is_true_list(lst) and not is_true_list(Cons(1, 2))
    assert proper_length(lst) == 3
    assert proper_length(Cons(1, 2)) == 1


def test_order_key_is_a_total_order_over_sample():
    sample = [0, 5, Fraction(-1, 2), Symbol("nil"), Symbol("z"), Char("a"), "ab",
              from_list([1]), from_list([1, 2]), Cons(1, 2)]
    keys = [order_key(v) for v in sample]
    assert sorted(keys) is not None  # all keys mutually comparable
    assert len(set(keys)) == len(sample)


def test_a_cons_cannot_be_changed():
    c = Cons(1, NIL)
    with pytest.raises(AttributeError):
        c.car = 2
    with pytest.raises(AttributeError):
        c.cdr = 2
    with pytest.raises(AttributeError):
        del c.car
    with pytest.raises(AttributeError):
        c.extra = 3
    assert c.car == 1 and c.cdr == NIL and c == Cons(1, NIL) and hash(c) == hash(Cons(1, NIL))


def _deep_in_the_car(depth: int, leaf):
    v = leaf
    for _ in range(depth):
        v = Cons(v, 0)
    return v


def test_a_value_deep_in_the_car_needs_no_python_recursion():
    # ten times Python's default recursion limit
    deep, copy, changed = (_deep_in_the_car(10_000, leaf) for leaf in (7, 7, 8))
    assert deep is not copy
    assert print_value(deep) == "(" * 10_000 + "7" + " . 0)" * 10_000
    assert hash(deep) == hash(copy)
    assert deep == copy and not (deep != copy)
    assert deep != changed and not (deep == changed)
    assert order_key(deep) == order_key(copy)
    assert order_key(deep) < order_key(changed)


def test_order_key_orders_lists_item_by_item_with_the_end_last():
    # numbers, then symbols, ..., then lists, compared item by item; where one
    # list ends and the other goes on, the end sorts after the item
    one, one_two = from_list([1]), from_list([1, 2])
    ordered = [0, Symbol("a"), from_list([one_two, 2]), from_list([one, 2, 3]), from_list([one, 2]), Cons(one, 5)]
    assert sorted(reversed(ordered), key=order_key) == ordered


@pytest.mark.parametrize("show", [print_value, order_key])
def test_what_is_not_a_value_neither_prints_nor_orders(show):
    for v in (True, object()):
        with pytest.raises(TypeError, match="not a value"):
            show(v)
