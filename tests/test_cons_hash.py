"""A cons keeps its hash after the first call: the kept value must be the one
the walk over the value gives, every time, and it must stay read-only."""

import pytest

from sedan.values import NIL, Char, Cons, Symbol, from_list


def walked_hash(cell):
    """The hash a cons had before it kept one: each list's cars folded in
    spine order, a car that is a cons folded in as its own list's hash."""
    h, node, outer = 0, cell, []
    while True:
        while isinstance(node, Cons):
            car = node.car
            if isinstance(car, Cons):
                outer.append((h, node))
                h, node = 0, car
                continue
            h = hash((h, car))
            node = node.cdr
        h = hash((h, "·", node))
        if not outer:
            return h
        before, parent = outer.pop()
        h, node = hash((before, h)), parent.cdr


def deep_in_the_car(depth, leaf):
    v = leaf
    for _ in range(depth):
        v = Cons(v, 0)
    return v


def flat_list():
    return from_list([1, Symbol("a"), "s", Char("c"), NIL, from_list([2, 3])])


@pytest.mark.parametrize("make", [flat_list, lambda: deep_in_the_car(10_000, 7)], ids=["flat", "deep-car"])
def test_the_kept_hash_is_the_walked_hash(make):
    value = make()
    expected = walked_hash(value)
    assert hash(value) == expected
    assert hash(value) == expected  # the second call returns the kept value
    copy = make()
    assert copy is not value and copy == value
    assert hash(copy) == hash(value) == walked_hash(copy)
    assert {value: 1}[copy] == 1


def test_a_hashed_cell_in_a_larger_value_leaves_its_hash_unchanged():
    inner = from_list([1, 2])
    hash(inner)
    outer = Cons(inner, Cons(inner, 3))
    assert hash(outer) == walked_hash(outer) == hash(Cons(from_list([1, 2]), Cons(from_list([1, 2]), 3)))


def test_the_kept_hash_cannot_be_set_or_deleted():
    value = Cons(1, 2)
    h = hash(value)
    with pytest.raises(AttributeError):
        value._hash = 5
    with pytest.raises(AttributeError):
        del value._hash
    assert hash(value) == h == walked_hash(value)
    fresh = Cons(1, 2)
    with pytest.raises(AttributeError):
        fresh._hash = 5
    assert hash(fresh) == h
