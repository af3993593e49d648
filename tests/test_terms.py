"""Terms are immutable: equal exactly when of one class with equal fields,
hashed as the tuple of their fields, and printed as source."""

import pytest

from sedan.terms import App, Quote, Var, app
from sedan.values import NIL, Cons, Symbol


def _terms():
    return [Var("x"), Quote(Symbol("x")), Quote(Cons(1, NIL)), App("f", (Var("x"), Quote(7))), App("f", ())]


def test_terms_are_equal_exactly_when_class_and_fields_are():
    for i, a in enumerate(_terms()):
        for j, b in enumerate(_terms()):
            assert (a == b) is (i == j) and (a != b) is (i != j)
    assert Var("x") != Quote(Symbol("x")) and Quote(Symbol("x")) != Var("x")
    assert Var("x") != Symbol("x") and Symbol("x") != Var("x")
    assert App("f", (Var("x"),)) != App("g", (Var("x"),))
    assert Var("x").__eq__(Symbol("x")) is NotImplemented
    assert Quote(1).__eq__(1) is NotImplemented and App("f", ()).__eq__(Var("f")) is NotImplemented


def test_a_term_hashes_as_the_tuple_of_its_fields():
    # the hash every set and dict of terms is ordered by
    assert hash(Var("x")) == hash(("x",))
    assert hash(Quote(Symbol("x"))) == hash((Symbol("x"),))
    call = app("f", Var("x"), Quote(7))
    assert hash(call) == hash(("f", (Var("x"), Quote(7))))
    assert hash(call) == hash(("f", (Var("x"), Quote(7))))  # the kept hash
    assert len({Var("x"), Var("x"), call, app("f", Var("x"), Quote(7))}) == 2


@pytest.mark.parametrize("index", range(len(_terms())))
def test_a_term_cannot_be_changed(index):
    t = _terms()[index]
    hash(t)
    for field in type(t).__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
            setattr(t, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field {field!r}"):
            delattr(t, field)
    with pytest.raises(AttributeError):
        t.extra = 3
    assert t == _terms()[index] and hash(t) == hash(_terms()[index])


def test_a_term_prints_as_source():
    # the text an error message shows, e.g. "not a term: ..."
    assert [repr(t) for t in _terms()] == ["x", "'x", "'(1)", "(f x 7)", "(f)"]
