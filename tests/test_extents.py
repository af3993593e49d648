"""Finite extents: the values of every finite type, in enumeration order.

The pinned extents below were recorded before extents were computed in linear
time, and a finite type's enumerator and its generated source run over its
extent, so they must not change.
"""

import os

import pytest

from sedan import cli
from sedan.session import process_source
from sedan.values import Cons, print_value

EXTENT_SOURCE = """
(defdata rep (enum '(a b a c b a)))
(defdata ov (oneof (enum a b a) boolean (enum t 7)))
(defdata bool boolean)
(defdata pr (cons boolean (enum 1 2 1)))
(defdata tri (list boolean ov))
(defdata rc (record (on . boolean) (tag . (enum x y x))))
(defdata al rep)
(defdata al2 tri)
(defdata nest (cons (enum 0) pr))
(defdata one 'z)
(defdata tt t)
(defdata mixed (oneof pr rc (cons boolean (enum 2 1)) rep 'a (list boolean)))
(defdata emp (record))
(defdata tagged (oneof 'Leaf (Node (l . boolean) (r . bool))))
(defdata wide (record (a . boolean) (b . boolean) (c . boolean) (d . boolean) (e . boolean) (f . boolean)
                      (g . boolean) (h . boolean) (i . boolean) (j . boolean) (k . boolean) (l . boolean)
                      (m . boolean)))
(defdata part (oneof boolean nat))
(defdata lob (listof boolean))
"""

PINNED_EXTENTS = {
    "boolean": "t nil",
    "rep": "a b c",
    "ov": "a b t nil 7",
    "bool": "t nil",
    "pr": "(t . 1) (t . 2) (nil . 1) (nil . 2)",
    "tri": "(t a) (t b) (t t) (t nil) (t 7) (nil a) (nil b) (nil t) (nil nil) (nil 7)",
    "rc": "(rc (on . t) (tag . x)) (rc (on . t) (tag . y)) (rc (on) (tag . x)) (rc (on) (tag . y))",
    "al": "a b c",
    "al2": "(t a) (t b) (t t) (t nil) (t 7) (nil a) (nil b) (nil t) (nil nil) (nil 7)",
    "nest": "(0 t . 1) (0 t . 2) (0 nil . 1) (0 nil . 2)",
    "one": "z",
    "tt": "t",
    "mixed": "(t . 1) (t . 2) (nil . 1) (nil . 2) (rc (on . t) (tag . x)) (rc (on . t) (tag . y))"
             " (rc (on) (tag . x)) (rc (on) (tag . y)) a b c (t) (nil)",
    "emp": "(emp)",
    "tagged": "Leaf (Node (l . t) (r . t)) (Node (l . t) (r)) (Node (l) (r . t)) (Node (l) (r))",
}


def extents(src: str) -> dict:
    outcome, world = process_source(src)
    assert outcome.fatal_error is None
    assert {fr.status for fr in outcome.forms} == {"admitted"}, [fr.error for fr in outcome.forms]
    return {
        name: " ".join(print_value(v) for v in entry.extent)
        for name, entry in world.types.entries.items()
        if entry.extent is not None
    }


def test_finite_extents_match_pinned_values():
    # every other type, base or defined (wide is over EXTENT_CAP), has none
    assert extents(EXTENT_SOURCE) == PINNED_EXTENTS


@pytest.mark.parametrize("src, expected", [
    # a group's extents are computed in definition order, and a member not yet
    # computed counts as infinite
    ("(defdata (a (oneof b nil)) (b (enum 1 2)))", {"boolean": "t nil", "b": "1 2"}),
    ("(defdata (b (enum 1 2)) (a (oneof b nil)))", {"boolean": "t nil", "b": "1 2", "a": "1 2 nil"}),
])
def test_group_extents_follow_definition_order(src, expected):
    assert extents(src) == expected


WIDE_FINITE = (
    "(defdata bits (record " + " ".join(f"(f{i} . boolean)" for i in range(12)) + "))\n"
    "(defdata bk (list " + " ".join(["boolean"] * 12) + "))\n"
)


def test_a_4096_value_record_and_list_are_admitted_without_pairwise_comparison(tmp_path, monkeypatch, capsys):
    # duplicates are removed by hashing, and a product's or record's values are
    # distinct by construction, so admission compares almost no conses
    path = tmp_path / "wide.lisp"
    path.write_text(WIDE_FINITE)
    calls = [0]
    compare = Cons.__eq__

    def counting(a, b):
        calls[0] += 1
        return compare(a, b)

    monkeypatch.setattr(Cons, "__eq__", counting)
    assert cli.main([os.fspath(path), "--format", "text"]) == 0
    assert calls[0] < 1000, calls[0]
    assert capsys.readouterr().out.count("Admitted.") == 2
    outcome, world = process_source(WIDE_FINITE)
    assert [world.types.entries[name].size for name in ("bits", "bk")] == [4096, 4096]
