"""Pinned behaviour of the type layer: enumerations, recognizer verdicts and
index draws, compared with values recorded in ``pinned/type_layer.json``.

Any change to an enumerator, a recognizer or the index source shows up here
as a diff against the recorded values. To record them again after an
intended change (and explain it in CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_type_pins.py
"""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.datadef import enumerate_value, recognize
from sedan.rand import IndexSource
from sedan.reader import read_sexprs, sexpr_to_value
from sedan.session import process_source
from sedan.values import print_value

GOLDEN = os.path.join(os.path.dirname(__file__), "pinned", "type_layer.json")
N_VALUES = 300
N_DRAWS = 500
DRAW_SEED = 24

PIN_WORLD_SOURCE = (
    "(defdata triple (list pos pos pos))\n"
    "(defdata nat-list (listof nat))\n"
    "(defdata tree (oneof nat (cons tree tree)))\n"
    "(defdata rgb (enum '(red green blue)))\n"
    "(defdata natset (set nat))\n"
    "(defdata entry (record (valid . boolean) (addr . nat)))\n"
    "(defun evp (x) (and (integerp x) (integerp (* x 1/2))))\n"
    "(defun nth-ev (n) (* 2 n))\n"
    "(defdata ev (custom evp nth-ev))\n"
    "(defdata ttree (oneof 'Leaf (Node (id . symbol) (left . ttree) (right . ttree))))\n"
    "(defdata (sexp (oneof symbol integer slist)) (slist (oneof nil (cons sexp slist))))\n"
    "(defdata duo (oneof boolean 'maybe))\n"
    "(defdata borc (oneof boolean character))\n"
    "(defdata points (set (list pos nat)))\n"
)

# look-alikes across kinds, near misses of the defined types, and nested pairs
MIXED_SOURCE = """
0 1 -1 7 -42 1/2 -3/4 t nil a red blue Leaf maybe s0
"" "a" "red" #\\a #\\Z #\\0
(1 2 3) (1 0 1) (429 1 429) (1 2) (1 2 3 4) (1 . 2) (1 2 . 3)
((1 . 2) . 3) ((1 . 2) 3 . 4) (3 1 2) (1 1 2) (0 1 2) (1 2 2)
(entry (valid . t) (addr . 3)) (entry (valid . 1) (addr . 3)) (entry (addr . 3) (valid . t))
(Node (id . a) (left . Leaf) (right . Leaf)) (Node (id . 1) (left . Leaf) (right . Leaf))
((1 2) (3 4)) ((1 0) (2 0)) ((2 0) (1 0)) (a (b c) 1) (a "a" #\\a) (nil) (t nil)
"""


def pin_world():
    outcome, world = process_source(PIN_WORLD_SOURCE)
    assert outcome.fatal_error is None
    assert {fr.status for fr in outcome.forms} == {"admitted"}
    return world


def mixed_values():
    return [sexpr_to_value(sx) for sx in read_sexprs(MIXED_SOURCE)]


def record(world):
    """The figures this file pins, computed with the code under test."""
    mixed = mixed_values()
    names = sorted(world.types.entries)
    return {
        "enumerate": {
            name: [print_value(enumerate_value(world, name, n)) for n in range(N_VALUES)]
            for name in names
        },
        "recognize": {name: [recognize(world, name, v) for v in mixed] for name in names},
        "draws": {
            "geometric": list(IndexSource(DRAW_SEED).draws(N_DRAWS)),
            "uniform": list(IndexSource(DRAW_SEED, "uniform").draws(N_DRAWS)),
        },
    }


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


PIN_WORLD = pin_world()


def test_pin_world_covers_every_base_type_and_constructor():
    pinned = set(load_golden()["enumerate"])
    assert pinned == set(PIN_WORLD.types.entries)
    assert {"all", "nat", "rational", "string", "symbol", "proper-cons", "triple",
            "nat-list", "tree", "rgb", "natset", "entry", "ev"} <= pinned


def test_enumerations_match_pinned_values():
    got = record(PIN_WORLD)["enumerate"]
    for name, values in load_golden()["enumerate"].items():
        assert got[name] == values, name


def test_recognizer_verdicts_match_pinned_values():
    got = record(PIN_WORLD)["recognize"]
    for name, verdicts in load_golden()["recognize"].items():
        assert got[name] == verdicts, name


def test_index_draws_match_pinned_values():
    assert record(PIN_WORLD)["draws"] == load_golden()["draws"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PIN_WORLD.types.entries)), st.integers(0, 2**64))
def test_every_enumerated_value_is_recognized(name, n):
    assert recognize(PIN_WORLD, name, enumerate_value(PIN_WORLD, name, n))


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record(pin_world()), fh, indent=0, sort_keys=True)
        fh.write("\n")
