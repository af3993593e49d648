import hashlib
from fractions import Fraction

import pytest

from sedan import datadef, evaluator
from sedan.datadef import (
    SingletonRestriction,
    component_types,
    enumerate_value,
    minimal_type,
    pair,
    recognize,
    sample,
    unpair,
    zigzag,
)
from sedan.evaluator import evaluate
from sedan.rand import IndexSource
from sedan.reader import read_sexprs, sexpr_to_value
from sedan.session import process_source
from sedan.values import NIL, T, Char, Cons, Symbol, from_list, print_value, proper_length
from sedan.world import World

from conftest import make_world, term


def test_cantor_pairing_round_trips():
    for z in range(500):
        i, j = unpair(z)
        assert pair(i, j) == z
    assert pair(0, 0) == 0


def test_zigzag_against_bruteforce_oracle():
    # oracle: the alternating sequence 0, -1, 1, -2, 2, ...
    expected = [0]
    k = 1
    while len(expected) <= 20:
        expected += [-k, k]
        k += 1
    assert [zigzag(n) for n in range(21)] == expected[:21]
    assert zigzag(2) == 1  # even n -> n/2


def test_nat_is_identity_encoding(world):
    assert enumerate_value(world, "nat", 7) == 7


def test_base_encodings(world):
    assert [enumerate_value(world, "pos", n) for n in range(3)] == [1, 2, 3]
    assert [enumerate_value(world, "neg", n) for n in range(3)] == [-1, -2, -3]
    assert enumerate_value(world, "boolean", 0) == T
    assert enumerate_value(world, "boolean", 1) == NIL
    assert enumerate_value(world, "character", 0) == Char("a")
    assert enumerate_value(world, "string", 0) == ""
    assert enumerate_value(world, "symbol", 0) == Symbol("nil")
    assert enumerate_value(world, "symbol", 99) == Symbol("s83")


def test_rational_encoding_is_surjective_on_small_fractions(world):
    # every p/q in lowest terms has a preimage: i = zigzag index of p, j = q-1
    seen = set()
    for n in range(4000):
        seen.add(enumerate_value(world, "rational", n))
    for p, q in [(1, 2), (-3, 4), (2, 3), (5, 1), (-1, 7)]:
        v = Fraction(p, q)
        assert (v if v.denominator > 1 else p) in seen


def test_loi_examples():
    w = make_world("(defdata loi (listof integer))")
    assert enumerate_value(w, "loi", 0) == NIL
    assert recognize(w, "loi", from_list([-1, -23, -42, 7, 13]))
    assert not recognize(w, "loi", from_list([1, Symbol("a")]))
    assert not recognize(w, "loi", Cons(1, 2))
    # recognizer and enumerator callable from terms
    assert evaluate(term("(loip '(-1 -23 -42 7 13))"), {}, w) == T
    assert evaluate(term("(nth-loi 0)"), {}, w) == NIL


def test_list_decode_against_reencode_oracle():
    # oracle: re-encode a decoded list by folding the pairing function
    w = make_world("(defdata loi (listof integer))")

    def encode_int(v):
        return 2 * v if v >= 0 else -2 * v - 1

    def encode_list(values):
        n = 0
        for v in reversed(values):
            n = pair(encode_int(v), n) + 1
        return n

    for n in range(201):
        decoded = enumerate_value(w, "loi", n)
        items = []
        while isinstance(decoded, Cons):
            items.append(decoded.car)
            decoded = decoded.cdr
        assert encode_list(items) == n


def test_triple_recognizer():
    w = make_world("(defdata triple (list pos pos pos))")
    assert recognize(w, "triple", from_list([429, 1, 429]))
    assert not recognize(w, "triple", from_list([429, 1]))
    assert not recognize(w, "triple", from_list([429, 0, 429]))
    assert not recognize(w, "triple", Cons(1, Cons(1, Cons(1, 2))))
    assert evaluate(term("(triplep '(429 1 429))"), {}, w) == T


def test_enum_and_oneof():
    w = make_world("(defdata rgb (enum '(red green blue)))\n(defdata borc (oneof boolean character))")
    ext = {enumerate_value(w, "rgb", n) for n in range(30)}
    assert ext == {Symbol("red"), Symbol("green"), Symbol("blue")}
    assert w.types.entries["rgb"].extent is not None
    assert w.types.entries["rgb"].size == 3
    # character is semantically unbounded, so the union stays infinite-tagged
    assert w.types.entries["borc"].extent is None
    for n in range(200):
        assert recognize(w, "borc", enumerate_value(w, "borc", n))
    assert recognize(w, "borc", T) and recognize(w, "borc", Char("q"))
    # a union of finite pieces does collapse to an explicit periodic extent
    w2 = make_world("(defdata duo (oneof boolean 'maybe))")
    assert w2.types.entries["duo"].size == 3
    assert {enumerate_value(w2, "duo", n) for n in range(30)} == {T, NIL, Symbol("maybe")}


def test_enum_strips_only_a_well_formed_quote():
    # (quote x) is unwrapped; a list that merely starts with quote is data, so
    # (enum (quote)) is an enum of one symbol, not an IndexError
    w = make_world("(defdata bare (enum (quote)))\n(defdata ab (enum (quote (a b))))")
    assert {enumerate_value(w, "bare", n) for n in range(5)} == {Symbol("quote")}
    assert {enumerate_value(w, "ab", n) for n in range(5)} == {Symbol("a"), Symbol("b")}
    out, _ = process_source("(defdata one (enum (quote a)))")
    assert out.forms[0].error.endswith("enum expects a list of values")


def test_record_type():
    w = make_world(
        "(defdata entry (record (valid . boolean) (addr . nat)))"
    )
    v = enumerate_value(w, "entry", 5)
    assert recognize(w, "entry", v)
    assert isinstance(v, Cons) and v.car == Symbol("entry")
    assert not recognize(w, "entry", from_list([Symbol("entry")]))


def test_tagged_record_tree():
    w = make_world(
        "(defdata tree (oneof 'Leaf (Node (id . symbol) (left . tree) (right . tree))))"
    )
    assert enumerate_value(w, "tree", 0) == Symbol("Leaf")
    for n in range(0, 300, 7):
        assert recognize(w, "tree", enumerate_value(w, "tree", n))


def test_mutually_recursive_group():
    w = make_world(
        "(defdata (sexp (oneof symbol integer slist)) (slist (oneof nil (cons sexp slist))))"
    )
    for n in range(300):
        assert recognize(w, "sexp", enumerate_value(w, "sexp", n))
        assert recognize(w, "slist", enumerate_value(w, "slist", n))


def test_set_type_is_ordered_duplicate_free():
    w = make_world("(defdata natset (set nat))")
    for n in range(100):
        v = enumerate_value(w, "natset", n)
        assert recognize(w, "natset", v)
        items = []
        while isinstance(v, Cons):
            items.append(v.car)
            v = v.cdr
        assert items == sorted(set(items), key=lambda x: x)


def test_custom_type():
    w = make_world(
        "(defun evp (x) (and (integerp x) (integerp (* x 1/2))))\n"
        "(defun nth-ev (n) (* 2 n))\n"
        "(defdata ev (custom evp nth-ev))"
    )
    for n in range(50):
        assert recognize(w, "ev", enumerate_value(w, "ev", n))
    assert enumerate_value(w, "ev", 21) == 42


@pytest.mark.parametrize("custom", ["(custom evr eve)", "(custom eve evr)"])
def test_custom_type_functions_must_take_one_argument(custom):
    # eve takes two arguments, so it can serve as neither recognizer nor enumerator
    outcome, world = process_source(
        "(defun evr (x) (integerp x))\n"
        "(defun eve (n m) (* 2 n))\n"
        f"(defdata ev {custom})\n"
        "(test? (implies (evr x) (integerp x)))"
    )
    last = outcome.forms[-1]
    assert last.kind == "defdata" and last.status == "error"
    assert "eve cannot take exactly one argument" in last.error
    assert "ev" not in world.types.entries


def test_defdata_cannot_redefine_a_builtin():
    outcome, world = process_source("(defdata cons nat)")
    assert outcome.forms[0].status == "error"
    assert outcome.forms[0].error == "defdata cons would redefine function consp"
    assert "cons" not in world.types.entries
    assert "nth-cons" not in world.functions


def test_defdata_group_deriving_one_name_twice_changes_nothing():
    # nth-y's recognizer and yp's enumerator are both nth-yp
    outcome, world = process_source("(defdata (nth-y nat) (yp nat))")
    assert outcome.forms[0].error == "defdata group defines function nth-yp twice: for nth-y and for yp"
    fresh = World()
    assert world.types.entries.keys() == fresh.types.entries.keys()
    assert world.functions.keys() == fresh.functions.keys()
    assert world.types.recognizer_index == fresh.types.recognizer_index


def test_component_types_of_base_and_singleton_restrictions():
    world = make_world("(defdata loi (listof integer))")
    assert component_types(world, ["true-list"]) == ([], ["true-list"])
    assert component_types(world, ["proper-cons"]) == ([], ["true-list"])
    assert component_types(world, [SingletonRestriction(from_list([1]))]) == ([], [])
    assert component_types(world, ["nat", SingletonRestriction(NIL), "loi", "proper-cons"]) == (
        ["integer"], ["loi", "true-list"]
    )


def test_recursive_definition_without_base_case_rejected():
    with pytest.raises(AssertionError):
        # surfaced as a form admission error by the session helper
        make_world("(defdata stream (cons integer stream))")


def test_duplicate_type_name_rejected():
    with pytest.raises(AssertionError):
        make_world("(defdata foo nat)\n(defdata foo integer)")


def test_unknown_reference_rejected():
    with pytest.raises(AssertionError):
        make_world("(defdata foo (listof nosuch))")


def test_enumerator_soundness_all_types():
    w = make_world(
        "(defdata loi (listof integer))\n"
        "(defdata triple (list pos pos pos))\n"
        "(defdata rgb (enum '(red green blue)))"
    )
    for name in w.types.entries:
        for n in range(0, 1000):
            assert recognize(w, name, enumerate_value(w, name, n)), (name, n)


def test_encoding_totality_at_huge_indices(world):
    for name in world.types.entries:
        v = enumerate_value(world, name, 2**62)
        print_value(v)


def test_sample_determinism(world):
    a = [print_value(sample(world, "all", IndexSource(99).draw())) for _ in range(200)]
    b = [print_value(sample(world, "all", IndexSource(99).draw())) for _ in range(200)]
    assert a == b
    c = [print_value(sample(world, "all", IndexSource(100).draw())) for _ in range(200)]
    assert a != c


def test_boolean_uniform_sampling_hits_both(world):
    rng = IndexSource(5, "uniform")
    seen = {print_value(sample(world, "boolean", rng.draw())) for _ in range(1000)}
    assert seen == {"t", "nil"}


def test_geometric_list_sampling_favors_short_lists():
    w = make_world("(defdata loi (listof integer))")
    rng = IndexSource(7)
    lengths = sorted(proper_length(sample(w, "loi", rng.draw())) for _ in range(1000))
    median = lengths[500]
    assert median <= 4


def test_minimal_type_cases():
    w = make_world("(defdata loi (listof integer))")
    sel = minimal_type(w, ["nat", "integer"])
    assert sel.primary == "nat" and sel.residuals == ()
    sel = minimal_type(w, ["integer", "nat"])
    assert sel.primary == "nat"
    sel = minimal_type(w, ["loi"])
    assert sel.primary == "loi"
    sel = minimal_type(w, ["string", "integer"])
    assert sel.primary == "string" and sel.residuals == ("integer",)
    # singletons always win
    sel = minimal_type(w, ["nat", SingletonRestriction(42)])
    assert sel.primary == SingletonRestriction(42)
    assert sel.residuals == ("nat",)


def test_recognize_all(world):
    for v in (0, T, NIL, "x", Cons(1, 2)):
        assert recognize(world, "all", v)


def test_sample_with_drawn_index_zero_is_zero(world):
    # some seed's first geometric draw is index 0; nat maps it to 0
    for seed in range(1, 60):
        rng = IndexSource(seed)
        if IndexSource(seed).geometric() == 0:
            assert sample(world, "nat", rng.draw()) == 0
            return
    raise AssertionError("no seed with a first draw of 0 in range")


def test_cons_product_form_matches_list_sugar():
    w = make_world(
        "(defdata np1 (cons nat (cons pos (cons neg nil))))\n"
        "(defdata np2 (list nat pos neg))"
    )
    for n in range(300):
        v = enumerate_value(w, "np1", n)
        assert recognize(w, "np1", v) and recognize(w, "np2", v)
        v2 = enumerate_value(w, "np2", n)
        assert v2 == v  # identical encoding for the sugared form
    assert recognize(w, "np1", from_list([0, 1, -1]))
    assert not recognize(w, "np1", from_list([0, 0, -1]))  # pos component fails
    assert not recognize(w, "np1", Cons(0, Cons(1, Cons(-1, 2))))  # improper tail


def test_set_of_products():
    w = make_world(
        "(defdata x-pos pos)\n(defdata y-pos pos)\n"
        "(defdata points (set (list x-pos y-pos)))"
    )
    for n in range(200):
        v = enumerate_value(w, "points", n)
        assert recognize(w, "points", v)
    assert recognize(w, "points", NIL)  # the empty set
    assert w.subtypes.subsumes("points", "true-list")


def test_one_defdata_text_is_compiled_once_for_every_world(monkeypatch):
    sources = []
    monkeypatch.setattr(evaluator, "compile", lambda src, *a: sources.append(src) or compile(src, *a), raising=False)
    evaluator._maker_code.cache_clear()
    defdata = "(defdata ctree (oneof nat (cons ctree (listof pos))))"
    first, second = make_world(defdata), make_world(defdata)
    values = [enumerate_value(first, "ctree", n) for n in range(40)]
    assert all(recognize(first, "ctree", v) for v in values)
    compiled = len(sources)
    assert compiled == 2  # the enumerator and the recognizer
    assert [enumerate_value(second, "ctree", n) for n in range(40)] == values
    assert all(recognize(second, "ctree", v) for v in values)
    assert len(sources) == compiled


def test_enums_differing_only_in_their_values_share_one_code_object():
    w = make_world("(defdata ab (enum '(a b)))\n(defdata cd (enum '(c d)))")
    assert [print_value(enumerate_value(w, "ab", n)) for n in range(3)] == ["a", "b", "a"]
    assert [print_value(enumerate_value(w, "cd", n)) for n in range(3)] == ["c", "d", "c"]
    assert recognize(w, "ab", Symbol("b")) and not recognize(w, "ab", Symbol("c"))
    assert recognize(w, "cd", Symbol("c")) and not recognize(w, "cd", Symbol("b"))
    # the calls above filled the namespace slots every caller calls through
    slot = lambda prefix, name: w.namespace[evaluator.lazy_slot(w, prefix, name, None)]
    assert slot("e_", "ab").__code__ is slot("e_", "cd").__code__
    assert slot("r_", "ab").__code__ is slot("r_", "cd").__code__


def _wide_branch(i: int) -> str:
    return (f"(cons 'c{i} nat)", f"(list 'c{i} integer symbol)", f"(listof (enum '(c{i} d{i})))")[i % 3]


def _nested_type(depth: int) -> str:
    text = "nat"
    for i in range(depth):
        text = (
            f"(listof {text})", f"(oneof 'x{i} {text})", f"(cons {text} pos)", f"(record (g{i} . {text}) (h{i} . boolean))"
        )[i % 4]
    return text


# a product and a record of 250 components, a oneof of 250 branches and a type
# nesting listof, oneof, cons and record 30 levels deep: one nested _Cons(...)
# per component, or one nested block per level, would pass Python's limits
WIDE_TYPES = (
    "(defdata wide (list " + " ".join(["nat"] * 250) + "))\n"
    "(defdata big (record " + " ".join(f"(f{i} . nat)" for i in range(250)) + "))\n"
    "(defdata many (oneof " + " ".join(_wide_branch(i) for i in range(250)) + "))\n"
    "(defdata deep " + _nested_type(30) + ")\n"
)
WIDE_INDICES = [*range(51), *(10**6 + 7919 * k for k in range(10))]
# sha256 of the printed values at WIDE_INDICES followed by every type's
# recognizer verdict on each of them, recorded before types compiled to
# generated Python
WIDE_DIGESTS = {
    "big": "0b653e45ab44f409e85b42f7c3b098ad8ff6013bf39596119e99ab421b577c6b",
    "deep": "8b88fcb91ea6df995151fc80ebb5f6490ada8f61f9ecb15ae9499ee83a1a0e7f",
    "many": "b809703e51ae24b8a197af2f58d73fc5f3de2454c1894bb4b1134775ab0f75c1",
    "wide": "d68291f1cccc67a22f66d8e8bcf7c4c6133cbe8286851a50f3d8c59870ad062a",
}


def test_wide_and_deep_types_enumerate_and_recognize_as_before():
    w = make_world(WIDE_TYPES)
    for name, digest in WIDE_DIGESTS.items():
        values = [enumerate_value(w, name, n) for n in WIDE_INDICES]
        assert all(recognize(w, name, v) for v in values), name
        text = "\n".join(print_value(v) for v in values)
        verdicts = "".join("01"[recognize(w, other, v)] for other in sorted(WIDE_DIGESTS) for v in values)
        assert hashlib.sha256((text + verdicts).encode()).hexdigest() == digest, name


def test_index_zero_goes_to_a_oneofs_base_branch_wherever_it_is():
    # base branches recorded before types compiled to generated Python
    w = make_world(
        "(defdata rtree (oneof (cons rtree rtree) nat))\n"
        "(defdata mix (oneof (list mix symbol) (set mix) (enum '(a b))))"
    )
    assert w.types.entries["rtree"].expr.base_branch == 1
    assert " ".join(print_value(enumerate_value(w, "rtree", n)) for n in range(12)) == (
        "0 0 (0 . 0) 1 (0 . 0) 2 ((0 . 0) . 0) 3 (0 . 0) 4 (0 0 . 0) 5"
    )
    assert " ".join(print_value(enumerate_value(w, "mix", n)) for n in range(12)) == (
        "nil nil a (nil nil) (nil) b (nil t) (nil) a (a nil) (nil) b"
    )


def test_a_value_deeper_than_the_python_stack_is_recognized():
    w = make_world("(defdata rtree (oneof (cons rtree rtree) nat))")
    deep = 0
    for _ in range(3000):
        deep = Cons(deep, 0)
    try:
        # on the stack a session gives a form
        verdicts = tuple(evaluator.on_sized_stack(w.settings.depth_cap, recognize, w, "rtree", v)
                         for v in (deep, Cons(deep, "x")))
    except RecursionError:
        # fail outside the handler: pytest's report of the overflow's traceback
        # compares the deep values in its frames and takes minutes
        verdicts = "overflow"
    assert verdicts == (True, False)


def test_a_record_recognizer_rejects_extra_fields_and_improper_tails():
    w = make_world("(defdata entry (record (valid . boolean) (addr . nat)))")
    values = [sexpr_to_value(sx) for sx in read_sexprs(
        "(entry (valid . t) (addr . 3)) (entry (valid . t) (addr . 3) (extra . 1))"
        " (entry (valid . t) (addr . 3) . 5) (entry (valid . t)) (entry (valid . 2) (addr . 3))"
    )]
    assert [recognize(w, "entry", v) for v in values] == [True, False, False, False, False]


@pytest.mark.parametrize("src, error", [
    ("(defdata x ())", "1:12: empty type expression"),
    ("(defdata x (1 nat))", "1:12: type expression must start with a symbol"),
    ("(defdata x (enum))", "1:12: enum needs at least one value"),
    ("(defdata x (oneof))", "1:12: oneof needs at least one branch"),
    ("(defdata x (cons nat))", "1:12: cons type takes exactly two components"),
    ("(defdata x (listof))", "1:12: listof takes exactly one element type"),
    ("(defdata x (set))", "1:12: set takes exactly one element type"),
    ("(defdata x (custom f))", "1:12: custom takes a recognizer and an enumerator function name"),
    ("(defdata x (foo nat))", "1:12: unknown type constructor: foo"),
    ("(defdata x (record (a nat)))", "1:20: record field must look like (name . type)"),
    ("(defdata (a nat) (a integer))", "duplicate name within a defdata group"),
    ("(defdata t1 (custom zzz zzz))", "custom type t1: unknown function zzz"),
    ("(defdata-subtype nat zz)", "unknown type: zz"),
])
def test_a_defdata_form_the_world_cannot_admit_is_an_error_at_its_form(src, error):
    outcome, world = process_source(src)
    assert outcome.fatal_error is None
    assert [(fr.status, fr.error) for fr in outcome.forms] == [("error", error)]
    assert world.types.entries.keys() == World().types.entries.keys()


def test_admission_paths_that_succeed():
    w = make_world(
        "(defdata abc (enum a b c))\n"
        "(defdata just-nat (oneof nat))\n"
        "(defdata tree (oneof nat (cons tree tree)))\n"
        "(defdata t2 tree)\n"
    )
    # an unquoted enum lists its values; a one-branch oneof is its branch
    assert [print_value(enumerate_value(w, "abc", n)) for n in range(4)] == ["a", "b", "c", "a"]
    assert [enumerate_value(w, "just-nat", n) for n in range(5)] == [0, 1, 2, 3, 4]
    # an alias has exactly the other type's extent, so the edges go both ways
    assert w.subtypes.subsumes("t2", "tree") and w.subtypes.subsumes("tree", "t2")


def test_the_evidence_for_a_finite_subtype_stops_at_its_size(monkeypatch):
    indices = []
    decoder = datadef._decoder

    def counting(world, name):
        dec = decoder(world, name)
        return lambda n: indices.append(n) or dec(n)

    monkeypatch.setattr(datadef, "_decoder", counting)
    w = make_world("(defdata small (enum 1 2 1))\n(defdata-subtype small nat)")
    assert indices == [0, 1]
    assert w.subtypes.subsumes("small", "nat")
