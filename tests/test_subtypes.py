import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.datadef import SubtypeEvidenceError, add_subtype_edge, minimal_type
from sedan.session import process_source
from sedan.subtypes import SubtypeGraph

from conftest import make_world


def test_base_edges_give_the_standard_chain(world):
    g = world.subtypes
    assert g.subsumes("pos", "nat")
    assert g.subsumes("pos", "rational")  # via closure
    assert g.subsumes("neg", "integer")
    assert g.subsumes("boolean", "symbol")
    assert g.subsumes("proper-cons", "true-list")
    assert g.subsumes("string", "all")
    assert not g.subsumes("integer", "nat")


def test_listof_gets_true_list_edge():
    w = make_world("(defdata loi (listof integer))")
    assert w.subtypes.subsumes("loi", "true-list")
    assert w.subtypes.subsumes("loi", "all")


def test_product_ending_in_nil_gets_proper_cons_edge():
    w = make_world("(defdata triple (list pos pos pos))")
    assert w.subtypes.subsumes("triple", "proper-cons")
    assert w.subtypes.subsumes("triple", "true-list")


def test_singleton_and_enum_edges():
    w = make_world("(defdata three 3)\n(defdata rgb (enum '(red green blue)))")
    assert w.subtypes.subsumes("three", "pos")
    assert w.subtypes.subsumes("three", "rational")
    assert w.subtypes.subsumes("rgb", "symbol")
    assert not w.subtypes.subsumes("rgb", "boolean")


def test_evidence_accepts_valid_edge():
    w = make_world("(defdata triple (list pos pos pos))")
    add_subtype_edge(w, "triple", "proper-cons")  # redundant but checkable
    assert w.subtypes.subsumes("triple", "proper-cons")


def test_reflexive_edge_is_a_noop():
    w = make_world()
    expected = {t: set(ts) for t, ts in w.subtypes.adj.items()}
    expected["nat"].add("nat")
    add_subtype_edge(w, "nat", "nat")
    assert w.subtypes.subsumes("nat", "nat")
    assert w.subtypes.adj == expected


def test_evidence_rejects_integer_into_nat_with_witness(world):
    with pytest.raises(SubtypeEvidenceError) as e:
        add_subtype_edge(world, "integer", "nat")
    assert e.value.witness_index == 1
    assert e.value.witness_value == -1


def test_trust_skips_the_evidence_check(world):
    add_subtype_edge(world, "integer", "nat", trust=True)
    assert world.subtypes.subsumes("integer", "nat")


def test_evidence_trials_configurable():
    w = make_world("(set-testing :evidence-trials 1)")
    assert w.settings.evidence_trials == 1
    # only index 0 (= 0, a nat) is checked, so the bad edge slips through
    add_subtype_edge(w, "integer", "nat")
    assert w.subtypes.subsumes("integer", "nat")


def test_two_cycle_collapses_to_one_scc_deterministically():
    w = make_world(
        "(defdata ev1 (listof nat))\n(defdata ev2 (listof nat))\n"
        "(defdata-subtype ev1 ev2)\n(defdata-subtype ev2 ev1)"
    )
    assert w.subtypes.equivalents("ev1") == ("ev1", "ev2")
    assert w.subtypes.equivalents("ev2") == ("ev1", "ev2")
    sel = minimal_type(w, ["ev2", "ev1"])
    assert sel.primary == "ev1"  # lexicographically least in the SCC
    assert sel.residuals == ()  # ev2 is equivalent to ev1, so it filters nothing
    sel2 = minimal_type(w, ["ev1", "ev2"])
    assert sel2.primary == "ev1"


def test_alias_defdata_forms_an_scc():
    w = make_world("(defdata mynat nat)")
    assert w.subtypes.subsumes("mynat", "nat")
    assert w.subtypes.subsumes("nat", "mynat")
    assert minimal_type(w, ["mynat", "integer"]).primary in ("mynat", "nat")


def test_raw_graph_scc_and_closure():
    g = SubtypeGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "b")  # b <-> c cycle
    assert g.equivalents("b") == ("b", "c")
    assert g.subsumes("a", "c")
    assert not g.subsumes("c", "a")
    assert g.representative("c") == "b"


def test_closure_recomputed_on_insertion():
    g = SubtypeGraph()
    g.add_edge("x", "y")
    assert not g.subsumes("x", "z")
    g.add_edge("y", "z")
    assert g.subsumes("x", "z")


# vertex names deliberately out of index order, plus one name never added
_NAMES = ["h", "c", "f", "a", "g", "b", "e", "d"]
_ABSENT = "zz"


def _warshall(vertices, edges):
    """Reflexive transitive closure by Warshall's algorithm."""
    reach = {(a, b): a == b or (a, b) in edges for a in vertices for b in vertices}
    for k in vertices:
        for i in vertices:
            for j in vertices:
                if reach[i, k] and reach[k, j]:
                    reach[i, j] = True
    return reach


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(_NAMES)),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
    st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4), max_size=6),
)
def test_subtype_graph_agrees_with_warshall_closure(isolated, edge_indices, queries):
    g = SubtypeGraph()
    for name in _NAMES[:isolated]:
        g.add_vertex(name)
    edges = {(_NAMES[i], _NAMES[j]) for i, j in edge_indices}
    for t1, t2 in edges:
        g.add_edge(t1, t2)
    vertices = sorted(set(_NAMES[:isolated]) | {v for e in edges for v in e})
    reach = _warshall(vertices, edges)

    def subsumes(a, b):
        return reach[a, b] if (a, b) in reach else a == b

    def equivalents(a):
        if a not in vertices:
            return (a,)
        return tuple(sorted(b for b in vertices if reach[a, b] and reach[b, a]))

    names = _NAMES + [_ABSENT]
    for a in names:
        assert g.equivalents(a) == equivalents(a)
        assert g.representative(a) == equivalents(a)[0]
        for b in names:
            assert g.subsumes(a, b) == subsumes(a, b), (a, b)
    for query in queries:
        listed = [names[i] for i in query]
        expected = next((equivalents(n)[0] for n in listed if all(subsumes(n, m) for m in listed)), None)
        assert g.minimal_among(listed) == expected


DEEP_AT_3 = (
    "(defdata tree (oneof nat (cons tree tree)))\n"
    "(defun mk (n) (if (posp n) (cons (mk (- n 1)) 0) 0))\n"
    "(defun deepp (x) (treep x))\n"
)


@pytest.mark.parametrize("at_5, witness", [("5", None), ("-1", -1)])
def test_an_evidence_index_that_overflows_the_stack_reruns_alone(at_5, witness):
    # index 3 is a tree 3000 deep, within the depth cap but past Python's
    # default stack: the form's stack holds it, and the check goes on to
    # index 5
    outcome, w = process_source(
        DEEP_AT_3 + f"(defun nth-deep (n) (if (equal n 3) (mk 3000) (if (equal n 5) {at_5} n)))\n"
        "(defdata deep (custom deepp nth-deep))\n(defdata-subtype deep tree)")
    if witness is None:
        assert outcome.forms[-1].status == "admitted"
        assert w.subtypes.subsumes("deep", "tree")
    else:
        assert outcome.forms[-1].error == (
            f"cannot admit deep as a subtype of tree: enumerated witness at index 5 is {witness}")
        assert not w.subtypes.subsumes("deep", "tree")


def test_an_evidence_index_that_overflows_the_deeper_stack_too_is_a_datadef_error():
    # at a depth cap of 50 the form's thread allows 8 * 50 + 4096 frames;
    # index 3 is a tree 6000 deep (48 levels of mk, 125 conses each), built
    # within the cap, so recognizing it overflows that thread
    conses = "(cons " * 125 + "(mk (- n 1))" + " 0)" * 125
    outcome, w = process_source("(set-testing :depth-cap 50)\n"
                                "(defdata tree (oneof nat (cons tree tree)))\n"
                                f"(defun mk (n) (if (posp n) {conses} 0))\n"
                                "(defun deepp (x) (treep x))\n"
                                "(defun nth-deep (n) (if (equal n 3) (mk 48) n))\n"
                                "(defdata deep (custom deepp nth-deep))\n"
                                "(defdata-subtype deep tree)")
    assert (outcome.forms[-1].status, outcome.forms[-1].error) == ("error", (
        "cannot admit deep as a subtype of tree: evidence check at index 3 raised:"
        " the Python stack overflowed within the depth cap of 50"))
    assert not w.subtypes.subsumes("deep", "tree")
