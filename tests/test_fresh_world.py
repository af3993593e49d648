"""What a fresh ``World()`` registers: its function table in order, the
recognizer index, each base type's entry, and the subtype relation among the
base types. Registering the base types another way must leave all of it as it
is."""

from sedan.datadef import BASE_TYPES, BaseRef
from sedan.values import NIL, T
from sedan.world import World

FUNCTIONS = [
    "cons", "car", "cdr", "consp", "atom", "endp", "equal", "not", "+", "*", "-", "/", "<", "<=", ">", ">=", "=",
    "expt", "len", "append", "list",
    "allp", "nth-all", "natp", "nth-nat", "posp", "nth-pos", "negp", "nth-neg", "integerp", "nth-integer",
    "rationalp", "nth-rational", "booleanp", "nth-boolean", "symbolp", "nth-symbol", "stringp", "nth-string",
    "characterp", "nth-character", "true-listp", "nth-true-list", "proper-consp", "nth-proper-cons",
    "real/rationalp",
]

RECOGNIZER_INDEX = {
    "allp": "all", "natp": "nat", "posp": "pos", "negp": "neg", "integerp": "integer", "rationalp": "rational",
    "booleanp": "boolean", "symbolp": "symbol", "stringp": "string", "characterp": "character",
    "true-listp": "true-list", "proper-consp": "proper-cons", "real/rationalp": "rational",
}

# each base type and the base types that subsume it, itself included
SUPERTYPES = {
    "all": {"all"},
    "nat": {"all", "nat", "integer", "rational"},
    "pos": {"all", "nat", "pos", "integer", "rational"},
    "neg": {"all", "neg", "integer", "rational"},
    "integer": {"all", "integer", "rational"},
    "rational": {"all", "rational"},
    "boolean": {"all", "boolean", "symbol"},
    "symbol": {"all", "symbol"},
    "string": {"all", "string"},
    "character": {"all", "character"},
    "true-list": {"all", "true-list"},
    "proper-cons": {"all", "true-list", "proper-cons"},
}


def test_a_fresh_world_registers_the_builtins_then_the_base_types():
    world = World()
    assert list(world.functions) == FUNCTIONS
    assert world.types.recognizer_index == RECOGNIZER_INDEX
    assert world.functions["real/rationalp"] is world.functions["rationalp"]


def test_each_base_type_is_its_own_expression_and_only_boolean_is_finite():
    entries = World().types.entries
    assert list(entries) == list(BASE_TYPES) == list(SUPERTYPES)
    for name, entry in entries.items():
        assert entry.expr == BaseRef(name)
        assert entry.extent == ((T, NIL) if name == "boolean" else None), name


def test_the_base_types_subsume_as_pinned_and_none_is_equivalent_to_another():
    graph = World().subtypes
    got = {a: {b for b in BASE_TYPES if graph.subsumes(a, b)} for a in BASE_TYPES}
    assert got == SUPERTYPES
    for name in BASE_TYPES:
        assert graph.equivalents(name) == (name,)
