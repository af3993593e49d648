"""The structured report's writer against ``json.dumps``, the text it must
reproduce byte for byte."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedan.reports import write_json

# every code point, lone surrogates included, with the characters json
# escapes drawn often
_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=[]),
    st.sampled_from('"\\\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600'),
))
# 0 and 1 equal False and True, and the others pass 64 bits
_INTS = st.one_of(
    st.integers(0, 1), st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64)),
)
_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_the_writer_writes_what_json_dumps_writes(doc):
    assert write_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, [(1, 2)], {"a": {1: "b"}}], ids=["float", "tuple", "int key"])
def test_a_value_json_would_convert_is_a_type_error(doc):
    with pytest.raises(TypeError):
        write_json(doc)
