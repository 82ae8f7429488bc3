"""The json writer of the command line against json.dumps(indent=2): the same
bytes on every tree of dicts, lists, tuples, str, int, bool and None, and a
TypeError on anything else."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal.cli import _json_text

# non-ASCII, quote, backslash, control characters and a lone surrogate, besides any character
characters = st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7fé \U0001f600\ud800/'), st.characters())
strings = st.text(characters, max_size=8)
ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**30]),
)
scalars = st.one_of(st.none(), st.booleans(), ints, strings)

# Rows of int tuples, all of one length 0..3: the shape of orbit points.
rows = st.integers(0, 3).flatmap(lambda n: st.lists(st.tuples(*[ints] * n), max_size=5))
# Rows of mixed lengths, and bools inside int tuples and int lists: none of
# these may take an int fast path.
mixed_rows = st.lists(st.lists(ints, max_size=3).map(tuple), max_size=5)
rows_with_bools = st.lists(st.tuples(st.one_of(ints, st.booleans()), st.one_of(ints, st.booleans())), max_size=5)
ints_with_bools = st.lists(st.one_of(ints, st.booleans()), max_size=6)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.lists(ints, max_size=6),
        rows,
        mixed_rows,
        rows_with_bools,
        ints_with_bools,
    )


trees = st.recursive(scalars, containers, max_leaves=40)


@given(trees)
@settings(max_examples=600)
def test_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [
        [(1, 2), (3, 4)],
        [(), ()],
        [(7,)],
        [(1, 2, 3), (-4, 5, 2**65)],
        ((1, 2), (3,)),
        [(1, True), (2, 3)],
        [1, True, 0],
        [[1, 2], [3, 4]],
        {"points": [(1, 1), (2, 2)], "epsilon": (0, 0), "census": {}, "level": None},
        {"": [], "a": {}, "b": [[], {}, ()]},
    ],
)
def test_matches_json_dumps_on_fast_path_edges(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [1.5, [0, 1.5], Fraction(1, 2), [(1, Fraction(1, 2))], {"a": {1: 2}}, {None: 1}, {"a": [{"b": 0.0}]}],
    ids=["float", "float-in-list", "fraction", "fraction-in-row", "int-key", "none-key", "nested-float"],
)
def test_refuses_other_types(tree):
    with pytest.raises(TypeError):
        _json_text(tree)
