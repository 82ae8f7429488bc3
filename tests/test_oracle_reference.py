"""The flat-list oracle against the oracle it replaced (tests/reference_oracle.py):
equal component counts and byte-equal DOT dumps."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle as reference
from fcrystal import build_level_digraph, oracle_counts, propagate_zeros, to_dot


def test_oracle_matches_reference_exhaustively():
    # every sequence with up to five entries in [-3, 3], every level up to 6
    for s in range(1, 6):
        for seq in itertools.product(range(-3, 4), repeat=s):
            for m in range(1, 7):
                assert oracle_counts(seq, m) == reference.oracle_counts(seq, m), (seq, m)


@given(
    st.lists(st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6)), min_size=1, max_size=12).map(tuple),
    st.integers(1, 10),
)
@settings(max_examples=300)
def test_oracle_and_dump_match_reference_randomized(seq, m):
    assert oracle_counts(seq, m) == reference.oracle_counts(seq, m)
    # the --dump-digraph text
    dump = to_dot(propagate_zeros(build_level_digraph(seq, m)))
    assert dump == reference.to_dot(reference.propagate_zeros(reference.build_level_digraph(seq, m)))
