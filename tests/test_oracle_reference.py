"""The flat-list oracle against the oracles it replaced (tests/reference_oracle.py):
equal component counts and byte-equal DOT dumps against the tuple-vertex
oracle, and equal digraphs, counts and refusals against the flat-list builder
and classifier as they were before their loops were trimmed."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcrystal.digraph
import reference_census
import reference_oracle as reference
from fcrystal import build_level_digraph, classify_components, oracle_counts, propagate_zeros, to_dot
from fcrystal.circseq import linear_at, run_census
from fcrystal.cli import _random_draws

# the draws of four random verify sweeps shaped as the benchmark's, at seeds 11, 22, 33 and 44
BENCHMARK_DRAWS = [draw for seed in (11, 22, 33, 44) for draw in _random_draws(seed, 1000, 12, 8, 10)]


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


def assert_flat_oracle_matches(seq, m):
    g = build_level_digraph(seq, m)
    assert g == reference.flat_build_level_digraph(seq, m), (seq, m)  # s, m and all four lists
    assert classify_components(g) == reference.flat_classify_components(g), (seq, m)


def test_flat_oracle_matches_its_reference_exhaustively():
    # every sequence with up to five entries in [-3, 3], every level up to 6
    for s in range(1, 6):
        for seq in itertools.product(range(-3, 4), repeat=s):
            for m in range(1, 7):
                assert_flat_oracle_matches(seq, m)


def test_flat_oracle_matches_its_reference_on_the_benchmark_draws():
    assert len(BENCHMARK_DRAWS) == 4000
    for seq, m in BENCHMARK_DRAWS:
        assert_flat_oracle_matches(seq, m)


def test_linear_at_matches_its_reference_on_the_benchmark_draws():
    for seq, _ in BENCHMARK_DRAWS:
        census = run_census(seq)[0]
        for m in range(13):
            assert linear_at(census, m) == reference_census.linear_at(census, m), (seq, m)


def outcome(oracle, *args):
    """What oracle(*args) returns, or the message of the RuntimeError it raises."""
    try:
        return oracle(*args)
    except RuntimeError as error:
        return str(error)


def built_and_classified(build, classify, seq, m):
    g = build(seq, m)
    return g, classify(g)


@st.composite
def broken_rules(draw):
    """A sequence, a level and a pair rule that marks and joins digits at random."""
    m = draw(st.integers(1, 2))
    seq = tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=4)))
    digits = st.integers(0, m - 1)
    marks = st.lists(digits, max_size=2).map(tuple)
    arcs = st.lists(st.tuples(digits, digits, st.integers(-1, 1)), max_size=3).map(tuple)
    table = {pair: draw(st.tuples(marks, marks, arcs)) for pair in zip(seq, seq[1:] + seq[:1])}
    return seq, m, table


@given(broken_rules())
@settings(max_examples=300)
def test_flat_oracle_refuses_as_its_reference_under_any_pair_rule(case):
    # the same graph and counts, or the same RuntimeError message, whatever
    # the pair rule gives, including rules that break every structural check
    seq, m, table = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fcrystal.digraph, "pair_edges", lambda x, y, m: table[x, y])
        shipped = outcome(built_and_classified, build_level_digraph, classify_components, seq, m)
        expected = outcome(
            built_and_classified, reference.flat_build_level_digraph, reference.flat_classify_components, seq, m
        )
    assert shipped == expected


@st.composite
def any_lists(draw):
    """A LevelDigraph whose succ, pred and mark lists are arbitrary."""
    s, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = s * m
    links = st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
    return fcrystal.digraph.LevelDigraph(s, m, draw(links), draw(links), [0] * n,
                                         draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@given(any_lists())
@settings(max_examples=300)
def test_classify_refuses_as_its_reference_on_any_lists(g):
    # the same counts or the same RuntimeError message, however the lists disagree
    assert outcome(classify_components, g) == outcome(reference.flat_classify_components, g)
