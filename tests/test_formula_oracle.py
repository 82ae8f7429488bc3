"""Closed-form counts against the literal digraph census, plus the invariances
that make the closed forms work: reductions, clamping, and graph structure."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    build_level_digraph,
    circular_count,
    first_reduction_step,
    linear_count,
    normalize,
    normalize_full,
    oracle_counts,
    second_reduction,
    segment_census,
)
from fcrystal.circseq import AllZero

seqs = st.lists(st.integers(-6, 6), min_size=1, max_size=8).map(tuple)
levels = st.integers(1, 8)


def test_formula_matches_oracle_exhaustively():
    # every sequence with up to six entries in [-3, 3], every level up to 6
    for s in range(1, 7):
        for seq in itertools.product(range(-3, 4), repeat=s):
            for m in range(1, 7):
                stats = oracle_counts(seq, m)
                assert stats.free_linear == linear_count(seq, m), (seq, m)
                assert stats.circular == circular_count(seq, m), (seq, m)


def test_formula_matches_oracle_exhaustively_wider_entries():
    # every sequence with up to five entries in [-4, 4], every level up to 7
    for s in range(1, 6):
        for seq in itertools.product(range(-4, 5), repeat=s):
            for m in range(1, 8):
                stats = oracle_counts(seq, m)
                assert stats.free_linear == linear_count(seq, m), (seq, m)
                assert stats.circular == circular_count(seq, m), (seq, m)


@given(seqs, levels)
@settings(max_examples=300)
def test_formula_matches_oracle_randomized(seq, m):
    stats = oracle_counts(seq, m)
    assert stats.free_linear == linear_count(seq, m)
    assert stats.circular == circular_count(seq, m)


@given(
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6)), min_size=1, max_size=6).map(tuple),
    st.integers(1, 6),
)
@settings(max_examples=300)
def test_formula_matches_oracle_on_large_entries(seq, m):
    # the oracle's digraph has s * m vertices whatever the entries, so it reaches
    # magnitudes no expanded sign word could hold
    stats = oracle_counts(seq, m)
    assert stats.free_linear == linear_count(seq, m)
    assert stats.circular == circular_count(seq, m)


@given(seqs, levels)
@settings(max_examples=300)
def test_circular_components_have_one_edge_per_position(seq, m):
    stats = oracle_counts(seq, m)
    assert stats.circular_edges == stats.circular * len(seq)


@given(seqs, levels)
@settings(max_examples=200)
def test_component_counts_partition_vertices(seq, m):
    g = build_level_digraph(seq, m)
    stats = oracle_counts(seq, m)
    # paths have one edge less than their vertices, cycles break even
    total_components = stats.free_linear + stats.zero_linear + stats.circular
    assert g.vertex_count - len(g.edges) == total_components - stats.circular


@given(seqs, levels)
@settings(max_examples=200)
def test_degrees_at_most_one_each_way(seq, m):
    g = build_level_digraph(seq, m)
    outs = [src for src, _dst, _w in g.edges]
    ins = [dst for _src, dst, _w in g.edges]
    assert len(set(outs)) == len(outs)
    assert len(set(ins)) == len(ins)


@given(seqs, levels)
@settings(max_examples=300)
def test_first_reduction_preserves_oracle_counts(seq, m):
    s = len(seq)
    legal = [t for t in range(1, s + 1) if s >= 2 and seq[t - 1] * seq[t % s] > 0]
    before = oracle_counts(seq, m)
    for t in legal:
        after = oracle_counts(first_reduction_step(seq, t), m)
        assert (before.free_linear, before.circular) == (after.free_linear, after.circular)


@given(seqs, levels)
@settings(max_examples=300)
def test_second_reduction_preserves_oracle_counts(seq, m):
    if all(e == 0 for e in seq):
        return
    before = oracle_counts(seq, m)
    after = oracle_counts(second_reduction(seq), m)
    assert (before.free_linear, before.circular) == (after.free_linear, after.circular)


@given(seqs, levels)
@settings(max_examples=300)
def test_clamping_is_harmless_at_its_level(seq, m):
    clamped = normalize(seq, m)
    full = normalize_full(seq)
    if isinstance(full, AllZero):
        assert clamped == full
        return
    capped = segment_census(clamped, m)
    exact = {level: count for level, count in segment_census(full, len(full.entries)).items() if level <= m}
    assert capped == exact


def test_reduction_invariance_randomized_bulk():
    rng = random.Random(20240819)
    for _ in range(2000):
        s = rng.randint(1, 8)
        seq = tuple(rng.randint(-6, 6) for _ in range(s))
        m = rng.randint(1, 6)
        before = oracle_counts(seq, m)
        legal = [t for t in range(1, s + 1) if s >= 2 and seq[t - 1] * seq[t % s] > 0]
        if legal:
            t = rng.choice(legal)
            after = oracle_counts(first_reduction_step(seq, t), m)
            assert (before.free_linear, before.circular) == (after.free_linear, after.circular)
        if any(seq):
            after = oracle_counts(second_reduction(seq), m)
            assert (before.free_linear, before.circular) == (after.free_linear, after.circular)
