"""The pair rule against its eleven-case transcription (reference_oracle.py),
digraph assembly, and classification."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fcrystal.digraph
from fcrystal import (
    LevelDigraph,
    build_level_digraph,
    classify_components,
    oracle_counts,
    pair_edges,
    propagate_zeros,
    to_dot,
)
from reference_oracle import pair_edges_case_table


# ------------------------------------------------------------ pair rule


def test_pair_opposite_entries():
    left, right, arcs = pair_edges(3, -3, 5)
    assert left == () and right == ()
    assert arcs == ((0, 0, 0), (1, 1, 0))


def test_pair_zero_then_negative():
    # source column loses its two lowest digits, one surviving arc
    left, right, arcs = pair_edges(0, -2, 3)
    assert left == (0, 1)
    assert right == ()
    assert arcs == ((2, 0, -2),)


def test_pair_positive_then_positive():
    left, right, arcs = pair_edges(2, 1, 4)
    assert left == ()
    assert right == (0, 1)
    assert arcs == ((0, 2, 2), (1, 3, 2))


def test_pair_nonpositive_then_nonnegative_is_full_column():
    left, right, arcs = pair_edges(-2, 3, 4)
    assert left == () and right == ()
    assert arcs == tuple((i, i, 0) for i in range(4))


def test_pair_saturated_entries_disconnect():
    left, right, arcs = pair_edges(6, -6, 5)
    assert arcs == ()
    assert left == () and right == ()


def test_pair_deep_negative_kills_left_column():
    left, right, arcs = pair_edges(-1, -7, 4)
    assert left == (0, 1, 2, 3)
    assert right == () and arcs == ()


def test_pair_rejects_bad_level():
    with pytest.raises(ValueError):
        pair_edges(1, 1, 0)
    with pytest.raises(ValueError):
        pair_edges_case_table(1, 1, 0)


def test_pair_rule_matches_case_table_exhaustively():
    for m in range(1, 7):
        for x in range(-(m + 2), m + 3):
            for y in range(-(m + 2), m + 3):
                assert pair_edges(x, y, m) == pair_edges_case_table(x, y, m), (x, y, m)


def test_pair_edges_cache_is_bounded():
    maxsize = pair_edges.cache_info().maxsize
    assert 17 * 17 * 10 <= maxsize  # entries within +-8 at levels up to 10
    for x in range(maxsize + 1):
        pair_edges(x, 0, 1)
    assert pair_edges.cache_info().currsize <= maxsize


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 8))
def test_pair_rule_structure(x, y, m):
    left, right, arcs = pair_edges(x, y, m)
    sources = [i for i, _j, _w in arcs]
    targets = [j for _i, j, _w in arcs]
    # in/out degree one within a pair, digits in range, weight law
    assert len(set(sources)) == len(sources)
    assert len(set(targets)) == len(targets)
    for i, j, w in arcs:
        assert 0 <= i < m and 0 <= j < m
        assert w == max(x, 0) + min(y, 0)
    # zero marks never touch an arc endpoint on their own column
    assert not (set(left) & set(sources))
    assert not (set(right) & set(targets))
    assert all(0 <= i < m for i in left)
    assert all(0 <= j < m for j in right)


# ------------------------------------------------------------ assembly


def test_build_two_column_graph():
    g = build_level_digraph((3, -3), 5)
    assert g.s == 2 and g.m == 5
    assert g.vertex_count == 10
    assert g.zero_marks == frozenset()
    assert len(g.edges) == 7
    assert (((0, 1), (0, 2), 0)) in g.edges
    # second pair (-3, 3) carries the full column back
    assert (((4, 2), (4, 1), 0)) in g.edges


def test_build_single_zero_entry_gives_loops():
    g = build_level_digraph((0,), 3)
    assert g.edges == (((0, 1), (0, 1), 0), ((1, 1), (1, 1), 0), ((2, 1), (2, 1), 0))
    assert g.zero_marks == frozenset()


def test_build_single_nonzero_entry_kills_column():
    g = build_level_digraph((2,), 3)
    assert g.edges == ()
    assert g.zero_marks == frozenset({(0, 1), (1, 1), (2, 1)})


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_level_digraph((), 3)
    with pytest.raises(ValueError):
        build_level_digraph((1, 2), 0)


def test_build_reads_entries_only_up_to_the_level():
    # pair_edges' docstring: past the level an entry saturates, so the level-m
    # digraph equals that of the sequence clamped into [-m, m]; every sequence
    # of up to four entries in [-6, 6] at every level up to 4 (123,760 cases)
    for s in range(1, 5):
        for seq in itertools.product(range(-6, 7), repeat=s):
            for m in range(1, 5):
                clamped = tuple(max(-m, min(m, e)) for e in seq)
                assert build_level_digraph(seq, m) == build_level_digraph(clamped, m), (seq, m)


def test_oracle_counts_survive_reversal_with_negation():
    # Reversal with negation turns the pair (x, y) into (-y, -x), which swaps a
    # and b in the pair rule and so transposes the digraph.  Tested, not relied
    # on: nothing in src/ uses it.  Every sequence of up to four entries in
    # [-4, 4] at every level up to 4.
    for s in range(1, 5):
        for seq in itertools.product(range(-4, 5), repeat=s):
            mirror = tuple(-e for e in reversed(seq))
            for m in range(1, 5):
                assert oracle_counts(seq, m) == oracle_counts(mirror, m), (seq, m)


def test_pair_edges_past_both_entries_add_one_arc_per_level():
    # pair_edges' docstring: once m >= max(a, b) the marks stop changing and
    # level m + 1 appends exactly the arc at digit m; every pair in [-6, 6] at
    # every such level up to 11
    for x, y in itertools.product(range(-6, 7), repeat=2):
        a, b = max(x, 0), max(0, -y)
        for m in range(max(a, b, 1), 12):
            left, right, arcs = pair_edges(x, y, m)
            assert pair_edges(x, y, m + 1) == (left, right, arcs + ((m - a, m - b, a - b),)), (x, y, m)


def test_oracle_counts_settle_past_half_the_total_size():
    # a measured bound whose whole-digraph argument is still open (pair_edges'
    # docstring): with T = floor(sum |e| / 2), levels T + 2 to T + 5 keep level
    # T + 1's free linear count, and the circular count rises by exactly 1 per
    # level if and only if the sequence sums to 0; every sequence of up to
    # five entries in [-2, 2] (3,905 sequences)
    sequences = [seq for s in range(1, 6) for seq in itertools.product(range(-2, 3), repeat=s)]
    assert len(sequences) == 3905
    for seq in sequences:
        top = sum(map(abs, seq)) // 2 + 1
        counts = [oracle_counts(seq, m) for m in range(top, top + 5)]
        assert {stats.free_linear for stats in counts} == {counts[0].free_linear}, seq
        rises = {later.circular - earlier.circular for earlier, later in zip(counts, counts[1:])}
        assert (rises == {1}) == (sum(seq) == 0), seq


# ------------------------------------------------------------ propagation


def test_propagate_spreads_marks_along_paths():
    g = propagate_zeros(build_level_digraph((1, 1), 2))
    assert g.zero_marks == frozenset({(0, 1), (1, 1), (0, 2), (1, 2)})


def test_propagate_leaves_unmarked_graphs_alone():
    g0 = build_level_digraph((3, -3), 5)
    assert propagate_zeros(g0).zero_marks == frozenset()


# ------------------------------------------------------------ classification


def test_classify_reference_sequence():
    stats = oracle_counts((3, 0, -1, -2), 5)
    assert stats.free_linear == 3
    assert stats.circular == 2
    assert stats.circular_edges == 8
    assert stats.zero_linear == 3


def test_classify_counts_one_vertex_loops_as_circular():
    stats = oracle_counts((0,), 4)
    assert stats == type(stats)(free_linear=0, circular=4, circular_edges=4, zero_linear=0)


def test_classify_all_zero_two_entries():
    stats = oracle_counts((0, 0), 2)
    assert stats.circular == 2
    assert stats.circular_edges == 4
    assert stats.free_linear == 0


def test_classify_fully_zero_graph():
    stats = oracle_counts((1, 1), 2)
    assert stats.free_linear == 0
    assert stats.circular == 0
    assert stats.zero_linear > 0


def test_classify_without_propagation_gives_same_counts():
    g = build_level_digraph((2, 0, -1, 1), 4)
    assert classify_components(g) == classify_components(propagate_zeros(g))


# ------------------------------------------------------------ structural checks


def _rule(table):
    """A pair rule read from {(eps_t, eps_next): (left, right, arcs)}; other pairs give nothing."""
    return lambda x, y, m: table.get((x, y), ((), (), ()))


@pytest.mark.parametrize(
    "seq, m, table, message",
    [
        # two arcs out of one digit
        ((1, 2), 2, {(1, 2): ((), (), ((0, 0, 0), (0, 1, 0)))}, "second arc"),
        # two arcs into one digit
        ((1, 2), 2, {(1, 2): ((), (), ((0, 0, 0), (1, 0, 0)))}, "second arc"),
        # a mark on the middle vertex of the path 1 -> 2 -> 3
        ((1, 2, 3), 1, {(1, 2): ((), (), ((0, 0, 0),)), (2, 3): ((0,), (), ((0, 0, 0),))}, "degree 2"),
        # a mark on the cycle 1 -> 2 -> 1: refused while building or while classifying
        ((1, 2), 1, {(1, 2): ((), (0,), ((0, 0, 0),)), (2, 1): ((), (), ((0, 0, 0),))}, None),
    ],
)
def test_oracle_refuses_broken_pair_rules(monkeypatch, seq, m, table, message):
    monkeypatch.setattr(fcrystal.digraph, "pair_edges", _rule(table))
    with pytest.raises(RuntimeError, match=message):
        oracle_counts(seq, m)


def test_classify_refuses_marked_cycle():
    g = LevelDigraph(2, 1, succ=[1, 0], pred=[1, 0], weight=[0, 0], mark=[False, True])
    with pytest.raises(RuntimeError, match="circular component contains a zero mark"):
        classify_components(g)


def test_classify_refuses_inconsistent_lists():
    # 0 -> 1 -> 1, but 1 records 0 as its only predecessor
    g = LevelDigraph(1, 2, succ=[1, 1], pred=[-1, 0], weight=[0, 0], mark=[False, False])
    with pytest.raises(RuntimeError, match="neither a path nor a single cycle"):
        classify_components(g)


# ------------------------------------------------------------ dot dump


def test_to_dot_lists_vertices_marks_and_arcs():
    dump = to_dot(propagate_zeros(build_level_digraph((1, 1), 2)))
    assert dump.startswith("digraph level {")
    assert '"0:1" [zero="1"];' in dump
    assert '"0:1" -> "1:2" [weight="1"];' in dump
    assert dump.endswith("}\n")
