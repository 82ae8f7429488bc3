"""The pair rule, its eleven-case oracle, digraph assembly, and classification."""

from __future__ import annotations

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
    pair_edges_case_table,
    propagate_zeros,
    to_dot,
)


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
