"""Parsing, cycle decomposition, and pair-orbit enumeration."""

from __future__ import annotations

import itertools
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_orbits as reference
from fcrystal import (
    Orbit,
    ParseError,
    Permutation,
    cycle_decomposition,
    cycle_string,
    is_single_cycle,
    parse_permutation,
    product_orbits,
)

permutations = st.integers(1, 7).flatmap(
    lambda r: st.permutations(list(range(1, r + 1))).map(lambda images: Permutation(tuple(images)))
)


def orbit_length_check(p: Permutation, orbit: Orbit) -> bool:
    """Cross-check: the orbit length equals the lcm of the containing cycle lengths."""
    lengths: dict[int, int] = {}
    for cycle in cycle_decomposition(p):
        for i in cycle:
            lengths[i] = len(cycle)
    i, j = orbit.points[0]
    return len(orbit) == lcm(lengths[i], lengths[j])


def test_parse_one_line_spaces():
    assert parse_permutation("2 3 1", 3).images == (2, 3, 1)


def test_parse_one_line_commas():
    assert parse_permutation("2,3,1", 3).images == (2, 3, 1)


def test_parse_cycle_form():
    assert parse_permutation("(1 2)", 2).images == (2, 1)
    assert parse_permutation("(1 3)(2 4)", 4).images == (3, 4, 1, 2)
    assert parse_permutation("(1 2 3)", 3).images == (2, 3, 1)


def test_parse_cycle_form_fixed_points_implicit():
    assert parse_permutation("(2 3)", 3).images == (1, 3, 2)


def test_parse_cycle_form_commas_and_whitespace():
    assert parse_permutation("(1, 2, 3)(4 5)", 5).images == (2, 3, 1, 5, 4)


@pytest.mark.parametrize(
    "text,r",
    [
        ("", 3),
        ("1 2", 3),
        ("1 2 2", 3),
        ("0 1 2", 3),
        ("1 2 4", 3),
        ("(1 2", 2),
        ("(1 2))", 2),
        ("()", 2),
        ("(1 2)(2 3)", 3),
        ("(1 5)", 3),
        ("1 2 x", 3),
        ("(1 -2)", 2),
    ],
)
def test_parse_rejects_malformed(text, r):
    with pytest.raises(ParseError):
        parse_permutation(text, r)


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="position"):
        parse_permutation("(1 2)(2 3)", 3)


def test_images_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1))


def test_cycle_decomposition_sorted_by_minimum():
    p = parse_permutation("(3 4)(1 2)", 4)
    assert cycle_decomposition(p) == [(1, 2), (3, 4)]


def test_cycle_decomposition_fixed_points():
    p = Permutation.identity(3)
    assert cycle_decomposition(p) == [(1,), (2,), (3,)]


def test_is_single_cycle():
    assert is_single_cycle(parse_permutation("(1 2 3)", 3))
    assert not is_single_cycle(parse_permutation("(1 2)", 3))


@given(permutations)
def test_cycle_string_round_trips(p):
    assert parse_permutation(cycle_string(p), p.size) == p


def test_product_orbits_identity():
    orbits = product_orbits(Permutation.identity(2))
    assert [o.points for o in orbits] == [((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),)]


def test_product_orbits_transposition():
    orbits = product_orbits(parse_permutation("(1 2)", 2))
    assert [o.points for o in orbits] == [
        ((1, 1), (2, 2)),
        ((1, 2), (2, 1)),
    ]


def test_product_orbits_three_cycle():
    orbits = product_orbits(parse_permutation("(1 2 3)", 3))
    assert len(orbits) == 3
    assert all(len(o) == 3 for o in orbits)
    assert orbits[0].points == ((1, 1), (2, 2), (3, 3))


def test_product_orbits_mixed_cycle_type():
    # one 2-cycle and one fixed point: four orbits of length 2 and one singleton
    orbits = product_orbits(parse_permutation("(1 2)", 3))
    lengths = sorted(len(o) for o in orbits)
    assert lengths == [1, 2, 2, 2, 2]


@given(permutations)
def test_product_orbits_partition_all_pairs(p):
    orbits = product_orbits(p)
    seen = [pt for o in orbits for pt in o.points]
    assert len(seen) == p.size**2
    assert len(set(seen)) == p.size**2


@given(permutations)
def test_product_orbits_cyclic_order_and_length(p):
    for orbit in product_orbits(p):
        assert orbit_length_check(p, orbit)
        pts = orbit.points
        for k, (i, j) in enumerate(pts):
            assert pts[(k + 1) % len(pts)] == (p(i), p(j))
        # listed from the lexicographic minimum
        assert pts[0] == min(pts)


@given(permutations)
def test_orbit_lengths_are_cycle_lcms(p):
    cycle_of = {}
    for cycle in cycle_decomposition(p):
        for i in cycle:
            cycle_of[i] = len(cycle)
    for orbit in product_orbits(p):
        i, j = orbit.points[0]
        assert len(orbit) == lcm(cycle_of[i], cycle_of[j])


# ------------------------------------------- against the set walk it replaced


def test_product_orbits_match_reference_exhaustively():
    # every permutation of every rank up to 7 (5,913 permutations)
    for r in range(1, 8):
        for images in itertools.permutations(range(1, r + 1)):
            p = Permutation(images)
            assert product_orbits(p) == reference.product_orbits(p), images


@given(
    st.integers(1, 12).flatmap(
        lambda r: st.permutations(list(range(1, r + 1))).map(lambda images: Permutation(tuple(images)))
    )
)
@settings(max_examples=300)
def test_product_orbits_match_reference_randomized(p):
    assert product_orbits(p) == reference.product_orbits(p)


@pytest.mark.parametrize(
    "text,r",
    [
        # one 200-cycle, its points out of order: 200 orbits of length 200
        ("(" + " ".join(str(k * 7 % 201) for k in range(1, 201)) + ")", 200),
        # cycles of lengths 12 and 18 (gcd 6): six orbits of length 36 each way
        ("(" + " ".join(map(str, range(1, 13))) + ")(" + " ".join(map(str, range(13, 31))) + ")", 30),
    ],
    ids=["200-cycle", "12-and-18-cycles"],
)
def test_product_orbits_match_reference_large(text, r):
    p = parse_permutation(text, r)
    assert product_orbits(p) == reference.product_orbits(p)
