"""circseq.run_census, one lap from the highest point of the walk, against the
two-full-lap pass it replaced (see reference_census.py): the same multiset of
level ranges and the same circular level, compared through canonical since the
two list the ranges in different orders.  Both are read off a circular
sequence, so they must not change when the sequence is rotated, whichever
position the lap starts from."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import FCyclicCrystal, orbit_data
from fcrystal.circseq import run_census
from fcrystal.permutation import parse_permutation
from reference_census import canonical
from reference_census import run_census as reference_census

def small_sequences():
    """Every sequence of length 1..6 with entries in -3..3."""
    return (seq for s in range(1, 7) for seq in itertools.product(range(-3, 4), repeat=s))


def rotations(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [seq[k:] + seq[:k] for k in range(len(seq))]


def test_matches_two_laps_on_every_small_sequence():
    for seq in small_sequences():
        assert canonical(run_census(seq)) == canonical(reference_census(seq)), seq


def test_invariant_under_rotation_on_every_small_sequence():
    for seq in small_sequences():
        expected = canonical(run_census(seq))
        for turned in rotations(seq)[1:]:
            assert canonical(run_census(turned)) == expected, (seq, turned)


# Walks that reach their highest point more than once, so that the lap could
# start from either: balanced, rising and sinking.
@pytest.mark.parametrize(
    "seq, expected",
    [
        ((1, -1, 1, -1), ([(1, 1), (1, 1)], 1)),
        ((2, -2, 2, -2, 0), ([(1, 2), (1, 2)], 2)),
        ((2, -1, -1, 2, -3, 1), ([(1, 1), (1, 1), (2, 2), (2, 3)], 3)),
        ((2, -2, 2, -1), ([(1, 1), (1, 2)], None)),
        ((-2, 1, 1, -3, 1, 2, -1), ([(1, 1), (1, 1), (2, 2), (2, 3)], None)),
    ],
)
def test_walks_with_several_highest_points(seq, expected):
    for turned in rotations(seq):
        assert canonical(run_census(turned)) == canonical(reference_census(turned)) == expected, turned


# Long runs: few distinct signs repeated, with zeros between them, and entries
# up to 10**12, where a sign-by-sign pass could not finish.
magnitudes = st.one_of(st.integers(1, 3), st.integers(1, 10**12))
runs = st.tuples(st.sampled_from([-1, 1]), magnitudes, st.integers(1, 6), st.integers(0, 2))


def spell(parts) -> tuple[int, ...]:
    seq: list[int] = []
    for sign, size, repeat, zeros in parts:
        seq += [sign * size] * repeat + [0] * zeros
    return tuple(seq)


long_runs = st.lists(runs, min_size=1, max_size=12).map(spell).filter(len)


@given(long_runs)
@settings(max_examples=400)
def test_matches_two_laps_on_long_runs(seq):
    assert canonical(run_census(seq)) == canonical(reference_census(seq))


@given(long_runs)
@settings(max_examples=400)
def test_invariant_under_rotation_on_long_runs(seq):
    expected = canonical(run_census(seq))
    for turned in rotations(seq)[1:]:
        assert canonical(run_census(turned)) == expected


def test_matches_two_laps_on_every_orbit_of_a_rank_200_cycle():
    rng = random.Random(2015)
    order = list(range(1, 201))
    rng.shuffle(order)
    crystal = FCyclicCrystal(
        parse_permutation("(" + " ".join(map(str, order)) + ")", 200), tuple(rng.randint(0, 1) for _ in range(200))
    )
    orbits = orbit_data(crystal)
    assert len(orbits) == 200
    for data in orbits:
        assert canonical((data.census, data.level)) == canonical(reference_census(data.epsilon))
