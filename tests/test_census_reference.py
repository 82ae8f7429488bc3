"""circseq.run_census, whose second lap stops once no first-lap block is open,
against the two-full-lap pass it replaced (see reference_census.py): the same
tuple of level ranges in the same order, and the same circular level."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import FCyclicCrystal, orbit_data
from fcrystal.circseq import run_census
from fcrystal.permutation import parse_permutation
from reference_census import run_census as reference_census


def test_matches_two_laps_on_every_small_sequence():
    for s in range(1, 7):
        for seq in itertools.product(range(-3, 4), repeat=s):
            assert run_census(seq) == reference_census(seq), seq


# Long runs: few distinct signs repeated, with zeros between them, and entries
# up to 10**12, where a sign-by-sign pass could not finish.
magnitudes = st.one_of(st.integers(1, 3), st.integers(1, 10**12))
runs = st.tuples(st.sampled_from([-1, 1]), magnitudes, st.integers(1, 6), st.integers(0, 2))


def spell(parts) -> tuple[int, ...]:
    seq: list[int] = []
    for sign, size, repeat, zeros in parts:
        seq += [sign * size] * repeat + [0] * zeros
    return tuple(seq)


@given(st.lists(runs, min_size=1, max_size=12).map(spell).filter(len))
@settings(max_examples=400)
def test_matches_two_laps_on_long_runs(seq):
    assert run_census(seq) == reference_census(seq)


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
        assert (data.census, data.level) == reference_census(data.epsilon)
