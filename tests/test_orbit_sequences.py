"""The slopes along the labelled pair orbits: fcrystal.crystal._orbit_sequences,
the one gather behind orbit_data, orbit_epsilon and verify_sweep, against the
per-orbit getters it replaced (tests/reference_orbits.py) and the per-point
definition; verify_sweep on crystals whose permutations come in runs that are
not adjacent; and which sequences a sweep's exact orbit sequences are."""

from __future__ import annotations

import itertools
from math import lcm
from operator import sub

import pytest

import reference_orbits
import reference_verify
from fcrystal import crystal
from fcrystal.crystal import FCyclicCrystal, orbit_data, orbit_epsilon
from fcrystal.permutation import Permutation, parse_permutation
from fcrystal.scan import enumerate_family


def all_fcrystal(r_max, slope_max):
    return [pair for r in range(1, r_max + 1) for pair in enumerate_family("all-fcrystal", r, slope_max)]


def test_gather_matches_the_per_orbit_getters_and_the_definition():
    ranks = set()
    for pi, slopes in all_fcrystal(5, 2):
        ranks.add(pi.size)
        fc = FCyclicCrystal(pi, slopes)
        e = (0, *slopes)
        for data in orbit_data(fc):
            orbit = data.orbit
            expected = reference_orbits.epsilon(e, orbit)
            assert expected == tuple(slopes[i - 1] - slopes[j - 1] for i, j in orbit.points)
            assert data.epsilon == expected, (pi, slopes, orbit)
            assert orbit_epsilon(fc, orbit) == expected, (pi, slopes, orbit)
            assert type(data.epsilon) is tuple and len(data.epsilon) == len(orbit)
    assert ranks == {1, 2, 3, 4, 5}


def round_robin(pairs):
    """pairs reordered so that consecutive crystals cycle through the
    permutations: each permutation's crystals come in runs of one, apart
    from the tail of the permutations with the most crystals."""
    runs = [list(run) for _, run in itertools.groupby(pairs, lambda pair: pair[0])]
    return [pair for row in itertools.zip_longest(*runs) for pair in row if pair is not None]


SWAP = (parse_permutation("(1 2)", 3), (1, 0, 1))
CYCLE = (parse_permutation("(1 2 3)", 3), (0, 1, 1))
PAIR_LISTS = {
    "reversed": list(reversed(all_fcrystal(3, 2))),
    "interleaved": round_robin(all_fcrystal(3, 2)),
    "repeated": [SWAP] * 3 + [CYCLE] + [SWAP] * 2,
    "lone-rank-1": [(Permutation((1,)), (2,))],
}


def test_round_robin_splits_every_permutation_into_runs():
    pairs = PAIR_LISTS["interleaved"]
    assert sorted(pairs) == sorted(all_fcrystal(3, 2))
    runs = [pi for pi, _ in itertools.groupby(pairs, lambda pair: pair[0])]
    assert len(runs) > len(set(runs)) == 9


@pytest.mark.parametrize("failing", [False, True], ids=["oracle", "failing-oracle"])
@pytest.mark.parametrize("name", PAIR_LISTS)
def test_sweep_over_runs_that_are_not_adjacent_matches_the_per_crystal_loop(monkeypatch, name, failing):
    if failing:
        real = crystal.oracle_counts

        def oracle_counts(seq, m):
            # one free linear component too many on the fixed-point sequence,
            # on 2-cycle orbits and on a 3-cycle orbit, at some levels only
            stats = real(seq, m)
            wrong = seq in {(0,), (1, -1), (0, 1, -1)} and m != 2
            return stats._replace(free_linear=stats.free_linear + 1) if wrong else stats

        monkeypatch.setattr(crystal, "oracle_counts", oracle_counts)
    pairs = PAIR_LISTS[name]
    new = crystal.verify_sweep(iter(pairs), 3)
    assert new == reference_verify.verify_sweep(iter(pairs), 3)
    assert new[0] == len(pairs)
    assert bool(new[2]) == failing


def exact_sequences(r_max, slope_max):
    """Every exact orbit sequence of the all-fcrystal crystals of rank up to r_max."""
    return {
        data.epsilon for pi, slopes in all_fcrystal(r_max, slope_max) for data in orbit_data(FCyclicCrystal(pi, slopes))
    }


def word_pair_sequences(r_max, slope_max):
    """u^(L/a) - rot(v, j)^(L/b) for every rotation j of v, over the words u, v
    on 0..slope_max with |u| + |v| <= r_max and the pairs (u, u) with
    |u| <= r_max, where a = |u|, b = |v| and L = lcm(a, b): the sequences of
    pair_table's blocks, read from every start along v."""
    words = [word for n in range(1, r_max + 1) for word in itertools.product(range(slope_max + 1), repeat=n)]
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= r_max] + [(u, u) for u in words]
    found = set()
    for u, v in pairs:
        period = lcm(len(u), len(v))
        for j in range(len(v)):
            found.add(tuple(map(sub, u * (period // len(u)), (v[j:] + v[:j]) * (period // len(v)))))
    return found


@pytest.mark.parametrize(
    "r_max, slope_max, count",
    [(1, 1, 1), (2, 1, 6), (3, 1, 19), (4, 1, 52), (5, 1, 154), (1, 2, 1), (2, 2, 10), (3, 2, 45), (4, 2, 184)],
)
def test_exact_orbit_sequences_are_the_word_pair_sequences(r_max, slope_max, count):
    # the identity is exact, not up to rotation: a sweep keyed by word pairs
    # meets the same exact sequences a crystal sweep sends to the oracle
    sequences = exact_sequences(r_max, slope_max)
    assert sequences == word_pair_sequences(r_max, slope_max)
    assert len(sequences) == count
