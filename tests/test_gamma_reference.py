"""`fcrystal gamma` json and text against the path it replaced (see
reference_gamma.py): the same bytes on large cycles, on mixed cycle lengths
with fixed points, and on random crystals with small and clamped slopes, at
every level bound 1..6."""

from __future__ import annotations

import random

import pytest

from fcrystal import FCyclicCrystal, Permutation
from fcrystal.cli import main
from fcrystal.permutation import parse_permutation
from reference_gamma import gamma_output

LEVELS = range(1, 7)
SLOPES = (0, 1, 2, 7, 40)


def lines(text: str) -> list[str]:
    # compared as lists, so a failure names the first differing line instead of
    # diffing megabytes of text
    return text.splitlines(keepends=True)


def cli_output(capsys, crystal: FCyclicCrystal, m_max: int, fmt: str) -> str:
    argv = [
        "gamma", "--r", str(crystal.r), "--perm", " ".join(map(str, crystal.pi.images)),
        "--slopes", ",".join(map(str, crystal.slopes)), "--m-max", str(m_max), "--format", fmt, "--override-limits",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def large_crystals() -> list[FCyclicCrystal]:
    # one 200-cycle, its points out of order, with 0/1 slopes: 200 orbits of length 200
    cycle = "(" + " ".join(str(k * 7 % 201) for k in range(1, 201)) + ")"
    # cycles of lengths 12 and 18 (gcd 6) and four fixed points, with slopes up to 40
    mixed = "(" + " ".join(map(str, range(1, 13))) + ")(" + " ".join(map(str, range(13, 31))) + ")"
    return [
        FCyclicCrystal(parse_permutation(cycle, 200), tuple((k * k + k // 3) % 2 for k in range(200))),
        FCyclicCrystal(parse_permutation(mixed, 34), tuple(SLOPES[k * k % 5] for k in range(34))),
    ]


@pytest.mark.parametrize("index", [0, 1], ids=["200-cycle", "12-and-18-cycles-and-fixed-points"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gamma_matches_old_path_on_large_permutations(capsys, index, fmt):
    crystal = large_crystals()[index]
    for m_max in LEVELS:
        assert lines(cli_output(capsys, crystal, m_max, fmt)) == lines(gamma_output(crystal, m_max, fmt)), m_max


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gamma_matches_old_path_on_random_crystals(capsys, fmt):
    rng = random.Random(13)
    for _ in range(80):
        r = rng.randint(1, 12)
        images = list(range(1, r + 1))
        rng.shuffle(images)
        crystal = FCyclicCrystal(Permutation(tuple(images)), tuple(rng.choice(SLOPES) for _ in range(r)))
        for m_max in LEVELS:
            assert lines(cli_output(capsys, crystal, m_max, fmt)) == lines(gamma_output(crystal, m_max, fmt)), (
                crystal,
                m_max,
            )
