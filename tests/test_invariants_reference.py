"""gamma, endo_exponent and newton_slopes, which read the cycle-word pair core,
against the labelled orbit walk they replaced (reference_invariants.py); and
`endo --m n`, which reads endo_exponent, against row n of `endo --m-max`,
which reads crystal.class_tables."""

from __future__ import annotations

import random

import reference_invariants as reference
from fcrystal import FCyclicCrystal, Permutation, cli, endo_exponent, gamma, newton_slopes
from fcrystal.scan import enumerate_family

LEVELS = range(0, 9)
HUGE_LEVEL = 10**6
PARSER = cli.build_parser()


def small_crystals() -> list[FCyclicCrystal]:
    """Every all-fcrystal crystal with r <= 4 and slopes <= 2 (2,127 of them)."""
    return [FCyclicCrystal(pi, slopes) for r in range(1, 5) for pi, slopes in enumerate_family("all-fcrystal", r, 2)]


def random_crystals() -> list[FCyclicCrystal]:
    """Seeded crystals of ranks 1..60: small slopes, large ones, and identity or
    single-cycle permutations among the shuffled ones."""
    rng = random.Random(22)
    out = []
    for k in range(40):
        r = rng.randint(1, 60)
        images = list(range(1, r + 1))
        if k % 4 == 1:
            images = images[1:] + images[:1]  # one r-cycle
        elif k % 4 != 2:  # k % 4 == 2 keeps the identity
            rng.shuffle(images)
        top = rng.choice((1, 3, 10**12))
        out.append(FCyclicCrystal(Permutation(tuple(images)), tuple(rng.randint(0, top) for _ in range(r))))
    return out


def endo_b(crystal: FCyclicCrystal, flag: str, level: int):
    """The b member of cmd_endo's json payload for `endo ... flag level`, without the render."""
    argv = [
        "endo", "--r", str(crystal.r), "--perm", " ".join(map(str, crystal.pi.images)),
        "--slopes", ",".join(map(str, crystal.slopes)), flag, str(level), "--format", "json", "--override-limits",
    ]
    code, payload = cli.cmd_endo(PARSER.parse_args(argv))
    assert code == 0
    return payload["b"]


def test_small_crystals_match_the_orbit_walk():
    for crystal in small_crystals():
        key = (crystal.pi.images, crystal.slopes)
        assert [gamma(crystal, m) for m in LEVELS] == [reference.gamma(crystal, m) for m in LEVELS], key
        expected = [reference.endo_exponent(crystal, m) for m in LEVELS[1:]]
        assert [endo_exponent(crystal, m) for m in LEVELS[1:]] == expected, key
        assert newton_slopes(crystal) == reference.newton_slopes(crystal), key


def test_random_crystals_match_the_orbit_walk_at_a_huge_level():
    for crystal in random_crystals():
        key = (crystal.pi.images, crystal.slopes)
        assert gamma(crystal, HUGE_LEVEL) == reference.gamma(crystal, HUGE_LEVEL), key
        assert endo_exponent(crystal, HUGE_LEVEL) == reference.endo_exponent(crystal, HUGE_LEVEL), key
        assert newton_slopes(crystal) == reference.newton_slopes(crystal), key


def test_endo_level_equals_its_row_of_the_table_on_small_crystals():
    for crystal in small_crystals():
        row = endo_b(crystal, "--m-max", LEVELS[-1])
        assert [endo_b(crystal, "--m", n) for n in LEVELS[1:]] == list(row), (crystal.pi.images, crystal.slopes)


def test_endo_level_equals_its_row_of_the_table_at_a_huge_level():
    for crystal in random_crystals()[:8]:
        assert endo_b(crystal, "--m", HUGE_LEVEL) == endo_b(crystal, "--m-max", HUGE_LEVEL)[-1], crystal


def test_endo_level_builds_no_table(capsys, monkeypatch):
    # b at one level is a sum over the pair tables, so no table of levels is
    # built for it, at any level; the class_tables route would need 10**12 entries
    def no_table(*args, **kwargs):
        raise AssertionError("a table of levels was built")

    for target in ("fcrystal.cli.class_tables", "fcrystal.crystal.class_tables", "fcrystal.crystal._level_tables"):
        monkeypatch.setattr(target, no_table)
    argv = ["endo", "--r", "1", "--perm", "(1)", "--slopes", "0", "--m", str(10**12), "--override-limits"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (f"b({10**12}) = {10**12}\n", "")
    argv = ["endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m", str(10**12), "--override-limits"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (f"b({10**12}) = {2 * (2 * 10**12 - 1)}\n", "")
