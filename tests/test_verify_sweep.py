"""The crystal sweep of `verify`: fcrystal.crystal.verify_sweep against the
per-crystal loop it replaced (tests/reference_verify.py), through the cli's
text and json output, with forced mismatches and refusals (the vertex budget
is the cli's, see tests/test_cli.py); the scope of its memo; and wide
exhaustive sweeps."""

from __future__ import annotations

import itertools
import json
import math

import pytest

import reference_verify
from fcrystal import cli, crystal
from fcrystal.cli import main
from fcrystal.scan import enumerate_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outputs(capsys, argv):
    """(code, stdout, stderr) of argv in text and in json."""
    return [run(capsys, *argv, "--format", fmt) for fmt in ("text", "json")]


def use_reference(monkeypatch):
    """Route the cli's crystal sweep through the reference loop, computing each
    distinct input once per test (the --random part and the format do not
    reach it)."""
    results = {}

    def reference(pairs, m_max):
        key = (tuple(pairs), m_max)
        if key not in results:
            results[key] = reference_verify.verify_sweep(*key)
        return results[key]

    monkeypatch.setattr(cli, "verify_sweep", reference)


@pytest.mark.parametrize("m_max", [1, 3, 5])
@pytest.mark.parametrize("r_max, slope_max", [(4, 2), (5, 1)])
def test_sweep_output_matches_the_per_crystal_loop(capsys, monkeypatch, r_max, slope_max, m_max):
    sweeps = [
        ("verify", "--r-max", str(r_max), "--slope-max", str(slope_max), "--m-max", str(m_max)) + extra
        for extra in [(), ("--random", "40", "--seed", str(m_max))]
    ]
    new = [outputs(capsys, argv) for argv in sweeps]
    use_reference(monkeypatch)
    assert new == [outputs(capsys, argv) for argv in sweeps]
    assert all(code == 0 for pair in new for code, _, _ in pair)


def off_linear(monkeypatch, wrong):
    """Make the oracle count one free linear component too many on (seq, m) when wrong(seq, m)."""
    real = crystal.oracle_counts

    def oracle_counts(seq, m):
        stats = real(seq, m)
        return stats._replace(free_linear=stats.free_linear + 1) if wrong(seq, m) else stats

    monkeypatch.setattr(crystal, "oracle_counts", oracle_counts)


def test_forced_mismatches_list_every_crystal_orbit_and_level(capsys, monkeypatch):
    # (1, -1) is a 2-cycle orbit of many crystals, at several orbit indices;
    # (0, 1, -1) sits on 3-cycle orbits; each fails at some levels only
    off_linear(monkeypatch, lambda seq, m: (seq == (1, -1) and m != 2) or (seq == (0, 1, -1) and m == 3))
    argv = ("verify", "--r-max", "4", "--slope-max", "1", "--m-max", "3", "--random", "5")
    new = outputs(capsys, argv)
    use_reference(monkeypatch)
    assert new == outputs(capsys, argv)
    (text_code, text, _), (json_code, json_text, _) = new
    assert (text_code, json_code) == (1, 1)
    assert text.endswith("FAIL\n")
    payload = json.loads(json_text)
    assert payload["ok"] is False
    entries = payload["mismatches"]
    assert {entry["m"] for entry in entries} == {1, 3}
    assert len({entry["orbit"] for entry in entries}) > 1
    assert len({entry["perm"] for entry in entries}) > 10


def counted(pairs, seen):
    """pairs, counting in seen[0] how many were drawn."""
    for pair in pairs:
        seen[0] += 1
        yield pair


def all_fcrystal(r_max, slope_max=1):
    return [pair for r in range(1, r_max + 1) for pair in enumerate_family("all-fcrystal", r, slope_max)]


def refusal(sweep, pairs, m_max):
    """(exception type, message, crystals drawn) of a sweep that refuses."""
    seen = [0]
    with pytest.raises((RuntimeError, ValueError)) as info:
        sweep(counted(pairs, seen), m_max)
    return info.type, str(info.value), seen[0]


@pytest.mark.parametrize(
    "edges_off",
    [
        (0, 1, -1),  # first seen at rank 3
        (1, -1),  # first seen at rank 2
        (0,),  # the first crystal's first orbit
    ],
    ids=["edges", "edges-first", "first-orbit"],
)
def test_refusals_fire_at_the_same_crystal(monkeypatch, edges_off):
    real = crystal.oracle_counts

    def oracle_counts(seq, m):
        stats = real(seq, m)
        if seq == edges_off and m == 2:
            return stats._replace(circular_edges=stats.circular_edges + 1)
        return stats

    monkeypatch.setattr(crystal, "oracle_counts", oracle_counts)
    pairs = all_fcrystal(4)
    new = refusal(crystal.verify_sweep, pairs, 2)
    assert new == refusal(reference_verify.verify_sweep, pairs, 2)
    assert new[0] is RuntimeError


def test_level_zero_is_refused_before_any_crystal():
    seen = [0]
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        crystal.verify_sweep(counted(all_fcrystal(2), seen), 0)
    assert seen == [0]


def test_memo_lives_for_one_sweep(capsys, monkeypatch):
    # 442 crystals hold 3,018 orbits but 52 distinct exact sequences: 52 x 5 oracle calls
    real = crystal.oracle_counts
    calls = []

    def oracle_counts(seq, m):
        calls.append((seq, m))
        return real(seq, m)

    monkeypatch.setattr(crystal, "oracle_counts", oracle_counts)
    argv = ("verify", "--r-max", "4", "--slope-max", "1", "--m-max", "5")
    for _ in range(2):
        calls.clear()
        assert run(capsys, *argv) == (0, "sweep r<=4 slope<=1 m<=5: crystals=442 checks=15090\nmismatches: 0\nok\n", "")
        assert len(calls) == 260 == len(set(calls))


def orbit_count(images: tuple[int, ...]) -> int:
    """Orbits of a permutation on pairs: gcd(a, b) for every ordered pair of its cycle lengths."""
    lengths, seen = [], set()
    for start in range(len(images)):
        length, point = 0, start
        while point not in seen:
            seen.add(point)
            point = images[point]
            length += 1
        if length:
            lengths.append(length)
    return sum(math.gcd(a, b) for a in lengths for b in lengths)


@pytest.mark.parametrize("r_max, slope_max, m_max", [(6, 1, 6), (5, 2, 5)])
def test_wide_crystal_sweep_finds_no_mismatch(capsys, r_max, slope_max, m_max):
    vectors = [(slope_max + 1) ** r for r in range(1, r_max + 1)]
    crystals = sum(math.factorial(r) * n for r, n in zip(range(1, r_max + 1), vectors))
    checks = sum(
        orbit_count(images) * n * m_max
        for r, n in zip(range(1, r_max + 1), vectors)
        for images in itertools.permutations(range(r))
    )
    argv = ("verify", "--r-max", str(r_max), "--slope-max", str(slope_max), "--m-max", str(m_max))
    assert run(capsys, *argv) == (
        0,
        f"sweep r<={r_max} slope<={slope_max} m<={m_max}: crystals={crystals} checks={checks}\nmismatches: 0\nok\n",
        "",
    )
