"""Command line behaviour: subcommands, formats, exit codes, determinism, files."""

from __future__ import annotations

import argparse
import decimal
import errno
import functools
import itertools
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

from fcrystal import FCyclicCrystal, Permutation, cli, gamma_table, orbit_data, scan
from fcrystal.circseq import census_levels
from fcrystal.cli import main
from fcrystal.digraph import ComponentStats
from fcrystal.permutation import cycle_decomposition, parse_permutation
from fcrystal.scan import ScanRecord, enumerate_family, summarize
from reference_cli import scan_rows as reference_scan_rows
from reference_gamma import gamma_output as reference_gamma_output
from reference_gamma import orbit_view as reference_orbit_view
from reference_scan import records as per_crystal_records
from reference_scan import scan_record as reference_scan_record
from test_scan import SMALL_FAMILIES, typed_fields


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


def run_timed_out(argv: str, timeout: float):
    """(code, out, err) of main(argv) in a fresh interpreter, argv a Python
    expression evaluated there (a 50,000-point --perm is past the OS limit on
    one argument), killed and failed after timeout seconds."""
    code = f"import sys; from fcrystal.cli import main; sys.exit(main({argv}))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)
    return result.returncode, result.stdout, result.stderr


# ------------------------------------------------------------ gamma


def test_gamma_text(capsys):
    code, out, _ = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "3")
    assert code == 0
    assert "gamma: 0 1 1 1" in out
    assert "stabilization: 1" in out
    assert "orbit 2:" in out


def test_gamma_large_slope_is_fast(capsys):
    # two runs in one orbit however large the slope: the census cost follows runs, not signs
    for top in ("16000", "1000000000000"):
        start = time.perf_counter()
        code, out, _ = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", f"0,{top}", "--m-max", "3")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "gamma: 0 1 2 3" in out
        assert f"stabilization: {top}" in out
        assert elapsed < 1.0, top


def test_gamma_json_fields(capsys):
    code, out, _ = run(
        capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0 4", "--m-max", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "fcrystal/1"
    assert payload["command"] == "gamma"
    assert payload["gamma"] == [0, 1, 2, 3, 4, 4, 4]
    assert payload["delta"] == [1, 1, 1, 1, 0, 0]
    assert payload["b"] == [2, 4, 6, 8, 12, 16]
    assert payload["stabilization"] == 4
    assert payload["stabilization_is_isomorphism_number"] is False
    assert payload["ordinary"] is None
    assert payload["orbits"][0]["normalized"] == {"kind": "all-zero", "length": 2}
    assert payload["orbits"][1]["census"] == {"1": 1, "2": 1, "3": 1, "4": 1}


def test_orbit_view_matches_normalize_on_every_orbit():
    # small and large entries, clamped or not: every family crystal at r <= 3 with
    # slopes up to 3, and random crystals up to r = 12 with slopes up to 40
    crystals = [FCyclicCrystal(pi, slopes) for pi, slopes in enumerate_family("all-fcrystal", 3, 3)]
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 12)
        images = list(range(1, r + 1))
        rng.shuffle(images)
        slopes = tuple(rng.choice((0, 1, 2, 7, 40)) for _ in range(r))
        crystals.append(FCyclicCrystal(Permutation(tuple(images)), slopes))
    clamped = 0
    for c in crystals:
        orbits = orbit_data(c)
        for m_max in (1, 2, 3, 6):
            for data in orbits:
                clamped += max(map(abs, data.epsilon)) > m_max + 1 and data.level is not None
                entries, census, level = cli._orbit_fields(data, m_max)
                expected = reference_orbit_view(data.orbit.points, data.epsilon, data.census, m_max)
                # every field, and the json record written from them, points read from the Orbit's columns
                normalized = (
                    {"kind": "all-zero", "length": len(data.epsilon)}
                    if entries is None
                    else {"kind": "signs", "entries": entries}
                )
                assert normalized == expected["normalized"], (c, m_max)
                assert {str(n): count for n, count in census} == expected["census"], (c, m_max)
                assert level == expected["level"], (c, m_max)
                out: list[str] = []
                cli._orbits_write([data], m_max, out)
                assert "".join(out) == json.dumps([expected], indent=2).replace("\n", "\n  "), (c, m_max)
            # the text lines, one per orbit, against the reference's
            text = [cli._orbit_line(k, data, m_max) for k, data in enumerate(orbits, start=1)]
            assert text == reference_gamma_output(c, m_max, "text").splitlines()[5:], (c, m_max)
    assert clamped


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_orbit_census_is_counted_only_to_its_highest_level(capsys, monkeypatch, fmt):
    # no census count exists past an orbit's highest level, so gamma text and
    # json count each orbit's census only that far: an orbit costs the same at
    # any --m-max.  A 40-cycle and a 10-cycle whose slopes average apart give
    # balanced orbits and unbalanced ones.
    calls = []

    def recording(census, m):
        calls.append((m, max([hi for _, hi in census], default=0)))
        return census_levels(census, m)

    monkeypatch.setattr(cli, "census_levels", recording)
    perm = "(" + " ".join(map(str, range(1, 41))) + ")(" + " ".join(map(str, range(41, 51))) + ")"
    slopes = tuple(k * k % 3 % 2 for k in range(40)) + (1,) * 10
    orbits = orbit_data(FCyclicCrystal(parse_permutation(perm, 50), slopes))
    assert {data.level is None for data in orbits} == {True, False}
    argv = ["gamma", "--r", "50", "--perm", perm, "--slopes", ",".join(map(str, slopes)), "--m-max", "100000"]
    code, out, err = run(capsys, *argv, "--override-limits", "--format", fmt)
    assert (code, err) == (0, "") and out
    assert len(calls) == len(orbits) == 70
    assert all(m <= highest for m, highest in calls), max(calls)


def test_gamma_ordinary_crystal(capsys):
    code, out, _ = run(capsys, "gamma", "--r", "3", "--perm", "1 2 3", "--slopes", "0,0,0", "--m-max", "2")
    assert code == 0
    assert "gamma: 0 0 0" in out
    assert "ordinary=yes" in out


def test_gamma_csv(capsys):
    code, out, _ = run(
        capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["m,gamma,delta,b", "0,0,,", "1,1,1,2", "2,1,0,6"]


def test_gamma_deterministic_output(capsys):
    args = ("gamma", "--r", "3", "--perm", "(1 2 3)", "--slopes", "0,1,1", "--m-max", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ------------------------------------------------------------ endo


def test_endo_single_level(capsys):
    code, out, _ = run(capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m", "3")
    assert code == 0
    assert out == "b(3) = 10\n"


def test_endo_with_prime(capsys):
    code, out, _ = run(
        capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m", "3", "--prime", "2"
    )
    assert code == 0
    assert "components(3) = 2^10 = 1024" in out


def test_endo_table_json(capsys):
    code, out, _ = run(
        capsys, "endo", "--r", "1", "--perm", "1", "--slopes", "0", "--m-max", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["b"] == [1, 2, 3, 4]


def test_endo_identity_crystal(capsys):
    code, out, _ = run(capsys, "endo", "--r", "2", "--perm", "1 2", "--slopes", "0,0", "--m", "3")
    assert code == 0
    assert out == "b(3) = 12\n"


def test_endo_supersingular_components(capsys):
    code, out, _ = run(
        capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m", "1", "--prime", "2"
    )
    assert code == 0
    assert "b(1) = 2" in out
    assert "components(1) = 2^2 = 4" in out


def test_endo_requires_level(capsys):
    code, _, err = run(capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1")
    assert code == 2
    assert "invalid input" in err


def test_endo_large_prime_power_is_exact(capsys):
    code, out, _ = run(
        capsys, "endo", "--r", "2", "--perm", "1 2", "--slopes", "0,0", "--m", "16", "--prime", "7"
    )
    assert code == 0
    assert f"= {7 ** 64}" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_endo_prime_power_above_str_digit_limit(capsys, fmt):
    # 1000003^1024 has 6,145 digits, past the interpreter's 4,300-digit str() limit
    code, out, err = run(
        capsys,
        "endo", "--r", "8", "--perm", "1 2 3 4 5 6 7 8", "--slopes", "0,0,0,0,0,0,0,0",
        "--m", "16", "--prime", "1000003", "--format", fmt,
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["b"] == 1024
        digits = payload["components"]
    else:
        assert out.startswith("b(16) = 1024\ncomponents(16) = 1000003^1024 = ")
        digits = out.rstrip("\n").rsplit(" ", 1)[1]
    assert len(digits) == 6145 and digits.isdigit()
    assert int(Decimal(digits)) == 1000003**1024


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gamma_stabilization_above_str_digit_limit(capsys, fmt):
    # slopes of 4,300 digits, which an integer option accepts, and a stabilization
    # level of 4,301, past the interpreter's 4,300-digit str() limit
    big = 9 * 10**4299
    table = gamma_table(FCyclicCrystal.from_text(4, "(1 2 3 4)", (0, 0, big, big)), 2)
    assert table.stabilization == 2 * big
    argv = ("gamma", "--r", "4", "--perm", "(1 2 3 4)", "--slopes", f"0,0,{big},{big}", "--m-max", "2")
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        payload = json.loads(out, parse_int=Decimal)
        assert payload["gamma"] == list(table.gamma)
        digits = str(payload["stabilization"])
    else:
        assert "\ngamma: " + " ".join(map(str, table.gamma)) + "   (m = 0..2)\n" in out
        digits = re.search(r"^stabilization: (\d+)", out, re.M).group(1)
    assert len(digits) == 4301
    assert int(Decimal(digits)) == 2 * big


# An integer option takes any number of digits: 4,400 nines, past the
# interpreter's 4,300-digit int() and str() limit, which stays as it is.
NINES = "9" * 4400
NINES_INT = 10**4400 - 1


def test_integer_option_reads_past_str_digit_limit():
    assert cli._integer(NINES) == NINES_INT
    assert cli._integer("-" + NINES) == -NINES_INT
    assert cli._integer("+" + NINES) == NINES_INT


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gamma_slope_past_str_digit_limit(capsys, fmt):
    table = gamma_table(FCyclicCrystal.from_text(2, "(1 2)", (0, NINES_INT)), 3)
    assert table.stabilization == NINES_INT
    assert [(data.epsilon, data.level) for data in table.orbits] == [((0, 0), 0), ((-NINES_INT, NINES_INT), NINES_INT)]
    code, out, err = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", f"0,{NINES}", "--m-max", "3", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        payload = json.loads(out, parse_int=Decimal)
        assert payload["slopes"] == [0, NINES_INT]
        assert payload["gamma"] == list(table.gamma)
        assert payload["stabilization"] == NINES_INT
        # the level shown is that of the sign form clamped at m_max (see cli._orbit_fields)
        assert [(orbit["epsilon"], orbit["level"]) for orbit in payload["orbits"]] == [([0, 0], 0), ([-NINES_INT, NINES_INT], 4)]
    else:
        lines = out.splitlines()
        assert lines[0] == f"crystal r=2 perm=(1 2) slopes=(0,{NINES}) dieudonne=no ordinary=n/a"
        assert lines[1] == "gamma: " + " ".join(map(str, table.gamma)) + "   (m = 0..3)"
        assert lines[4] == f"stabilization: {NINES} (level only; not an isomorphism number here)"
        assert lines[6] == f"orbit 2: len=2 eps=(-{NINES},{NINES}) level=4 census={{1:1,2:1,3:1}}"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_seq_past_str_digit_limit(capsys, fmt):
    seq = (0, NINES_INT, -NINES_INT)
    check, stats = cli.verify_sequence(seq, 3)
    code, out, err = run(capsys, "verify", "--seq", f"0,{NINES},-{NINES}", "--m", "3", "--format", fmt)
    assert (code, err) == (0, "")
    assert check.match
    if fmt == "json":
        payload = json.loads(out, parse_int=Decimal)
        assert payload["seq"] == list(seq)
        assert payload["formula"] == {"linear": check.formula_linear, "circular": check.formula_circular}
        assert payload["oracle"]["linear"] == stats.free_linear
    else:
        assert out.splitlines()[:3] == [
            f"seq=(0,{NINES},-{NINES}) m=3",
            f"formula: linear={check.formula_linear} circular={check.formula_circular}",
            f"oracle:  linear={stats.free_linear} circular={stats.circular}"
            f" circular_edges={stats.circular_edges} zero_linear={stats.zero_linear}",
        ]


def test_verify_random_max_entry_past_str_digit_limit(capsys):
    draws = list(cli._random_draws(-NINES_INT, 3, 10, NINES_INT, 4))
    assert max(abs(e) for seq, _ in draws for e in seq) > 10**4300
    assert all(cli.verify_sequence(seq, m)[0].match for seq, m in draws)
    code, out, err = run(capsys, "verify", "--r-max", "1", "--random", "3", "--max-entry", NINES, "--seed", "-" + NINES)
    assert (code, err) == (0, "")
    assert out == (
        "sweep r<=1 slope<=1 m<=4: crystals=2 checks=11\n"
        f"random: n=3 seed=-{NINES} max_s=10 max_entry={NINES}\n"
        "mismatches: 0\nok\n"
    )


def test_endo_prime_past_str_digit_limit(capsys):
    code, out, err = run(capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m", "1", "--prime", NINES)
    assert (code, err) == (0, "")
    assert out == f"b(1) = 2\ncomponents(1) = {NINES}^2 = {Decimal(NINES_INT**2)}\n"


def power_cases() -> list[tuple[int, int]]:
    # both sides of the route switch (v * digits of p at 4,300) and of str()'s
    # own limit (2^14284 has 4,300 digits, 2^14285 has 4,301), a p of 4,300
    # and of 4,301 digits, and seeded random p and v; the largest power has
    # about 60,000 digits
    rng = random.Random(23)
    limit = sys.int_info.default_max_str_digits
    cases = [(2, 0), (2, 1), (2, limit), (2, limit + 1), (10, limit // 2), (10, limit // 2 + 1), (10, limit - 1)]
    cases += [(2, v) for v in range(14282, 14288)] + [(10**limit - 1, 1), (10**limit + 1, 1), (10**limit + 1, 3)]
    cases += [(rng.randrange(2, 10 ** rng.randint(1, 12)), rng.randrange(0, 5000)) for _ in range(60)]
    return cases


def test_power_text_matches_str_across_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    got = [cli._power(p, v) for p, v in power_cases()]
    try:
        sys.set_int_max_str_digits(0)
        assert got == [str(p**v) for p, v in power_cases()]
        # with no limit, every power past p^0 takes the Decimal route
        assert [cli._power(p, v) for p, v in power_cases()[:20]] == got[:20]
    finally:
        sys.set_int_max_str_digits(limit)


def test_power_needs_neither_the_digit_limit_nor_context_keywords(monkeypatch):
    # Pythons before 3.10.7 have no sys.get_int_max_str_digits, and before 3.11
    # localcontext takes no keywords; the texts are the same without either
    got = [cli._power(p, v) for p, v in power_cases()]
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.setattr(cli, "localcontext", lambda: decimal.localcontext())
    assert [cli._power(p, v) for p, v in power_cases()] == got


def test_json_text_refuses_a_record():
    # records are named tuples, so a tuple test alone would write one as a bare array
    pi = Permutation((2, 1))
    for value in [pi, {"crystal": FCyclicCrystal(pi, (0, 1))}, [ComponentStats(1, 2, 3, 4)]]:
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(value)
    assert cli._json_text({"slopes": (0, 1), "gamma": [1, 2]}) == json.dumps({"slopes": [0, 1], "gamma": [1, 2]}, indent=2)


def test_power_past_any_decimal_is_a_resource_limit(capsys):
    # b = 10**18, so 2^b would need more digits than Decimal's largest precision;
    # it is refused before any power is computed
    code, out, err = run(
        capsys, "endo", "--r", "1", "--perm", "(1)", "--slopes", "0", "--m", str(10**18), "--prime", "2",
        "--override-limits",
    )
    assert (code, out) == (3, "")
    assert err == f"resource limit: 2^{10**18} has more digits than a Decimal can hold\n"


def no_decimal_power(monkeypatch):
    """Fail the test if a Decimal power is computed."""

    def localcontext():
        raise AssertionError("a Decimal power was computed")

    monkeypatch.setattr(cli, "localcontext", localcontext)


def test_power_past_memory_is_refused_before_it_is_computed(capsys, monkeypatch):
    # b = 10**12, so 2^b has 301,029,995,664 digits: a Decimal could hold them,
    # a process with 8.4 GB of memory could not
    monkeypatch.setattr(cli, "_usable_memory", lambda: 8_400_000_000)
    no_decimal_power(monkeypatch)
    code, out, err = run(
        capsys, "endo", "--r", "1", "--perm", "(1)", "--slopes", "0", "--m", str(10**12), "--prime", "2",
        "--override-limits",
    )
    assert (code, out) == (3, "")
    assert err == (
        f"resource limit: 2^{10**12} has about 301029995664 digits,"
        " more than the 8400000000 bytes this process may use\n"
    )


def test_power_is_refused_only_past_memory(monkeypatch):
    # 2^20000 has 6,021 digits, past str()'s limit, so it takes the Decimal route
    monkeypatch.setattr(cli, "_usable_memory", lambda: 6021)
    assert cli._power(2, 20000) == str(Decimal(2**20000))
    monkeypatch.setattr(cli, "_usable_memory", lambda: 6020)
    no_decimal_power(monkeypatch)
    with pytest.raises(MemoryError, match=r"^2\^20000 has about 6021 digits, more than the 6020 bytes"):
        cli._power(2, 20000)


def test_usable_memory_is_at_most_the_physical_memory():
    memory = cli._usable_memory()
    assert 0 < memory <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", NINES), 3,
         f"resource limit: level {NINES} needs a table of one entry per level, larger than this platform can address"),
        (("gamma", "--r", "-" + NINES, "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "2"), 2,
         f"invalid input: --r must be at least 1, got -{NINES}"),
        (("gamma", "--r", NINES, "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "2"), 2,
         f"invalid input: --slopes needs exactly {NINES} entries, got 2"),
        (("scan", "--family", "all-dieudonne", "--r", NINES, "--m-max", "2"), 3,
         f"resource limit: r={NINES} exceeds the default cap {cli.MAX_R}; pass --override-limits to proceed"),
        (("verify", "--r-max", "1", "--random", NINES), 3,
         f"resource limit: {NINES} random sequences exceed the default cap {cli.MAX_CRYSTALS};"
         " pass --override-limits to proceed"),
    ],
    ids=["level", "at-least", "slope-count", "rank", "random-count"],
)
def test_refusals_echo_integers_past_str_digit_limit(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", message + "\n")


# ------------------------------------------------------------ verify


def test_verify_sequence_match(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "3,0,-1,-2", "--m", "5")
    assert code == 0
    assert "formula: linear=3 circular=2" in out
    assert "match: yes" in out


def test_verify_all_zero_sequence(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "0,0", "--m", "4")
    assert code == 0
    assert "formula: linear=0 circular=4" in out
    assert "match: yes" in out


def test_verify_sequence_json(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "3,-3", "--m", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == {"linear": 3, "circular": 2}
    assert payload["oracle"]["circular_edges"] == 4
    assert payload["match"] is True


def test_verify_dump_digraph(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "0,0", "--m", "2", "--dump-digraph")
    assert code == 0
    assert "digraph level {" in out
    assert '"0:1" -> "0:2" [weight="0"];' in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seq", "1,-1", "--m", "2", "--random", "3"], "pass only one of --seq and --random"),
        (["--r-max", "2", "--m-max", "2", "--dump-digraph"], "--dump-digraph needs --seq"),
        (["--r-max", "1", "--m", "3"], "--m needs --seq"),
        (["--seq", "1,-1", "--m", "2", "--r-max", "7"], "pass only one of --seq and --r-max"),
        (["--seq", "1,-1", "--m", "2", "--slope-max", "3"], "pass only one of --seq and --slope-max"),
        (["--seq", "1,-1", "--m", "2", "--seed", "3"], "pass only one of --seq and --seed"),
        (["--seq", "1,-1", "--m", "2", "--max-s", "2"], "pass only one of --seq and --max-s"),
        (["--seq", "1,-1", "--m", "2", "--max-entry", "1"], "pass only one of --seq and --max-entry"),
        (["--seq", "1,-1", "--m", "2", "--m-max", "5"], "pass only one of --m and --m-max"),
    ],
    ids=["seq-random", "sweep-dump", "sweep-m", "seq-r-max", "seq-slope-max", "seq-seed", "seq-max-s", "seq-max-entry",
         "seq-m-and-m-max"],
)
def test_verify_refuses_a_flag_of_its_other_mode(capsys, argv, message):
    assert run(capsys, "verify", *argv) == (2, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("random", [[], ["--random", "0"]], ids=["absent", "zero"])
@pytest.mark.parametrize("flag", ["--seed", "--max-s", "--max-entry"])
def test_verify_refuses_a_random_flag_without_random_draws(capsys, flag, random):
    assert run(capsys, "verify", "--r-max", "1", *random, flag, "3") == (2, "", f"invalid input: {flag} needs --random\n")


@pytest.mark.parametrize("perm", ["(1 " + "9" * 5000 + ")", "9" * 5000 + " 1"], ids=["cycle", "one-line"])
def test_point_past_the_int_digit_limit_is_a_parse_error(capsys, perm):
    code, out, err = run(capsys, "gamma", "--r", "2", "--perm", perm, "--slopes", "0,1", "--m-max", "2")
    position = 3 if perm[0] == "(" else 0
    assert (code, out, err) == (2, "", f"invalid input: point {'9' * 5000} at position {position} is outside 1..2\n")


def test_verify_sweep_reads_its_documented_defaults(capsys):
    assert run(capsys, "verify") == run(capsys, "verify", "--r-max", "3", "--slope-max", "1", "--m-max", "4")
    random = ("verify", "--r-max", "1", "--random", "20")
    assert run(capsys, *random) == run(capsys, *random, "--seed", "0", "--max-s", "10", "--max-entry", "6")
    assert run(capsys, "verify", "--seq", "1,-1") == run(capsys, "verify", "--seq", "1,-1", "--m", "4")
    assert run(capsys, "verify", "--seq", "1,-1", "--m-max", "3") == run(capsys, "verify", "--seq", "1,-1", "--m", "3")


def test_a_repeated_image_is_refused_in_linear_time():
    # images 1..n-1 and n-1 again: one count per image value, where counting
    # each image in turn scans all n images n times, past the timeout here
    argv = (
        "['gamma', '--r', '50000', '--perm', ' '.join(map(str, [*range(1, 50000), 49999])),"
        " '--slopes', ','.join(['0'] * 50000), '--m-max', '1']"
    )
    assert run_timed_out(argv, 10) == (2, "", "invalid input: image 49999 repeats in one-line form\n")


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--r-max", "2", "--slope-max", "2", "--m-max", "3", "--random", "50")
    assert code == 0
    assert "mismatches: 0" in out
    assert out.rstrip().endswith("ok")


def force_mismatch(monkeypatch) -> list:
    """Make every verify_sequence check the cli reads disagree by one linear
    component; returns the (seq, m) of each call."""
    real = cli.verify_sequence
    calls = []

    def spy(seq, m):
        calls.append((seq, m))
        check, stats = real(seq, m)
        return check._replace(formula_linear=check.formula_linear + 1), stats

    monkeypatch.setattr(cli, "verify_sequence", spy)
    return calls


def test_verify_seq_reports_a_mismatch(capsys, monkeypatch):
    calls = force_mismatch(monkeypatch)
    code, out, _ = run(capsys, "verify", "--seq", "3,0,-1,-2", "--m", "5")
    assert code == 1
    assert "formula: linear=4 circular=2" in out
    assert "match: no" in out
    assert calls == [((3, 0, -1, -2), 5)]


def test_verify_random_sweep_reports_mismatches(capsys, monkeypatch):
    calls = force_mismatch(monkeypatch)
    code, out, _ = run(capsys, "verify", "--r-max", "1", "--m-max", "3", "--random", "5", "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload["ok"] is False
    assert len(calls) == 5
    assert payload["mismatches"] == [{"seq": list(seq), "m": m} for seq, m in calls]


def randint_draws(seed, n, max_s, max_entry, m_max) -> list:
    """The (seq, m) pairs of a random sweep as random.Random(seed).randint draws them."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        s = rng.randint(1, max_s)
        seq = tuple(rng.randint(-max_entry, max_entry) for _ in range(s))
        draws.append((seq, rng.randint(1, m_max)))
    return draws


@pytest.mark.parametrize("seed", [0, 7, -3, 2**70 + 1])
@pytest.mark.parametrize(
    "max_s, max_entry, m_max",
    [(12, 8, 10), (1, 8, 10), (12, 0, 10), (12, 8, 1), (1, 0, 1), (5, 2**40, 3)],
    ids=["benchmark", "max-s-1", "max-entry-0", "m-max-1", "all-one", "wide-entries"],
)
def test_random_draws_follow_randint(seed, max_s, max_entry, m_max):
    assert list(cli._random_draws(seed, 400, max_s, max_entry, m_max)) == randint_draws(seed, 400, max_s, max_entry, m_max)


def test_random_sweep_checks_the_drawn_sequences(capsys, monkeypatch):
    calls = force_mismatch(monkeypatch)
    argv = ("--random", "30", "--seed", "5", "--max-s", "4", "--max-entry", "3")
    assert run(capsys, "verify", "--r-max", "1", "--m-max", "6", *argv)[0] == 1
    assert calls == randint_draws(5, 30, 4, 3, 6)


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "\u00b2", "0x1", "1.0", "+", "--1"])
def test_integer_lists_take_ascii_digits_only(capsys, token):
    # int() reads "1_0" as 10 and the Arabic-Indic and fullwidth digits as 1
    argv = ("endo", "--r", "2", "--perm", "(1 2)", "--slopes", f"0,{token}", "--m", "2")
    assert run(capsys, *argv) == (2, "", f"invalid input: bad integer {token!r} in --slopes\n")
    assert run(capsys, "verify", "--seq", f"1,{token}") == (2, "", f"invalid input: bad integer {token!r} in --seq\n")


def test_integer_lists_take_signs(capsys):
    assert run(capsys, "verify", "--seq", "+1,-1", "--m", "2") == run(capsys, "verify", "--seq", "1,-1", "--m", "2")
    assert run(capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "+0,+1", "--m", "3")[:2] == (0, "b(3) = 10\n")


@pytest.mark.parametrize("token", ["1_0", "\u0662", "x"])
def test_integer_options_take_ascii_digits_only(capsys, token):
    with pytest.raises(SystemExit) as exit_info:
        main(["endo", "--r", token, "--perm", "(1 2)", "--slopes", "0,1", "--m", "2"])
    assert exit_info.value.code == 2
    assert f"argument --r: invalid int value: {token!r}" in capsys.readouterr().err


def test_help_shows_only_user_facing_text(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for command in ("gamma", "endo", "verify", "scan", "minimal"):
        assert f"\n* {command} " in out
    for code in ("0 success", "1 a checked property failed", "2 invalid input", "3 resource limit hit"):
        assert code in out
    assert re.findall(r"(?<![\w-])_\w+", out) == []  # no private name, such as _emit


def test_verify_budget_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--seq", "1,1,1,1", "--m", "9", "--vertex-budget", "10")
    assert code == 3
    assert "resource limit" in err


# ------------------------------------------------------------ scan


def test_scan_csv_and_summary(capsys):
    code, out, err = run(
        capsys, "scan", "--family", "circular-dieudonne", "--r", "3", "--m-max", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("r,perm,slopes,m_max,gamma,")
    assert len(lines) == 1 + 2 * 8  # two 3-cycles, eight slope vectors
    assert "violations[nonincreasing]=0" in err


# Every family at r <= 5 (all-fcrystal at r <= 3), slope bounds up to 2.
SCAN_FAMILIES = (
    [("circular-dieudonne", r, 1) for r in range(1, 6)]
    + [("all-dieudonne", r, 1) for r in range(1, 6)]
    + [("circular-fcrystal", r, s) for r in range(1, 6) for s in range(3)]
    + [("all-fcrystal", r, s) for r in range(1, 4) for s in range(3)]
)


@functools.lru_cache(maxsize=None)
def scan_family_records(family, r, slope_max):
    """The per-crystal records of a SCAN_FAMILIES scan at m_max 5 with every
    check, computed once for the csv and the json test."""
    return per_crystal_records(family, r, 5, slope_max)


def scan_csv_by_hand(records) -> list[str]:
    """The csv lines as scan wrote them before _csv_cell: one hand-unrolled
    expression of all 16 fields per record, kept as the reference."""
    flag = {None: "", True: "true", False: "false"}
    lines = [",".join(ScanRecord._fields)]
    for rec in records:
        lines.append(
            ",".join(
                [
                    str(rec.r),
                    '"' + rec.perm + '"',
                    ";".join(str(v) for v in rec.slopes),
                    str(rec.m_max),
                    ";".join(str(v) for v in rec.gamma),
                    ";".join(str(v) for v in rec.delta),
                    ";".join(str(v) for v in rec.b),
                    str(rec.stabilization),
                    flag[rec.dieudonne],
                    flag[rec.ordinary],
                    flag[rec.minimal],
                    flag[rec.nonincreasing],
                    flag[rec.strict],
                    flag[rec.increasing_to_stab],
                    flag[rec.ratio],
                    flag[rec.minimal_matches_stab],
                ]
            )
        )
    return lines


@pytest.mark.parametrize("family, r, slope_max", SCAN_FAMILIES)
def test_scan_csv_matches_the_hand_written_rows(capsys, family, r, slope_max):
    code, out, err = run(
        capsys, "scan", "--family", family, "--r", str(r), "--slope-max", str(slope_max), "--m-max", "5",
        "--format", "csv",
    )
    records = scan_family_records(family, r, slope_max)
    summary = summarize(records, [1] * len(records))
    assert code == (1 if any(v for k, v in summary.items() if k != "records") else 0)
    assert out == "\n".join(scan_csv_by_hand(records)) + "\n"
    assert err == " ".join(f"{k}={v}" for k, v in summary.items()) + "\n"


def scan_json_by_hand(family, r, slope_max, m_max, checks, records) -> str:
    """The scan json as it was written before the class-first walk: one dict per
    record, every value rendered, through json.dumps; kept as the reference."""
    payload = {
        "schema": cli.SCHEMA,
        "command": "scan",
        "family": family,
        "r": r,
        "slope_max": slope_max,
        "m_max": m_max,
        "checks": checks,
        "records": [{k: v for k, v in rec._asdict().items() if k != "m_max"} for rec in records],
        "summary": summarize(records, [1] * len(records)),
    }
    return json.dumps(payload, indent=2) + "\n"


def scan_text_by_hand(family, r, slope_max, m_max, records) -> str:
    """The scan text as the per-record loop wrote it; kept as the reference."""
    summary = summarize(records, [1] * len(records))
    lines = [f"scan family={family} r={r} slope_max={slope_max} m_max={m_max}",
             " ".join(f"{k}={v}" for k, v in summary.items())]
    for rec in records:
        if rec.violations:
            slopes = "(" + ",".join(str(v) for v in rec.slopes) + ")"
            lines.append(f"VIOLATION perm={rec.perm} slopes={slopes}: {','.join(rec.violations)}")
    if len(lines) == 2:
        lines.append("all checks passed")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family, r, slope_max", SCAN_FAMILIES)
def test_scan_json_matches_the_per_record_payload(capsys, family, r, slope_max):
    code, out, _ = run(
        capsys, "scan", "--family", family, "--r", str(r), "--slope-max", str(slope_max), "--m-max", "5",
        "--format", "json",
    )
    records = scan_family_records(family, r, slope_max)
    assert code == 0
    assert out == scan_json_by_hand(family, r, slope_max, 5, list(cli.CHECKS), records)


def test_scan_json_with_chosen_checks_matches_the_per_record_payload(capsys):
    checks = ["strict", "ratio"]
    code, out, _ = run(
        capsys, "scan", "--family", "circular-fcrystal", "--r", "4", "--slope-max", "2", "--m-max", "4",
        "--format", "json", "--check", "strict", "--check", "ratio",
    )
    family = enumerate_family("circular-fcrystal", 4, 2)
    records = [reference_scan_record(pi, slopes, 4, checks) for pi, slopes in family]
    assert out == scan_json_by_hand("circular-fcrystal", 4, 2, 4, checks, records)


def test_scan_names_each_check_once_in_first_seen_order(capsys):
    scan = ("scan", "--family", "circular-dieudonne", "--r", "3", "--m-max", "3", "--format", "json")
    _, twice, _ = run(capsys, *scan, "--check", "ratio", "--check", "ratio")
    _, once, _ = run(capsys, *scan, "--check", "ratio")
    assert json.loads(twice)["checks"] == ["ratio"]
    assert twice == once
    _, repeated, _ = run(capsys, *scan, "--check", "ratio", "--check", "strict", "--check", "ratio")
    _, plain, _ = run(capsys, *scan, "--check", "ratio", "--check", "strict")
    assert json.loads(repeated)["checks"] == ["ratio", "strict"]
    assert repeated == plain


# Every subset of the checks as --check flags; the empty one passes no flag, which asks for every check.
SUBSETS = [subset for k in range(len(cli.CHECKS) + 1) for subset in itertools.combinations(cli.CHECKS, k)]


@pytest.mark.parametrize("family, r, slope_max", SMALL_FAMILIES)
def test_scan_blanks_the_checks_not_asked_for(capsys, monkeypatch, family, r, slope_max):
    # the class records cmd_scan summarizes and prints, under all 32 --check
    # subsets at levels 1..6, against the reference record that computes only
    # the checks asked for.  The whole table is made once per level (its rows
    # kept as lists), since only the blanking varies with the subset.
    tables = {}

    def table(family, r, m_max, slope_max):
        if m_max not in tables:
            *whole, rows = scan.scan_table(family, r, m_max, slope_max)
            tables[m_max] = whole, [list(row) for row in rows]
        whole, rows = tables[m_max]
        return (*whole, map(iter, rows))

    seen = []
    real = cli.summarize
    monkeypatch.setattr(cli, "scan_table", table)
    monkeypatch.setattr(cli, "summarize", lambda classes, counts: seen.append(classes) or real(classes, counts))
    argv = ["scan", "--family", family, "--r", str(r), "--slope-max", str(slope_max)]
    pairs = {}
    pis = {}
    for m_max, subset in itertools.product(range(1, 7), SUBSETS):
        main(argv + ["--m-max", str(m_max)] + [arg for name in subset for arg in ("--check", name)])
        capsys.readouterr()
        [classes] = seen
        seen.clear()
        checks = subset or cli.CHECKS
        for record in classes:
            pi = pis.get(record.perm) or pis.setdefault(record.perm, parse_permutation(record.perm, r))
            expected = reference_scan_record(pi, record.slopes, m_max, checks, pairs)
            assert typed_fields(record) == typed_fields(expected), (record.perm, record.slopes, m_max, subset)


@pytest.fixture
def forced_violations(monkeypatch):
    """No default-range scan finds a violation: mark every class that stabilizes
    past level 0 as violating nonincreasing."""
    real = scan.scan_record

    def failing(pi, slopes, m_max, pairs=None):
        record = real(pi, slopes, m_max, pairs)
        return record._replace(nonincreasing=False) if record.stabilization >= 1 else record

    monkeypatch.setattr(scan, "scan_record", failing)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_scan_violations_name_every_member(capsys, forced_violations, fmt):
    family, r, m_max = "all-dieudonne", 4, 4
    code, out, err = run(capsys, "scan", "--family", family, "--r", str(r), "--m-max", str(m_max), "--format", fmt)
    records = per_crystal_records(family, r, m_max)
    failing = [(rec.perm, rec.slopes) for rec in records if rec.nonincreasing is False]
    classes = {
        scan._class_key(cycle_decomposition(pi), vector)
        for (pi, vector), rec in zip(enumerate_family(family, r), records)
        if rec.nonincreasing is False
    }
    assert len(set(failing)) == len(failing) > len(classes) > 1
    assert code == 1
    if fmt == "text":
        assert out == scan_text_by_hand(family, r, 1, m_max, records)
        assert len([line for line in out.splitlines() if line.startswith("VIOLATION")]) == len(failing)
    elif fmt == "csv":
        assert out == "\n".join(scan_csv_by_hand(records)) + "\n"
        assert f"violations[nonincreasing]={len(failing)} " in err
    else:
        assert out == scan_json_by_hand(family, r, 1, m_max, list(cli.CHECKS), records)
        payload = json.loads(out)
        named = [(rec["perm"], tuple(rec["slopes"])) for rec in payload["records"] if rec["nonincreasing"] is False]
        assert named == failing


@pytest.fixture
def scan_row_calls(monkeypatch):
    """Spy on cli._scan_rows: each call's chunks, with the join-once reference
    text of the same pieces and the number of crystals."""
    real = cli._scan_rows
    calls = []

    def spy(before, heads, cells, tails, rows, sep, after):
        heads, rows = list(heads), [list(row) for row in rows]
        chunks = list(real(before, heads, cells, tails, rows, sep, after))
        calls.append((chunks, reference_scan_rows(before, heads, cells, tails, rows, sep, after), len(heads) * len(cells)))
        return iter(chunks)

    monkeypatch.setattr(cli, "_scan_rows", spy)
    return calls


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family, r, slope_max", SMALL_FAMILIES)
def test_scan_row_chunks_join_to_the_reference(capsys, monkeypatch, scan_row_calls, family, r, slope_max, fmt, chunk):
    # chunk 1 puts a boundary after the first crystal and before the last, 3 puts them mid-permutation
    if chunk is not None:
        monkeypatch.setattr(cli, "_SCAN_CHUNK", chunk)
    code, out, _ = run(
        capsys, "scan", "--family", family, "--r", str(r), "--slope-max", str(slope_max), "--m-max", "4",
        "--format", fmt,
    )
    assert code == 0
    [(chunks, reference, crystals)] = scan_row_calls
    assert "".join(chunks) == reference
    assert len(chunks) == math.ceil(crystals / cli._SCAN_CHUNK)
    assert all(chunks) and reference in out


@pytest.mark.parametrize("fmt, limit_mb", [("json", 2), ("csv", 1)])
def test_scan_output_memory_stays_flat(tmp_path, capsys, fmt, limit_mb):
    # 46,080 crystals, a 30 MB json or 5 MB csv file: only one chunk of rows is held at a time
    argv = ["scan", "--family", "all-dieudonne", "--r", "6", "--m-max", "5", "--format", fmt, "--out", str(tmp_path / "scan")]
    assert main(argv) == 0  # warm-up: the parser, the int texts and the rotation slices are made once per process
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < limit_mb * 2**20


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_scan_json_renders_its_document_before_any_row(tmp_path, capsys, monkeypatch, out):
    # a summary the json writer refuses raises at the render, before a row is made or a byte written
    def no_rows(*args):
        raise AssertionError("scan rows were rendered before the document")

    monkeypatch.setattr(cli, "summarize", lambda classes, counts: {"records": 1.5})
    monkeypatch.setattr(cli, "_scan_rows", no_rows)
    target = tmp_path / "scan.json"
    argv = ["scan", "--family", "circular-dieudonne", "--r", "3", "--m-max", "3", "--format", "json"]
    with pytest.raises(TypeError):
        main(argv + (["--out", str(target)] if out else []))
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def every_class_violates(monkeypatch):
    """Every class of a scan violates nonincreasing, so a text scan names every
    crystal (test_scan_violations_name_every_member checks those lines' text)."""
    real = scan.scan_record

    def failing(pi, slopes, m_max, pairs=None):
        return real(pi, slopes, m_max, pairs)._replace(nonincreasing=False)

    monkeypatch.setattr(scan, "scan_record", failing)


def test_scan_violation_memory_stays_flat(tmp_path, capsys, every_class_violates):
    # 46,080 VIOLATION lines, a 3 MB file: only one permutation's lines are held at a time
    argv = ["scan", "--family", "all-dieudonne", "--r", "6", "--m-max", "3", "--out", str(tmp_path / "scan")]
    assert main(argv) == 1  # warm-up: the parser and the rotation slices are made once per process
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert (tmp_path / "scan").read_text().count("\nVIOLATION ") == 46_080
    assert peak < 2 * 2**20


def test_scan_json_fields(capsys):
    code, out, _ = run(
        capsys, "scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["records"] == 8
    assert all(rec["nonincreasing"] for rec in payload["records"])


def test_scan_flags_constant_delta_family(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--family", "circular-fcrystal", "--r", "2", "--slope-max", "4", "--m-max", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    flagged = [
        tuple(rec["slopes"])
        for rec in payload["records"]
        if rec["stabilization"] >= 2 and rec["delta"][: rec["stabilization"]] == [1] * rec["stabilization"]
    ]
    # the shifted rank-two family shows up with its constant unit increments
    for e in (2, 3, 4):
        assert (0, e) in flagged and (e, 0) in flagged


def test_scan_workers_agree_with_serial(capsys):
    # --workers is accepted and ignored; the output must not depend on it
    args = ("scan", "--family", "circular-fcrystal", "--r", "4", "--m-max", "3", "--format", "csv")
    _, serial, _ = run(capsys, *args, "--workers", "1")
    _, parallel, _ = run(capsys, *args, "--workers", "2")
    assert serial == parallel


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_scan_reports_the_slope_bound_it_scanned(capsys, fmt):
    # the Dieudonne families take slopes 0..1 whatever --slope-max asks
    code, out, _ = run(
        capsys, "scan", "--family", "circular-dieudonne", "--r", "2", "--m-max", "2", "--slope-max", "3",
        "--format", fmt,
    )
    assert code == 0
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["slope_max"], payload["summary"]["records"]) == (1, 4)
    else:
        assert out.splitlines()[:2] == [
            "scan family=circular-dieudonne r=2 slope_max=1 m_max=2",
            "records=4 violations[nonincreasing]=0 violations[strict]=0 violations[increasing-to-stab]=0"
            " violations[ratio]=0 violations[minimal]=0",
        ]


def test_scan_text_summary(capsys):
    code, out, _ = run(capsys, "scan", "--family", "circular-dieudonne", "--r", "2", "--m-max", "2")
    assert code == 0
    assert "all checks passed" in out


def test_ratio_scan_is_linear_in_its_levels():
    # one comparison per adjacent pair of levels, where comparing every pair
    # of levels makes about 5 * 10**9 comparisons per class here
    argv = "'scan --family circular-dieudonne --r 2 --m-max 100000 --override-limits --check ratio'.split()"
    assert run_timed_out(argv, 30) == (
        0,
        "scan family=circular-dieudonne r=2 slope_max=1 m_max=100000\n"
        "records=4 violations[nonincreasing]=0 violations[strict]=0 violations[increasing-to-stab]=0"
        " violations[ratio]=0 violations[minimal]=0\n"
        "all checks passed\n",
        "",
    )


def test_reused_parser_leaks_no_flags(capsys, monkeypatch):
    # main builds its parser once per process; a repeatable flag of one call
    # must not reach the next call, which prints what a fresh parser prints
    monkeypatch.setattr(cli, "_parser", None)
    scan = ("scan", "--family", "all-dieudonne", "--r", "3", "--m-max", "3", "--format", "json")
    _, ratio_only, _ = run(capsys, *scan, "--check", "ratio")
    parser = cli._parser
    _, reused, _ = run(capsys, *scan)
    assert cli._parser is parser
    monkeypatch.setattr(cli, "_parser", None)
    _, fresh, _ = run(capsys, *scan)
    assert json.loads(ratio_only)["checks"] == ["ratio"]
    assert json.loads(fresh)["checks"] == ["nonincreasing", "strict", "increasing-to-stab", "ratio", "minimal"]
    assert reused == fresh


# ------------------------------------------------------------ minimal


def test_minimal_yes(capsys):
    code, out, _ = run(capsys, "minimal", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1")
    assert code == 0
    assert "minimal: yes" in out
    assert "newton slopes: 1/2 1/2" in out


def test_minimal_no(capsys):
    code, out, _ = run(capsys, "minimal", "--r", "4", "--perm", "(1 2 3 4)", "--slopes", "0,0,1,1")
    assert code == 0
    assert "minimal: no" in out
    assert "consistent=yes" in out


def test_minimal_json(capsys):
    code, out, _ = run(
        capsys, "minimal", "--r", "4", "--perm", "(1 2 3 4)", "--slopes", "0,1,0,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"] is True
    assert payload["newton_slopes"] == ["1/2", "1/2", "1/2", "1/2"]
    assert payload["consistent"] is True


def test_minimal_rejects_non_dieudonne(capsys):
    code, _, err = run(capsys, "minimal", "--r", "2", "--perm", "(1 2)", "--slopes", "0,2")
    assert code == 2
    assert "invalid input" in err


# ------------------------------------------------------------ errors and limits


def test_bad_permutation_is_invalid_input(capsys):
    code, _, err = run(capsys, "gamma", "--r", "2", "--perm", "(1 3)", "--slopes", "0,1", "--m-max", "2")
    assert code == 2
    assert "invalid input" in err


def test_wrong_slope_count(capsys):
    code, _, err = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1,1", "--m-max", "2")
    assert code == 2


def test_rank_cap(capsys):
    perm = " ".join(str(i) for i in range(1, 10))
    slopes = ",".join("0" for _ in range(9))
    code, _, err = run(capsys, "gamma", "--r", "9", "--perm", perm, "--slopes", slopes, "--m-max", "2")
    assert code == 3
    assert "override-limits" in err


def test_rank_cap_override(capsys):
    perm = " ".join(str(i) for i in range(1, 10))
    slopes = ",".join("0" for _ in range(9))
    code, out, _ = run(
        capsys, "gamma", "--r", "9", "--perm", perm, "--slopes", slopes, "--m-max", "2", "--override-limits"
    )
    assert code == 0
    assert "gamma: 0 0 0" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--random", "3", "--max-s", "0"), "--max-s must be at least 1, got 0"),
        (("verify", "--random", "3", "--max-entry", "-1"), "--max-entry must be at least 0, got -1"),
        (("verify", "--random", "-1"), "--random must be at least 0, got -1"),
        (("verify", "--slope-max", "-1"), "--slope-max must be at least 0, got -1"),
        (("verify", "--r-max", "0"), "--r-max must be at least 1, got 0"),
        (("verify", "--seq", "1,-1", "--m-max", "0"), "--m-max must be at least 1, got 0"),
        (("scan", "--family", "circular-fcrystal", "--r", "2", "--m-max", "2", "--slope-max", "-1"),
         "--slope-max must be at least 0, got -1"),
        (("scan", "--family", "circular-dieudonne", "--r", "0", "--m-max", "2"), "--r must be at least 1, got 0"),
        (("gamma", "--r", "-1", "--perm", "1", "--slopes", "0", "--m-max", "2"), "--r must be at least 1, got -1"),
        (("verify", "--vertex-budget", "0"), "--vertex-budget must be at least 1, got 0"),
        (("verify", "--seq", "1,-1", "--m", "2", "--vertex-budget", "-1"), "--vertex-budget must be at least 1, got -1"),
    ],
    ids=[
        "max-s", "max-entry", "random", "verify-slope-max", "r-max", "seq-m-max", "scan-slope-max", "scan-r", "gamma-r",
        "sweep-vertex-budget", "seq-vertex-budget",
    ],
)
def test_bad_numeric_flag_is_invalid_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


def subcommand_options() -> dict[str, dict[str, argparse.Action]]:
    """command -> {long option: its argparse action}, for every subcommand of the parser."""
    parser = cli.build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {
        command: {action.option_strings[-1]: action for action in subparser._actions if action.option_strings}
        for command, subparser in sub.choices.items()
    }


# the integer options that take any value: a seed, and scan's ignored --workers
UNBOUNDED = {"--seed", "--workers"}
# verify options that belong to both modes, so no _VERIFY_FLAGS row
VERIFY_SHARED = {"--help", "--seq", "--m-max", "--vertex-budget", "--format", "--out", "--override-limits"}


def test_every_integer_option_has_its_rules_stated_once():
    options = subcommand_options()
    integers = {flag for actions in options.values() for flag, action in actions.items() if action.type is cli._integer}
    assert integers == set(cli._FLOORS) | UNBOUNDED
    assert not set(cli._FLOORS) & UNBOUNDED
    assert set(options["verify"]) - VERIFY_SHARED == set(cli._VERIFY_FLAGS)
    needs = {need for need, _ in cli._VERIFY_FLAGS.values()} - {None}
    assert needs == {"--seq", "--random"}


# every required option of each command, with a value it accepts
REQUIRED = {
    "gamma": {"--r": "2", "--perm": "(1 2)", "--slopes": "0,1", "--m-max": "2"},
    "endo": {"--r": "2", "--perm": "(1 2)", "--slopes": "0,1"},
    "verify": {},
    "scan": {"--family": "all-dieudonne", "--r": "2", "--m-max": "2"},
    "minimal": {"--r": "2", "--perm": "(1 2)", "--slopes": "0,1"},
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, actions in subcommand_options().items() for flag in actions if flag in cli._FLOORS],
)
def test_every_floor_is_refused_in_every_command(capsys, command, flag):
    low = cli._FLOORS[flag]
    argv = [command, *itertools.chain.from_iterable({**REQUIRED[command], flag: str(low - 1)}.items())]
    assert run(capsys, *argv) == (2, "", f"invalid input: {flag} must be at least {low}, got {low - 1}\n")


C2 = ("--r", "2", "--perm", "(1 2)", "--slopes", "0,1")
R9 = ("--r", "9", "--perm", "1 2 3 4 5 6 7 8 9", "--slopes", "0,0,0,0,0,0,0,0,0")


@pytest.mark.parametrize(
    "argv, message",
    [
        # floors first, in _FLOORS order, whatever else the command line breaks
        (("verify", "--seq", "1,-1", "--random", "3", "--r-max", "0"), "--r-max must be at least 1, got 0"),
        (("verify", "--seq", "1,-1", "--r-max", "0"), "--r-max must be at least 1, got 0"),
        (("verify", "--seq", "1,-1", "--random", "-1"), "--random must be at least 0, got -1"),
        (("verify", "--max-s", "0"), "--max-s must be at least 1, got 0"),
        (("verify", "--seq", "1,-1", "--m", "20", "--max-entry", "-1"), "--max-entry must be at least 0, got -1"),
        (("verify", "--random", "0", "--seed", "-5", "--max-entry", "-1"), "--max-entry must be at least 0, got -1"),
        (("verify", "--r-max", "0", "--m-max", "0"), "--r-max must be at least 1, got 0"),
        (("verify", "--vertex-budget", "0", "--m", "2", "--m-max", "3"), "--vertex-budget must be at least 1, got 0"),
        (("scan", "--family", "all-dieudonne", "--r", "0", "--slope-max", "-1", "--m-max", "2"),
         "--r must be at least 1, got 0"),
        (("gamma", "--r", "0", "--perm", "x", "--slopes", "0,1", "--m-max", "0"), "--r must be at least 1, got 0"),
        (("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0", "--m-max", "0"), "--m-max must be at least 1, got 0"),
        (("endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0", "--m", "2", "--prime", "1"),
         "--prime must be at least 2, got 1"),
        (("endo", *C2, "--m", "0", "--prime", "1"), "--prime must be at least 2, got 1"),
        (("endo", *C2, "--prime", "1"), "--prime must be at least 2, got 1"),
        # a floor before a cap
        (("verify", "--r-max", "9", "--m-max", "0"), "--m-max must be at least 1, got 0"),
        (("gamma", *R9, "--m-max", "0"), "--m-max must be at least 1, got 0"),
        (("endo", *R9, "--m-max", "0"), "--m-max must be at least 1, got 0"),
        (("scan", "--family", "all-dieudonne", "--r", "9", "--m-max", "0"), "--m-max must be at least 1, got 0"),
        # then --m with --m-max
        (("endo", *C2, "--m", "2", "--m-max", "3", "--prime", "1"), "--prime must be at least 2, got 1"),
        (("endo", *C2, "--m", "0", "--m-max", "3"), "--m must be at least 1, got 0"),
        (("verify", "--seq", "1,-1", "--m", "0", "--m-max", "3"), "--m must be at least 1, got 0"),
        (("verify", "--m", "2", "--m-max", "3", "--seed", "1"), "pass only one of --m and --m-max"),
        # then the verify modes, in _VERIFY_FLAGS order
        (("verify", "--m", "2", "--seed", "1"), "--m needs --seq"),
        (("verify", "--dump-digraph", "--seed", "1"), "--dump-digraph needs --seq"),
        (("verify", "--seq", "1,-1", "--dump-digraph", "--r-max", "2", "--seed", "1"),
         "pass only one of --seq and --r-max"),
        (("verify", "--seq", "", "--r-max", "2"), "pass only one of --seq and --r-max"),
    ],
)
def test_the_first_broken_rule_names_the_refusal(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"invalid input: {message}\n")


class Enumerated(Exception):
    """Raised in place of enumerating a family: the sweep got past every cap."""


@pytest.fixture
def no_enumeration(monkeypatch):
    def enumerate_family(*args, **kwargs):
        raise Enumerated(args)

    monkeypatch.setattr("fcrystal.scan.enumerate_family", enumerate_family)
    for name in ("enumerate_family", "scan_table", "verify_sweep"):  # every way the cli reaches a family
        monkeypatch.setattr(f"fcrystal.cli.{name}", enumerate_family)


CRYSTAL_CAP_REFUSED = [
    (("scan", "--family", "circular-fcrystal", "--r", "3", "--slope-max", "100000", "--m-max", "2"), 2 * 100001**3),
    (("scan", "--family", "all-fcrystal", "--r", "8", "--slope-max", "2", "--m-max", "2"), 40320 * 3**8),
    (("verify", "--r-max", "3", "--slope-max", "1000"), 1 * 1001 + 2 * 1001**2 + 6 * 1001**3),
]


@pytest.mark.parametrize("argv, crystals", CRYSTAL_CAP_REFUSED, ids=["scan", "scan-rank-8", "verify"])
def test_crystal_count_cap(capsys, no_enumeration, argv, crystals):
    assert run(capsys, *argv) == (
        3,
        "",
        f"resource limit: a sweep of {crystals} crystals exceeds the default cap 16777216;"
        " pass --override-limits to proceed\n",
    )


@pytest.mark.parametrize(
    "argv",
    [argv + ("--override-limits",) for argv, _ in CRYSTAL_CAP_REFUSED]
    + [("scan", "--family", family, "--r", "8", "--m-max", "2") for family in cli.FAMILIES]
    + [("verify", "--r-max", "8", "--slope-max", "1")],
)
def test_crystal_count_cap_admits(argv):
    # every r <= 8 sweep at slope bound 1 is admitted, and --override-limits lifts
    # the cap; asked of the cap itself, so a sweep it admits is never run here
    args = cli.build_parser().parse_args(list(argv))
    if args.command == "scan":
        family, ranks = args.family, [args.r]
    else:
        family, ranks = "all-fcrystal", range(1, args.r_max + 1)
    assert cli._check_family_size(args.override_limits, family, ranks, args.slope_max) is None


@pytest.mark.parametrize(
    "argv, crystals",
    [
        (("verify", "--r-max", "2"), 2 + 2 * 4),
        (("scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "2"), 2 * 4),
    ],
    ids=["verify", "scan"],
)
def test_override_limits_lifts_the_crystal_cap(capsys, monkeypatch, argv, crystals):
    admitted = run(capsys, *argv)
    assert admitted[0] == 0
    monkeypatch.setattr(cli, "MAX_CRYSTALS", 1)
    assert run(capsys, *argv) == (
        3,
        "",
        f"resource limit: a sweep of {crystals} crystals exceeds the default cap 1; pass --override-limits to proceed\n",
    )
    assert run(capsys, *argv, "--override-limits") == admitted


def test_level_cap(capsys):
    code, _, _ = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "17")
    assert code == 3


HUGE = str(10**20)  # past any per-level table: refused before anything is allocated


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", HUGE),
        ("endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", HUGE),
        ("scan", "--family", "circular-dieudonne", "--r", "2", "--m-max", HUGE),
        ("verify", "--seq", "1,-1", "--m", HUGE, "--vertex-budget", str(10**27)),
        ("verify", "--r-max", "1", "--m-max", HUGE),
    ],
    ids=["gamma", "endo", "scan", "verify-seq", "verify-sweep"],
)
@pytest.mark.parametrize("override", [(), ("--override-limits",)], ids=["capped", "override"])
def test_level_past_any_table_is_a_resource_limit(capsys, argv, override):
    assert run(capsys, *argv, *override) == (
        3,
        "",
        f"resource limit: level {HUGE} needs a table of one entry per level, larger than this platform can address\n",
    )


ENDO_AT = ("endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m")
DIGITS_5000 = "1" + "0" * 5000  # past str()'s 4,300 digits


@pytest.mark.parametrize(
    "level, b",
    [(HUGE, "399999999999999999998"), (DIGITS_5000, "3" + "9" * 4999 + "8")],
    ids=["huge", "5000-digits"],
)
def test_endo_at_one_level_answers_past_any_table(capsys, level, b):
    # endo --m reads endo_exponent, which builds no table, so only the default
    # level cap applies; b(m) = 4m - 2 for this crystal
    assert run(capsys, *ENDO_AT, level) == (
        3, "", f"resource limit: level {level} exceeds the default cap 16; pass --override-limits to proceed\n"
    )
    assert run(capsys, *ENDO_AT, level, "--override-limits") == (0, f"b({level}) = {b}\n", "")


def test_endo_at_one_level_past_any_table_in_json_and_with_a_prime(capsys):
    code, out, err = run(capsys, *ENDO_AT, HUGE, "--override-limits", "--format", "json")
    payload = json.loads(out)
    assert (code, err, payload["m"], payload["b"]) == (0, "", 10**20, 4 * 10**20 - 2)
    # p^b has 4 * 10**20 digits: refused by the p^b guard, not by a table cap
    assert run(capsys, *ENDO_AT, HUGE, "--override-limits", "--prime", "2") == (
        3, "", "resource limit: 2^399999999999999999998 has more digits than a Decimal can hold\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("scan", "--family", "all-dieudonne", "--r", HUGE, "--m-max", "2"), ("verify", "--r-max", HUGE)],
    ids=["scan", "verify"],
)
def test_rank_past_any_sweep_is_a_resource_limit(capsys, no_enumeration, argv):
    # refused before r! is formed or a rank is enumerated, even with --override-limits
    assert run(capsys, *argv, "--override-limits") == (
        3,
        "",
        f"resource limit: a sweep of more than {sys.maxsize} crystals is larger than this platform can enumerate\n",
    )


TRILLION = str(10**12)  # within the table cap, but a table of this many levels does not fit in memory


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", TRILLION, "--format", "csv"),
        ("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", TRILLION, "--format", "json"),
        ("scan", "--family", "circular-dieudonne", "--r", "2", "--m-max", TRILLION),
        ("verify", "--seq", "1,-1", "--m", TRILLION, "--vertex-budget", str(10**27)),
        ("endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", TRILLION),
    ],
    ids=["gamma-csv", "gamma-json", "scan", "verify-seq", "endo"],
)
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_memory_error_is_a_resource_limit(tmp_path, capsys, monkeypatch, argv, out):
    # The table and digraph code is made to raise MemoryError rather than
    # allocate 10**12 entries for real, which an overcommitting host may grant.
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("fcrystal.crystal.census_levels", no_memory)
    monkeypatch.setattr("fcrystal.digraph.build_level_digraph", no_memory)
    target = tmp_path / "out"
    argv = (*argv, "--override-limits") + (("--out", str(target)) if out else ())
    assert run(capsys, *argv) == (3, "", "resource limit: out of memory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("level", [("--m-max", "3"), ("--m", "3")], ids=["gamma", "endo"])
def test_sign_word_cap(capsys, level):
    # slopes whose sign words would hold 2 * 10^12 signs are answered within the default caps
    command = "gamma" if level[0] == "--m-max" else "endo"
    code, out, err = run(capsys, command, "--r", "2", "--perm", "(1 2)", "--slopes", "0,1000000000000", *level)
    assert (code, err) == (0, "")
    if command == "gamma":
        assert "gamma: 0 1 2 3" in out
        assert "stabilization: 1000000000000" in out
    else:
        assert out == "b(3) = 6\n"


def test_sign_word_cap_override(capsys):
    code, out, _ = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,500001", "--m-max", "2")
    assert code == 0
    assert "stabilization: 500001" in out


@pytest.mark.parametrize("count", [cli.MAX_CRYSTALS + 1, 10**15])
def test_verify_random_count_cap(capsys, monkeypatch, count):
    # refused before any draw, whatever --max-s and --max-entry make each draw cost
    def no_draws(*args):
        raise AssertionError("a random sequence was drawn past the cap")

    monkeypatch.setattr(cli, "_random_draws", no_draws)
    argv = ("verify", "--r-max", "1", "--m-max", "2", "--random", str(count), "--max-s", "2", "--max-entry", "1")
    assert run(capsys, *argv) == (
        3,
        "",
        f"resource limit: {count} random sequences exceed the default cap 16777216; pass --override-limits to proceed\n",
    )


def test_override_limits_lifts_the_random_count_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CRYSTALS", 3)
    argv = ("verify", "--r-max", "1", "--m-max", "2", "--max-s", "2", "--max-entry", "1", "--random")
    admitted = run(capsys, *argv, "3")
    assert admitted[0] == 0 and "random: n=3 " in admitted[1]
    assert run(capsys, *argv, "4") == (
        3,
        "",
        "resource limit: 4 random sequences exceed the default cap 3; pass --override-limits to proceed\n",
    )
    code, out, _ = run(capsys, *argv, "4", "--override-limits")
    assert code == 0 and "random: n=4 " in out


def test_verify_random_sweep_checks_vertex_budget(capsys):
    # the longest random sequence at the top level must fit, as for --seq
    argv = ("verify", "--r-max", "1", "--m-max", "4", "--vertex-budget", "10", "--random", "3", "--max-s", "50")
    assert run(capsys, *argv) == (3, "", "resource limit: digraph would need 200 vertices, budget is 10\n")


def test_vertex_budget_past_str_digits_is_a_resource_limit(capsys):
    # a budget of more than 4,300 digits is stated exactly, not misread as invalid input
    budget = "1" + "0" * 4400
    argv = ("verify", "--r-max", "1", "--random", "1", "--max-s", DIGITS_5000, "--vertex-budget", budget)
    assert run(capsys, *argv) == (
        3, "", f"resource limit: digraph would need 4{'0' * 5000} vertices, budget is {budget}\n"
    )


@pytest.mark.parametrize(
    "argv, vertices, budget",
    [
        # rank 1 needs 1 * 10 = 10 vertices and fits; rank 2 needs 4 * 10
        (("verify", "--r-max", "2", "--m-max", "4", "--vertex-budget", "10"), 40, 10),
        # ranks 1 and 2 fit; rank 3 needs 9 * 3 = 27, so an oracle failing at
        # rank 2 or 3 is never reached
        (("verify", "--r-max", "4", "--m-max", "2", "--vertex-budget", "20"), 27, 20),
        # ranks 1-6 fit; rank 7 needs 49 * 136 = 6664, refused before rank 1 is swept
        (
            ("verify", "--r-max", "7", "--slope-max", "2", "--m-max", "16", "--vertex-budget", "5000",
             "--override-limits"),
            6664, 5000,
        ),
    ],
    ids=["rank-2", "rank-3", "rank-7"],
)
def test_verify_sweep_checks_vertex_budget_before_any_crystal(capsys, no_enumeration, argv, vertices, budget):
    assert run(capsys, *argv) == (
        3, "", f"resource limit: verification needs about {vertices} digraph vertices, budget is {budget}\n"
    )


@pytest.mark.parametrize("m_max", ["0", "-5"])
def test_verify_sweep_refuses_a_level_below_one_before_its_budget(capsys, no_enumeration, m_max):
    # -5 * -4 / 2 would read as 10 vertices a position, past a budget of 5
    argv = ("verify", "--r-max", "2", "--m-max", m_max, "--vertex-budget", "5")
    assert run(capsys, *argv) == (2, "", f"invalid input: --m-max must be at least 1, got {m_max}\n")


# ------------------------------------------------------------ file output


def test_out_writes_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["gamma"] == [0, 1, 1, 1]
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".fcrystal-")]
    assert leftovers == []


def test_out_overwrites_existing_file(tmp_path, capsys):
    target = tmp_path / "b.txt"
    target.write_text("old")
    code, _, _ = run(capsys, "endo", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m", "1", "--out", str(target))
    assert code == 0
    assert target.read_text() == "b(1) = 2\n"


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


GAMMA_OUT = ("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "2", "--out")


def test_out_new_file_follows_the_umask(tmp_path, capsys, umask_022):
    target = tmp_path / "g.txt"
    assert run(capsys, *GAMMA_OUT, str(target)) == (0, "", "")
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def test_out_keeps_an_existing_files_mode(tmp_path, capsys, umask_022):
    target = tmp_path / "g.txt"
    target.write_text("old")
    target.chmod(0o640)
    assert run(capsys, *GAMMA_OUT, str(target)) == (0, "", "")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_text().startswith("crystal r=2")


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys, umask_022):
    # the link, relative and in another directory, stays a link; its target gets
    # the text and keeps its mode, and neither directory keeps a temp file
    real = tmp_path / "real"
    links = tmp_path / "links"
    real.mkdir()
    links.mkdir()
    target = real / "target.txt"
    target.write_text("old")
    target.chmod(0o640)
    link = links / "link.txt"
    link.symlink_to(os.path.join("..", "real", "target.txt"))
    assert run(capsys, *GAMMA_OUT, str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == os.path.join("..", "real", "target.txt")
    assert target.read_text() == run(capsys, *GAMMA_OUT[:-1])[1]
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert (os.listdir(links), os.listdir(real)) == (["link.txt"], ["target.txt"])


def test_out_writes_a_fifo_in_place(tmp_path, capsys):
    # a rename would put a regular file where the FIFO was, and its reader would get nothing
    target = tmp_path / "pipe"
    os.mkfifo(target)
    reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)  # open first, so the writer's open does not block
    try:
        assert run(capsys, *GAMMA_OUT, str(target)) == (0, "", "")
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(target).st_mode)
    assert received.decode() == run(capsys, *GAMMA_OUT[:-1])[1]
    assert os.listdir(tmp_path) == ["pipe"]


def test_out_failed_replace_leaves_no_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("fcrystal.cli.os.replace", refuse)
    target = tmp_path / "g.txt"
    assert run(capsys, *GAMMA_OUT, str(target)) == (2, "", f"cannot write {target}: Permission denied\n")
    assert os.listdir(tmp_path) == []


def test_scan_write_failing_on_the_second_chunk_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    # all-dieudonne r=4 has 384 crystals: two chunks of rows, then the last newline
    real_fdopen = os.fdopen
    writes = []

    def fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        write = handle.write

        def failing(text):
            writes.append(text)
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(text)

        handle.write = failing
        return handle

    monkeypatch.setattr("fcrystal.cli.os.fdopen", fdopen)
    target = tmp_path / "scan.csv"
    target.write_text("old")
    code, out, err = run(
        capsys, "scan", "--family", "all-dieudonne", "--r", "4", "--m-max", "3", "--format", "csv", "--out", str(target)
    )
    assert (code, out, err) == (2, "", f"cannot write {target}: No space left on device\n")
    assert len(writes) == 2 and writes[0].startswith("r,perm,slopes")
    assert writes[0].count("\n") == cli._SCAN_CHUNK  # the header's and those between its 256 crystals
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["scan.csv"]


def test_scan_csv_to_file_prints_summary(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys,
        "scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "3",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert "records=8" in out
    assert target.read_text().startswith("r,perm,slopes")


def test_out_to_missing_directory_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "3", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err == f"cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_out_to_directory_creates_no_file(tmp_path, capsys, monkeypatch):
    def no_temp_file(*args, **kwargs):
        raise AssertionError("a temp file was made for a directory target")

    monkeypatch.setattr("fcrystal.cli.tempfile.mkstemp", no_temp_file)
    target = tmp_path / "reports"
    target.mkdir()
    code, out, err = run(
        capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "3", "--out", str(target)
    )
    assert (code, out, err) == (2, "", f"cannot write {target}: Is a directory\n")
    assert sorted(os.listdir(tmp_path)) == ["reports"]
    assert os.listdir(target) == []


def test_out_empty_path_creates_no_file(tmp_path, capsys, monkeypatch):
    def no_temp_file(*args, **kwargs):
        raise AssertionError("a temp file was made for an empty path")

    monkeypatch.setattr("fcrystal.cli.tempfile.mkstemp", no_temp_file)
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, out, err = run(
        capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "3", "--out", ""
    )
    assert (code, out, err) == (2, "", "cannot write output: No such file or directory\n")
    assert sorted(os.listdir(tmp_path)) == ["work"]
    assert os.listdir(workdir) == []
