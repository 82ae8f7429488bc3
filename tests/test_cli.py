"""Command line behaviour: subcommands, formats, exit codes, determinism, files."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from decimal import Decimal

import pytest

from fcrystal import FCyclicCrystal, Permutation, cli, orbit_data, scan
from fcrystal.circseq import AllZero, circular_level, level_counts, normalize
from fcrystal.cli import main
from fcrystal.scan import ScanRecord, enumerate_family, run_scan, summarize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def orbit_view_by_normalize(data, m_max) -> dict:
    """_orbit_view as it was before it read OrbitData: normalize and level_counts
    on every orbit; kept as the reference."""
    norm = normalize(data.epsilon, m_max)
    return {
        "points": data.orbit.points,
        "epsilon": data.epsilon,
        "normalized": (
            {"kind": "all-zero", "length": norm.original_length}
            if isinstance(norm, AllZero)
            else {"kind": "signs", "entries": norm.entries}
        ),
        "census": {str(level): count for level, count in sorted(level_counts(data.census, m_max).items())},
        "level": circular_level(norm),
    }


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
        for data in orbit_data(c):
            for m_max in (1, 2, 3, 6):
                clamped += max(map(abs, data.epsilon)) > m_max + 1 and data.level is not None
                assert cli._orbit_view(data, m_max) == orbit_view_by_normalize(data, m_max), (c, m_max)
    assert clamped


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
        return dataclasses.replace(check, formula_linear=check.formula_linear + 1), stats

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


def scan_csv_by_hand(records) -> list[str]:
    """The csv lines as scan wrote them before _csv_cell: one hand-unrolled
    expression of all 16 fields per record, kept as the reference."""
    flag = {None: "", True: "true", False: "false"}
    lines = [",".join(field.name for field in dataclasses.fields(ScanRecord))]
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
    records = run_scan(family, r, 5, slope_max)
    summary = summarize(records)
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
        "records": [{k: v for k, v in vars(rec).items() if k != "m_max"} for rec in records],
        "summary": summarize(records),
    }
    return json.dumps(payload, indent=2) + "\n"


def scan_text_by_hand(family, r, slope_max, m_max, records) -> str:
    """The scan text as the per-record loop wrote it; kept as the reference."""
    summary = summarize(records)
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
    records = run_scan(family, r, 5, slope_max)
    assert code == 0
    assert out == scan_json_by_hand(family, r, slope_max, 5, list(cli.CHECKS), records)


def test_scan_json_with_chosen_checks_matches_the_per_record_payload(capsys):
    checks = ["strict", "ratio"]
    code, out, _ = run(
        capsys, "scan", "--family", "circular-fcrystal", "--r", "4", "--slope-max", "2", "--m-max", "4",
        "--format", "json", "--check", "strict", "--check", "ratio",
    )
    records = run_scan("circular-fcrystal", 4, 4, 2, checks)
    assert out == scan_json_by_hand("circular-fcrystal", 4, 2, 4, checks, records)


@pytest.fixture
def forced_violations(monkeypatch):
    """No default-range scan finds a violation: mark every class that stabilizes
    past level 0 as violating nonincreasing."""
    real = scan.scan_record

    def failing(pi, slopes, m_max, checks=cli.CHECKS):
        record = real(pi, slopes, m_max, checks)
        return dataclasses.replace(record, nonincreasing=False) if record.stabilization >= 1 else record

    monkeypatch.setattr(scan, "scan_record", failing)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_scan_violations_name_every_member(capsys, forced_violations, fmt):
    family, r, m_max = "all-dieudonne", 4, 4
    code, out, err = run(capsys, "scan", "--family", family, "--r", str(r), "--m-max", str(m_max), "--format", fmt)
    records = run_scan(family, r, m_max)
    failing = [(rec.perm, rec.slopes) for rec in records if rec.nonincreasing is False]
    classes = {id(record) for _, _, record in scan.scan_members(family, r, m_max) if record.nonincreasing is False}
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
        (("verify", "--seq", "1,-1", "--m-max", "0"), "level must be at least 1"),
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


class Enumerated(Exception):
    """Raised in place of enumerating a family: the sweep got past every cap."""


@pytest.fixture
def no_enumeration(monkeypatch):
    def enumerate_family(*args, **kwargs):
        raise Enumerated(args)

    monkeypatch.setattr("fcrystal.scan.enumerate_family", enumerate_family)
    monkeypatch.setattr("fcrystal.cli.enumerate_family", enumerate_family)


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
    + [("verify", "--r-max", "8")],
)
def test_crystal_count_cap_admits(capsys, no_enumeration, argv):
    # every r <= 8 sweep at slope bound 1 is admitted, and --override-limits lifts the cap
    with pytest.raises(Enumerated):
        main(list(argv))


def test_level_cap(capsys):
    code, _, _ = run(capsys, "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,1", "--m-max", "17")
    assert code == 3


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


def test_verify_random_sweep_checks_vertex_budget(capsys):
    # the longest random sequence at the top level must fit, as for --seq
    argv = ("verify", "--r-max", "1", "--m-max", "4", "--vertex-budget", "10", "--random", "3", "--max-s", "50")
    assert run(capsys, *argv) == (3, "", "resource limit: digraph would need 200 vertices, budget is 10\n")


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
