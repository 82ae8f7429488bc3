"""Golden outputs of the command line: exit code, stdout, stderr and --out bytes.

Each case runs ``main`` in-process from an empty working directory and
compares everything it produced with ``tests/golden/<case>.json``.  The
expected files were recorded once from the command line as it stood before
its output path was rewritten; they are data, not generated by this test.
The same cases are replayed under every other Python 3.10+ found on PATH, all
in one child process each, so the package's own floor of 3.10 is checked too.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fcrystal.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

C2 = ("--r", "2", "--perm", "(1 2)", "--slopes", "0,1")
R8 = ("--r", "8", "--perm", "1 2 3 4 5 6 7 8", "--slopes", "0,0,0,0,0,0,0,0")
R9 = ("--r", "9", "--perm", "1 2 3 4 5 6 7 8 9", "--slopes", "0,0,0,0,0,0,0,0,0")
# Cycles of lengths 6, 9 and 9 whose points are out of order, so the json pins
# the order and rotation of orbits built from every pair of cycle lengths.
R24 = (
    "--r", "24", "--perm", "(18 10 17 19 6 23)(15 14 16 1 11 20 4 9 22)(24 21 3 2 7 5 13 12 8)",
    "--slopes", "0,1,2,0,1,1,0,2,1,0,0,1,2,1,0,1,0,0,2,1,1,0,1,0",
)
# One 40-cycle stepping by 3 mod 41: 40 orbits of length 40.
R40 = (
    "--r", "40", "--perm", "(" + " ".join(str(k * 3 % 41) for k in range(1, 41)) + ")",
    "--slopes", ",".join(str((k * k + k // 3) % 2) for k in range(40)),
)

# (case name, argv, name of the --out file or None)
CASES = [
    # gamma
    ("gamma-text", ("gamma", *C2, "--m-max", "3"), None),
    ("gamma-json", ("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0 4", "--m-max", "6", "--format", "json"), None),
    ("gamma-csv", ("gamma", *C2, "--m-max", "2", "--format", "csv"), None),
    ("gamma-text-ordinary", ("gamma", "--r", "3", "--perm", "1 2 3", "--slopes", "0,0,0", "--m-max", "2"), None),
    ("gamma-text-rank-one", ("gamma", "--r", "1", "--perm", "1", "--slopes", "0", "--m-max", "1"), None),
    ("gamma-text-fcrystal", ("gamma", "--r", "3", "--perm", "(1 2 3)", "--slopes", "0,2,5", "--m-max", "5"), None),
    ("gamma-json-two-cycles", (
        "gamma", "--r", "4", "--perm", "(1 2)(3 4)", "--slopes", "0,1,1,0", "--m-max", "4", "--format", "json",
    ), None),
    ("gamma-csv-out", (
        "gamma", "--r", "3", "--perm", "(1 2 3)", "--slopes", "0,1,1", "--m-max", "5", "--format", "csv",
        "--out", "g.csv",
    ), "g.csv"),
    ("gamma-json-out", ("gamma", *C2, "--m-max", "3", "--format", "json", "--out", "g.json"), "g.json"),
    ("gamma-text-override", ("gamma", *R9, "--m-max", "2", "--override-limits"), None),
    ("gamma-json-mixed-cycles-override", ("gamma", *R24, "--m-max", "3", "--format", "json", "--override-limits"), None),
    ("gamma-json-forty-cycle-override", ("gamma", *R40, "--m-max", "4", "--format", "json", "--override-limits"), None),
    # per-orbit lines at m_max below an orbit's level: eps (-3,3) has level 3, shown
    # as 2; the unbalanced eps (5,-3) shows as level 2 with a level-1 segment
    ("gamma-text-clamped-level", ("gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,3", "--m-max", "1"), None),
    ("gamma-json-clamped-level", (
        "gamma", "--r", "2", "--perm", "(1 2)", "--slopes", "0,3", "--m-max", "1", "--format", "json",
    ), None),
    ("gamma-text-clamped-unbalanced", (
        "gamma", "--r", "4", "--perm", "(1 2)(3 4)", "--slopes", "5,0,0,3", "--m-max", "1",
    ), None),
    ("gamma-json-clamped-unbalanced", (
        "gamma", "--r", "4", "--perm", "(1 2)(3 4)", "--slopes", "5,0,0,3", "--m-max", "1", "--format", "json",
    ), None),
    # endo, one level
    ("endo-m-text", ("endo", *C2, "--m", "3"), None),
    ("endo-m-text-prime", ("endo", *C2, "--m", "3", "--prime", "2"), None),
    ("endo-m-json", ("endo", *C2, "--m", "3", "--format", "json"), None),
    ("endo-m-json-prime", ("endo", *C2, "--m", "3", "--prime", "7", "--format", "json"), None),
    ("endo-m-csv", ("endo", *C2, "--m", "2", "--format", "csv"), None),
    ("endo-m-csv-prime", ("endo", *C2, "--m", "2", "--prime", "3", "--format", "csv"), None),
    ("endo-m-text-big-prime-power", ("endo", *R8, "--m", "16", "--prime", "1000003"), None),
    ("endo-m-json-big-prime-power", ("endo", *R8, "--m", "16", "--prime", "1000003", "--format", "json"), None),
    ("endo-m-text-out", ("endo", *C2, "--m", "1", "--out", "b.txt"), "b.txt"),
    # endo, a table of levels
    ("endo-mmax-text", ("endo", *C2, "--m-max", "4"), None),
    ("endo-mmax-text-prime", ("endo", *C2, "--m-max", "4", "--prime", "5"), None),
    ("endo-mmax-json", ("endo", "--r", "1", "--perm", "1", "--slopes", "0", "--m-max", "4", "--format", "json"), None),
    ("endo-mmax-json-prime", ("endo", *C2, "--m-max", "4", "--prime", "2", "--format", "json"), None),
    ("endo-mmax-csv", ("endo", *C2, "--m-max", "4", "--format", "csv"), None),
    ("endo-mmax-csv-prime", ("endo", *C2, "--m-max", "4", "--prime", "11", "--format", "csv"), None),
    ("endo-mmax-text-big-prime-power", ("endo", *R8, "--m-max", "5", "--prime", "1000003"), None),
    ("endo-mmax-csv-big-prime-power-out", (
        "endo", *R8, "--m-max", "16", "--prime", "1000003", "--format", "csv", "--out", "pb.csv",
    ), "pb.csv"),
    # verify, one sequence
    ("verify-seq-text", ("verify", "--seq", "3,0,-1,-2", "--m", "5"), None),
    ("verify-seq-json", ("verify", "--seq", "3,-3", "--m", "5", "--format", "json"), None),
    ("verify-seq-text-default-level", ("verify", "--seq", "2,-1,0,-1"), None),
    ("verify-seq-text-all-zero", ("verify", "--seq", "0,0", "--m", "4"), None),
    ("verify-seq-text-dump", ("verify", "--seq", "0,0", "--m", "2", "--dump-digraph"), None),
    ("verify-seq-json-dump", ("verify", "--seq", "2,-1,-1", "--m", "3", "--dump-digraph", "--format", "json"), None),
    ("verify-seq-text-dump-out", ("verify", "--seq", "1,-1", "--m", "2", "--dump-digraph", "--out", "v.dot"), "v.dot"),
    # verify, sweeps
    ("verify-sweep-text", ("verify",), None),
    ("verify-sweep-json", ("verify", "--r-max", "2", "--slope-max", "2", "--m-max", "3", "--format", "json"), None),
    ("verify-sweep-text-random", ("verify", "--r-max", "2", "--slope-max", "2", "--m-max", "3", "--random", "50"), None),
    ("verify-sweep-json-random", (
        "verify", "--r-max", "1", "--m-max", "5", "--random", "20", "--seed", "7", "--max-s", "5", "--max-entry", "3",
        "--format", "json",
    ), None),
    ("verify-sweep-text-out", ("verify", "--r-max", "2", "--m-max", "2", "--out", "sweep.txt"), "sweep.txt"),
    # scan
    ("scan-csv", ("scan", "--family", "circular-dieudonne", "--r", "3", "--m-max", "3", "--format", "csv"), None),
    ("scan-csv-out", (
        "scan", "--family", "circular-dieudonne", "--r", "4", "--m-max", "4", "--format", "csv", "--out", "s.csv",
    ), "s.csv"),
    ("scan-csv-fcrystal", (
        "scan", "--family", "all-fcrystal", "--r", "2", "--slope-max", "2", "--m-max", "3", "--format", "csv",
    ), None),
    ("scan-csv-some-checks", (
        "scan", "--family", "all-dieudonne", "--r", "3", "--m-max", "3", "--check", "strict", "--check", "ratio",
        "--format", "csv",
    ), None),
    ("scan-json", ("scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "4", "--format", "json"), None),
    ("scan-json-out", (
        "scan", "--family", "all-dieudonne", "--r", "3", "--m-max", "3", "--format", "json", "--out", "s.json",
    ), "s.json"),
    ("scan-json-all-dieudonne-r3", ("scan", "--family", "all-dieudonne", "--r", "3", "--m-max", "4", "--format", "json"), None),
    ("scan-json-fcrystal", (
        "scan", "--family", "circular-fcrystal", "--r", "2", "--slope-max", "4", "--m-max", "6", "--format", "json",
    ), None),
    ("scan-json-one-check", (
        "scan", "--family", "circular-fcrystal", "--r", "3", "--m-max", "3", "--check", "minimal", "--format", "json",
    ), None),
    # one crystal: its first row is also its last
    ("scan-json-one-crystal", (
        "scan", "--family", "circular-fcrystal", "--r", "1", "--slope-max", "0", "--m-max", "2", "--format", "json",
    ), None),
    ("scan-csv-one-crystal", (
        "scan", "--family", "circular-fcrystal", "--r", "1", "--slope-max", "0", "--m-max", "2", "--format", "csv",
    ), None),
    # five cycle types
    ("scan-csv-all-dieudonne-r4", ("scan", "--family", "all-dieudonne", "--r", "4", "--m-max", "3", "--format", "csv"), None),
    ("scan-text", ("scan", "--family", "circular-dieudonne", "--r", "2", "--m-max", "2"), None),
    ("scan-text-fcrystal", ("scan", "--family", "circular-fcrystal", "--r", "4", "--slope-max", "2", "--m-max", "4"), None),
    ("scan-text-workers", (
        "scan", "--family", "all-fcrystal", "--r", "3", "--slope-max", "2", "--m-max", "3", "--workers", "2",
    ), None),
    ("scan-text-out", ("scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "3", "--out", "s.txt"), "s.txt"),
    # minimal
    ("minimal-text-yes", ("minimal", *C2), None),
    ("minimal-text-no", ("minimal", "--r", "4", "--perm", "(1 2 3 4)", "--slopes", "0,0,1,1"), None),
    ("minimal-json", ("minimal", "--r", "4", "--perm", "(1 2 3 4)", "--slopes", "0,1,0,1", "--format", "json"), None),
    ("minimal-json-out", (
        "minimal", "--r", "3", "--perm", "(1 2)(3)", "--slopes", "0,1,1", "--format", "json", "--out", "min.json",
    ), "min.json"),
    # exit 2: invalid input
    ("error-perm-outside-range", ("gamma", "--r", "2", "--perm", "(1 3)", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-perm-unbalanced", ("gamma", "--r", "2", "--perm", "(1 2", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-perm-repeated-image", ("endo", "--r", "2", "--perm", "1 1", "--slopes", "0,1", "--m", "2"), None),
    ("error-perm-short-one-line", ("minimal", "--r", "3", "--perm", "2 1", "--slopes", "0,1,1"), None),
    ("error-perm-point-twice", ("gamma", "--r", "2", "--perm", "(1)(1 2)", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-perm-empty-cycle", ("gamma", "--r", "2", "--perm", "()(1 2)", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-perm-bad-character", ("gamma", "--r", "2", "--perm", "(1 a)", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-perm-empty", ("gamma", "--r", "2", "--perm", " ", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-slopes-count", ("gamma", *C2[:4], "--slopes", "0,1,1", "--m-max", "2"), None),
    ("error-slopes-empty", ("gamma", *C2[:4], "--slopes", ", ", "--m-max", "2"), None),
    ("error-slopes-bad-integer", ("endo", *C2[:4], "--slopes", "0,x", "--m", "2"), None),
    # int() would read these as 10 and 1
    ("error-slopes-underscore-integer", ("endo", *C2[:4], "--slopes", "0,1_0", "--m", "2"), None),
    ("error-slopes-non-ascii-digit", ("endo", *C2[:4], "--slopes", "0,\u0661", "--m", "2"), None),
    ("error-perm-non-ascii-digit", ("gamma", "--r", "2", "--perm", "(1 \u0662)", "--slopes", "0,1", "--m-max", "2"), None),
    ("error-slopes-negative", ("gamma", *C2[:4], "--slopes", "0,-1", "--m-max", "2"), None),
    ("error-slopes-before-perm", ("gamma", "--r", "2", "--perm", "(1 3)", "--slopes", "0", "--m-max", "2"), None),
    ("error-prime-floor-before-perm", ("endo", "--r", "2", "--perm", "(1 3)", "--slopes", "0,1", "--m", "2", "--prime", "1"), None),
    ("error-gamma-level-zero", ("gamma", *C2, "--m-max", "0"), None),
    ("error-endo-no-level", ("endo", *C2), None),
    ("error-endo-both-levels", ("endo", *C2, "--m", "2", "--m-max", "3"), None),
    ("error-endo-level-zero", ("endo", *C2, "--m", "0"), None),
    ("error-endo-prime-one", ("endo", *C2, "--m", "2", "--prime", "1"), None),
    ("error-endo-both-levels-before-cap", ("endo", *C2, "--m", "20", "--m-max", "30"), None),
    ("error-minimal-not-dieudonne", ("minimal", "--r", "2", "--perm", "(1 2)", "--slopes", "0,2"), None),
    ("error-verify-seq-empty", ("verify", "--seq", ""), None),
    ("error-verify-seq-bad-integer", ("verify", "--seq", "1,2.5"), None),
    ("error-verify-seq-level-zero", ("verify", "--seq", "1,-1", "--m", "0"), None),
    ("error-verify-sweep-level-zero", ("verify", "--m-max", "0"), None),
    ("error-scan-level-zero", ("scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "0"), None),
    ("error-out-missing-directory", ("gamma", *C2, "--m-max", "3", "--out", "missing/g.txt"), "missing/g.txt"),
    ("error-scan-csv-out-missing-directory", (
        "scan", "--family", "all-dieudonne", "--r", "2", "--m-max", "2", "--format", "csv", "--out", "missing/s.csv",
    ), "missing/s.csv"),
    # exit 3: resource limits
    ("limit-gamma-rank", ("gamma", *R9, "--m-max", "2"), None),
    ("limit-gamma-level", ("gamma", *C2, "--m-max", "17"), None),
    ("limit-endo-level", ("endo", *C2, "--m", "17"), None),
    # past any per-level table, so refused with --override-limits too
    ("limit-gamma-level-past-tables", ("gamma", *C2, "--m-max", str(10**20), "--override-limits"), None),
    ("limit-minimal-rank", ("minimal", *R9), None),
    ("limit-verify-seq-level", ("verify", "--seq", "1,-1", "--m", "17"), None),
    ("limit-verify-seq-budget", ("verify", "--seq", "1,1,1,1", "--m", "9", "--vertex-budget", "10"), None),
    ("limit-verify-sweep-rank", ("verify", "--r-max", "9"), None),
    ("limit-verify-sweep-budget", ("verify", "--r-max", "2", "--vertex-budget", "5"), None),
    ("limit-scan-rank", ("scan", "--family", "circular-dieudonne", "--r", "9", "--m-max", "2"), None),
    # Recorded when the crystal-count cap came in; before it, both enumerated without end.
    ("limit-scan-crystals", (
        "scan", "--family", "circular-fcrystal", "--r", "3", "--slope-max", "100000", "--m-max", "2",
    ), None),
    ("limit-verify-sweep-crystals", ("verify", "--r-max", "3", "--slope-max", "1000"), None),
]


def run_case(argv, out, capsys) -> dict:
    """Run one command line in the current directory and collect what it produced."""
    code = main(list(argv))
    captured = capsys.readouterr()
    path = Path(out) if out is not None else None
    return {
        "argv": list(argv),
        "code": code,
        "stdout": captured.out,
        "stderr": captured.err,
        "out": path.read_text() if path is not None and path.exists() else None,
        "files": sorted(os.listdir(".")),
    }


@pytest.mark.parametrize("name, argv, out", CASES, ids=[name for name, _, _ in CASES])
def test_golden(name, argv, out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert run_case(argv, out, capsys) == expected


# run_case in a child that has only the package: the cases come as JSON on
# stdin, each runs in a fresh temporary directory, the results go to stdout.
REPLAY = """
import contextlib, io, json, os, sys, tempfile
from fcrystal.cli import main

home = os.getcwd()
results = {}
for name, argv, out in json.load(sys.stdin):
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        text = None
        if out is not None and os.path.exists(out):
            with open(out) as handle:
                text = handle.read()
        results[name] = {
            "argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "out": text, "files": sorted(os.listdir(".")),
        }
        os.chdir(home)
json.dump(results, sys.stdout)
"""


def other_pythons() -> dict[str, str]:
    """{version: executable} of each python3.10 ... python3.14 on PATH that
    starts within 10 s, reports its version and is not this interpreter."""
    this = os.path.realpath(sys.executable)
    found: dict[str, str] = {}
    for minor in range(10, 15):
        executable = shutil.which(f"python3.{minor}")
        if executable is None:
            continue
        probe = "import os, sys; print(sys.version.split()[0]); print(os.path.realpath(sys.executable))"
        try:
            result = subprocess.run([executable, "-c", probe], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = result.stdout.splitlines()
        if result.returncode == 0 and len(lines) == 2 and lines[1] != this:
            found.setdefault(lines[0], executable)
    return found


def test_golden_under_every_other_python():
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10+ starts from PATH")
    cases = json.dumps([[name, list(argv), out] for name, argv, out in CASES])
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    failed = {}
    for version, executable in pythons.items():
        result = subprocess.run(
            [executable, "-c", REPLAY], input=cases, env=env, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, f"Python {version}: {result.stderr}"
        got = json.loads(result.stdout)
        failed[version] = [
            name for name, _, _ in CASES if got.get(name) != json.loads((GOLDEN / f"{name}.json").read_text())
        ]
    assert failed == {version: [] for version in pythons}
