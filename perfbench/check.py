"""Output checks, made outside the timed phase.

Two kinds of check:

* byte pins: the sha256 of every scan's csv/json file and stdout, of the fixed
  verify sweep's stdout, and of every query's stdout, recorded by pin.py at
  the seed commit;
* the literal oracle: sampled scan records and query answers are recomputed
  with ``fcrystal.digraph.oracle_counts``, one pair orbit at a time.  gamma(m)
  is the sum of the orbits' free linear counts and b(m) the sum of circular
  count times orbit length.  Pair orbits and permutations are rebuilt here,
  so the check shares only the oracle with the program.

A p^b that may be longer than Python's default 4,300-digit limit is compared
in a separate interpreter with the limit lifted; this process keeps the
default, like the workload process.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import workloads
from fcrystal.digraph import oracle_counts


# Digraph vertices the stabilization check of one answer may build.
STABILIZATION_VERTEX_BUDGET = 200_000


class Mismatch(Exception):
    """An output disagrees with its pin or with the oracle."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pool_sha256() -> str:
    """Fingerprint of the query pool, so pins.json is known to match it."""
    return sha256(json.dumps([op.argv for op in workloads.query_pool()]))


def parse_perm(text: str, r: int) -> tuple[int, ...]:
    """Images of a permutation given in cycle form or one-line form."""
    if text.strip().startswith("("):
        images = list(range(1, r + 1))
        for body in re.findall(r"\(([^)]*)\)", text):
            cycle = [int(v) for v in body.split()]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return tuple(images)
    return tuple(int(v) for v in re.split(r"[,\s]+", text.strip()))


def pair_orbits(images: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    r = len(images)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            orbit = []
            point = (i, j)
            while point not in seen:
                seen.add(point)
                orbit.append(point)
                point = (images[point[0] - 1], images[point[1] - 1])
            if orbit:
                orbits.append(orbit)
    return orbits


class Oracle:
    """gamma(m) and b(m) of one crystal from the literal digraph census, per level on demand."""

    def __init__(self, images: tuple[int, ...], slopes: tuple[int, ...]) -> None:
        self.sequences = [
            (tuple(slopes[i - 1] - slopes[j - 1] for i, j in orbit), len(orbit))
            for orbit in pair_orbits(images)
        ]
        self._levels: dict[int, tuple[int, int]] = {0: (0, 0)}

    def level(self, m: int) -> tuple[int, int]:
        if m not in self._levels:
            gamma = b = 0
            for eps, length in self.sequences:
                stats = oracle_counts(eps, m)
                gamma += stats.free_linear
                b += stats.circular * length
            self._levels[m] = (gamma, b)
        return self._levels[m]

    def gamma(self, m: int) -> int:
        return self.level(m)[0]

    def b(self, m: int) -> int:
        return self.level(m)[1]

    def check_stabilization(self, s: int) -> None:
        # gamma rises at s and is flat from s on; its increments never grow, so
        # one flat step past s means flat for good.  Skipped when the three
        # digraph levels around s would exceed the budget (large rank, deep s).
        if 3 * (s + 1) * sum(length for _, length in self.sequences) > STABILIZATION_VERTEX_BUDGET:
            return
        if self.gamma(s + 1) != self.gamma(s) or (s > 0 and self.gamma(s) <= self.gamma(s - 1)):
            raise Mismatch(f"stabilization {s} disagrees with oracle gamma around it")


def _expect(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: output {got!r}, oracle {want!r}")


def check_gamma_table(oracle: Oracle, gamma: list[int], b: list[int], stabilization: Optional[int]) -> None:
    m_max = len(b)
    _expect("gamma", list(gamma), [oracle.gamma(m) for m in range(m_max + 1)])
    _expect("b", list(b), [oracle.b(m) for m in range(1, m_max + 1)])
    if stabilization is not None:
        oracle.check_stabilization(stabilization)


def newton_slopes(images: tuple[int, ...], slopes: tuple[int, ...]) -> list[str]:
    out: list[Fraction] = []
    seen = set()
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = images[start - 1]
        while j != start:
            seen.add(j)
            cycle.append(j)
            j = images[j - 1]
        avg = Fraction(sum(slopes[i - 1] for i in cycle), len(cycle))
        out += [avg] * len(cycle)
    return [str(v) for v in sorted(out)]


# ---------------------------------------------------------------- p^b


def pb_exceeds_limit(prime: int, b: int) -> bool:
    """True when p^b has more than 4,300 decimal digits; no string conversion needed."""
    return prime**b >= 10**workloads.INT_STR_DIGITS


_BIGINT_CODE = """
import json, sys
sys.set_int_max_str_digits(0)
print(json.dumps([str(p ** b) == text for p, b, text in json.load(sys.stdin)]))
"""


def powers_match(triples: list[tuple[int, int, str]]) -> list[bool]:
    """For each (p, b, text): does text spell p^b?  Runs in a separate interpreter."""
    if not triples:
        return []
    proc = subprocess.run(
        [sys.executable, "-c", _BIGINT_CODE], input=json.dumps(triples),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


# ---------------------------------------------------------------- queries


def arg(argv: tuple[str, ...], flag: str) -> Optional[str]:
    """The value given for ``flag`` in an argv, or None."""
    return argv[argv.index(flag) + 1] if flag in argv else None


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split()]


def _line(text: str, prefix: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise Mismatch(f"no line starting {prefix!r} in output")


def query_oracle(argv: tuple[str, ...]) -> Oracle:
    r = int(arg(argv, "--r"))
    slopes = tuple(int(v) for v in re.split(r"[,\s]+", arg(argv, "--slopes").strip()))
    return Oracle(parse_perm(arg(argv, "--perm"), r), slopes)


def check_query(argv: tuple[str, ...], text: str, powers: list[tuple[int, int, str]]) -> None:
    """Check one query's stdout against the oracle; p^b strings are appended to ``powers``."""
    command, fmt = argv[0], arg(argv, "--format") or "text"
    oracle = query_oracle(argv)
    if command == "gamma":
        if fmt == "json":
            payload = json.loads(text)
            check_gamma_table(oracle, payload["gamma"], payload["b"], payload["stabilization"])
        elif fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
            check_gamma_table(oracle, [int(row["gamma"]) for row in rows], [int(row["b"]) for row in rows[1:]], None)
        else:
            gamma = _ints(_line(text, "gamma: ").split("(")[0])
            b = _ints(_line(text, "b: ").split("(")[0])
            check_gamma_table(oracle, gamma, b, int(_line(text, "stabilization: ").split()[0]))
        return
    if command == "endo":
        prime = arg(argv, "--prime")
        single = arg(argv, "--m")
        top = int(single or arg(argv, "--m-max"))
        levels = [top] if single else list(range(1, top + 1))
        if fmt == "json":
            payload = json.loads(text)
            b = [payload["b"]] if single else payload["b"]
            components = payload.get("components")
            if components is not None:
                components = [components] if single else components
        elif fmt == "csv" and not single:
            rows = list(csv.DictReader(io.StringIO(text)))
            b = [int(row["b"]) for row in rows]
            components = [row["components"] for row in rows] if prime else None
        elif single:
            b = [int(_line(text, f"b({top}) = "))]
            components = [_line(text, f"components({top}) = ").rsplit(" = ", 1)[1]] if prime else None
        else:
            b = _ints(_line(text, "b: ").split("(")[0])
            components = _line(text, "components: ").split() if prime else None
        _expect("b", b, [oracle.b(m) for m in levels])
        if prime:
            if components is None:
                raise Mismatch("p^b missing from output")
            powers += [(int(prime), value, c) for value, c in zip(b, components)]
        return
    if command == "minimal":
        r = int(arg(argv, "--r"))
        slopes = tuple(int(v) for v in re.split(r"[,\s]+", arg(argv, "--slopes").strip()))
        images = parse_perm(arg(argv, "--perm"), r)
        if fmt == "json":
            payload = json.loads(text)
            verdict, stab, consistent = payload["minimal"], payload["stabilization"], payload["consistent"]
            newton = payload["newton_slopes"]
        else:
            verdict = _line(text, "minimal: ") == "yes"
            stab_line = _line(text, "stabilization: ").split()
            stab, consistent = int(stab_line[0]), stab_line[1] == "consistent=yes"
            newton = _line(text, "newton slopes: ").split()
        _expect("newton slopes", newton, newton_slopes(images, slopes))
        oracle.check_stabilization(stab)
        # Minimal exactly when gamma is flat from level 1 on.
        _expect("minimal", verdict, oracle.gamma(2) == oracle.gamma(1))
        _expect("consistent", consistent, True)
        return
    raise Mismatch(f"no oracle check for command {command!r}")


@lru_cache(maxsize=None)
def pb_predicted_failure(argv: tuple[str, ...]) -> bool:
    """Will this query hit the 4,300-digit limit at the seed?  Only endo with
    --prime prints p^b; the oracle gives b."""
    prime = arg(argv, "--prime")
    if argv[0] != "endo" or prime is None:
        return False
    oracle = query_oracle(argv)
    single = arg(argv, "--m")
    levels = [int(single)] if single else range(1, int(arg(argv, "--m-max")) + 1)
    return any(pb_exceeds_limit(int(prime), oracle.b(m)) for m in levels)


# ---------------------------------------------------------------- scans


def check_scan_file(op: workloads.Op, data: str, sample: int, rng) -> int:
    """Check a seeded sample of a scan file's records against the oracle; returns how many."""
    if op.out.endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(data)))
        records = [
            (int(row["r"]), row["perm"], [int(v) for v in row["slopes"].split(";")],
             [int(v) for v in row["gamma"].split(";")], [int(v) for v in row["b"].split(";")],
             int(row["stabilization"]))
            for row in rows
        ]
    else:
        records = [
            (rec["r"], rec["perm"], rec["slopes"], rec["gamma"], rec["b"], rec["stabilization"])
            for rec in json.loads(data)["records"]
        ]
    if len(records) != op.crystals:
        raise Mismatch(f"{op.key}: {len(records)} records, expected {op.crystals}")
    for r, perm, slopes, gamma, b, stab in rng.sample(records, sample):
        try:
            check_gamma_table(Oracle(parse_perm(perm, r), tuple(slopes)), gamma, b, stab)
        except Mismatch as exc:
            raise Mismatch(f"{op.key} record perm={perm} slopes={slopes}: {exc}") from None
    return sample
