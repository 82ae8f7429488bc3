"""Family scans: enumerate crystals, compute invariants, check expected properties.

A scan walks a family of crystals in a canonical order (permutations by image
tuple, slope vectors lexicographically), computes the gamma and b tables for
each, and evaluates a set of expected properties.  Records come back in
enumeration order, so scan output is reproducible byte for byte.

Every invariant and verdict of a record is an isomorphism invariant, so the
walk is class-first (see scan_members): a crystal costs one lookup of its slope
word, read in cycle order, and scan_record runs once per isomorphism class.
Each member carries its class's record; run_scan expands the members into one
record per crystal, and the cli renders each class's part once.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .crystal import FCyclicCrystal, gamma_table, is_minimal
from .permutation import Permutation, cycle_decomposition, cycle_string

FAMILIES = ("circular-dieudonne", "all-dieudonne", "circular-fcrystal", "all-fcrystal")

# Each property check's name and the ScanRecord field that holds its verdict.
CHECK_FIELDS = {
    "nonincreasing": "nonincreasing",
    "strict": "strict",
    "increasing-to-stab": "increasing_to_stab",
    "ratio": "ratio",
    "minimal": "minimal_matches_stab",
}
CHECKS = tuple(CHECK_FIELDS)


@dataclass(frozen=True)
class ScanRecord:
    """Invariants and property verdicts for one crystal.

    Verdict fields are True (holds), False (violated), or None (not applicable
    to this crystal or not requested).
    """

    r: int
    perm: str
    slopes: tuple[int, ...]
    m_max: int
    gamma: tuple[int, ...]
    delta: tuple[int, ...]
    b: tuple[int, ...]
    stabilization: int
    dieudonne: bool
    ordinary: Optional[bool]
    minimal: Optional[bool]
    nonincreasing: Optional[bool]
    strict: Optional[bool]
    increasing_to_stab: Optional[bool]
    ratio: Optional[bool]
    minimal_matches_stab: Optional[bool]

    @property
    def violations(self) -> list[str]:
        return [name for name, field in CHECK_FIELDS.items() if getattr(self, field) is False]


# One crystal of a scan walk: its perm (cycle form), its slopes, and its class's record.
Member = tuple[str, tuple[int, ...], ScanRecord]


def cycles_of_length_r(r: int) -> Iterator[Permutation]:
    """All r-cycles on {1..r}, canonically: cycle (1, rest...) over permutations of 2..r."""
    for rest in itertools.permutations(range(2, r + 1)):
        images = [0] * r
        cycle = (1,) + rest
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
        yield Permutation(tuple(images))


def all_permutations(r: int) -> Iterator[Permutation]:
    for images in itertools.permutations(range(1, r + 1)):
        yield Permutation(images)


def slope_bound(family: str, slope_max: int) -> int:
    """The largest slope the family's crystals take: 1 for the Dieudonne
    families, whatever slope_max asks, and slope_max otherwise."""
    return 1 if family.endswith("dieudonne") else slope_max


def enumerate_family(family: str, r: int, slope_max: int = 1) -> Iterator[tuple[Permutation, tuple[int, ...]]]:
    """Yield (permutation, slopes) pairs of the family in canonical order,
    slopes ranging over 0..slope_bound(family, slope_max)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    slope_max = slope_bound(family, slope_max)
    perms = cycles_of_length_r(r) if family.startswith("circular") else all_permutations(r)
    for pi in perms:
        for slopes in itertools.product(range(slope_max + 1), repeat=r):
            yield pi, slopes


def family_size(family: str, r: int, slope_max: int = 1) -> int:
    """How many crystals enumerate_family yields: (r-1)! or r! permutations times (slope bound + 1)^r slopes."""
    perms = math.factorial(r - 1 if family.startswith("circular") else r)
    return perms * (slope_bound(family, slope_max) + 1) ** r


def _ratio_holds(gamma: Sequence[int]) -> bool:
    # gamma(i) * j < gamma(j) * i for all i > j >= 1 with gamma(j) > 0.
    m_max = len(gamma) - 1
    for j in range(1, m_max + 1):
        if gamma[j] == 0:
            continue
        for i in range(j + 1, m_max + 1):
            if gamma[i] * j >= gamma[j] * i:
                return False
    return True


def scan_record(
    pi: Permutation,
    slopes: tuple[int, ...],
    m_max: int,
    checks: Sequence[str] = CHECKS,
) -> ScanRecord:
    """Compute one crystal's tables and evaluate the requested property checks."""
    crystal = FCyclicCrystal(pi, slopes)
    table = gamma_table(crystal, m_max)
    stab = table.stabilization
    dieudonne = crystal.is_dieudonne
    ordinary = table.ordinary
    minimal = is_minimal(crystal) if dieudonne else None

    verdict: dict[str, Optional[bool]] = dict.fromkeys(CHECKS)  # None: not applicable or not requested
    if "nonincreasing" in checks or "strict" in checks:
        report = table.monotonicity()
        if "nonincreasing" in checks:
            verdict["nonincreasing"] = report.nonincreasing
        # The strict decrease only holds for circular nonordinary Dieudonne
        # crystals; elsewhere it is reported as not applicable.
        if "strict" in checks and dieudonne and crystal.is_circular and ordinary is False:
            verdict["strict"] = report.strict_through_stabilization if m_max >= stab + 1 else None
    if "increasing-to-stab" in checks:
        bound = min(stab, m_max)
        verdict["increasing-to-stab"] = all(table.gamma[n] > table.gamma[n - 1] for n in range(1, bound + 1)) and all(
            table.gamma[n] == table.gamma[bound] for n in range(bound, m_max + 1)
        )
    if "ratio" in checks and dieudonne and ordinary is False:
        verdict["ratio"] = _ratio_holds(table.gamma)
    if "minimal" in checks and dieudonne:
        verdict["minimal"] = minimal == (stab <= 1)

    return ScanRecord(
        r=pi.size,
        perm=cycle_string(pi),
        slopes=slopes,
        m_max=m_max,
        gamma=table.gamma,
        delta=table.delta,
        b=table.b,
        stabilization=stab,
        dieudonne=dieudonne,
        ordinary=ordinary,
        minimal=minimal,
        **{CHECK_FIELDS[name]: value for name, value in verdict.items()},
    )


def _class_key(cycles: Sequence[tuple[int, ...]], slopes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # Relabeling the basis conjugates pi, which keeps exactly this data: each
    # cycle's slope word up to rotation (taken at its least rotation), as a
    # multiset over the cycles.
    words = []
    for cycle in cycles:
        word = tuple(slopes[i - 1] for i in cycle)
        words.append(min(word[k:] + word[:k] for k in range(len(word))))
    return tuple(sorted(words))


def scan_members(
    family: str,
    r: int,
    m_max: int,
    slope_max: int = 1,
    checks: Sequence[str] = CHECKS,
) -> list[Member]:
    """Walk a family class-first: one (perm, slopes, class record) per crystal,
    in enumeration order.

    The class record is scan_record of the class's first member, and every
    member of the class shares it.  A crystal's class is looked up by its slope
    word read in cycle order, in a memo keyed by (cycle lengths, word), so
    _class_key runs once per distinct key, not once per crystal.  The memos live
    for this call only.
    """
    checks = tuple(checks)
    by_class: dict[tuple[tuple[int, ...], ...], ScanRecord] = {}
    by_word: dict[tuple[int, ...], dict] = {}  # cycle lengths -> {word: class record}
    members: list[Member] = []
    current = None
    # The family lists each permutation, one object, with all its slope vectors in a row.
    for pi, slopes in enumerate_family(family, r, slope_max):
        if pi is not current:
            current = pi
            cycles = cycle_decomposition(pi)
            perm = cycle_string(pi)
            # At r = 1 the getter has one index and returns the bare slope, which
            # names the word as well as a 1-tuple would.
            word_of = itemgetter(*[i - 1 for cycle in cycles for i in cycle])
            memo = by_word.setdefault(tuple(map(len, cycles)), {})
        word = word_of(slopes)
        record = memo.get(word)
        if record is None:
            key = _class_key(cycles, slopes)
            record = by_class.get(key)
            if record is None:
                record = by_class[key] = scan_record(pi, slopes, m_max, checks)
            memo[word] = record
        members.append((perm, slopes, record))
    return members


def run_scan(
    family: str,
    r: int,
    m_max: int,
    slope_max: int = 1,
    checks: Sequence[str] = CHECKS,
) -> list[ScanRecord]:
    """Scan a whole family: one record per crystal, in enumeration order.  Each
    is its class record (see scan_members) with the crystal's own perm and slopes."""
    return [
        ScanRecord(**{**vars(record), "perm": perm, "slopes": slopes})
        for perm, slopes, record in scan_members(family, r, m_max, slope_max, checks)
    ]


def summarize(records: Sequence[ScanRecord], counts: Optional[Sequence[int]] = None) -> dict[str, int]:
    """Violation counts per property over a scan, plus the record total.  With
    counts, records[i] stands for counts[i] crystals."""
    if counts is None:
        counts = [1] * len(records)
    summary = {"records": sum(counts)}
    for name, field in CHECK_FIELDS.items():
        summary[f"violations[{name}]"] = sum(n for record, n in zip(records, counts) if getattr(record, field) is False)
    return summary


def summarize_members(members: Sequence[Member]) -> dict[str, int]:
    """summarize of the expanded records, from each class record's verdicts
    weighted by its member count."""
    records = list(map(itemgetter(2), members))
    counts = Counter(map(id, records))
    by_id = dict(zip(map(id, records), records))
    return summarize([by_id[key] for key in counts], list(counts.values()))
