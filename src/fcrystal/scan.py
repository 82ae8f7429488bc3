"""Family scans: enumerate crystals, compute invariants, check expected properties.

A scan walks a family of crystals in a canonical order (permutations by image
tuple, slope vectors lexicographically), computes the gamma and b tables for
each, and evaluates a set of expected properties.  Records come back in
enumeration order, so scan output is reproducible byte for byte.

Every invariant and verdict of a record is an isomorphism invariant, so a scan
is one class table (see scan_table): one record per isomorphism class, how many
crystals it holds, and lazy rows of class indices.  The table costs cycle types,
classes and permutations, not crystals: each cycle type's memo of slope words is
filled once (a type is its cycle lengths sorted, so (2, 3) and (3, 2) share
one), scan_record runs once per class, and the counts follow from the cycle
types.  scan_record builds a record from one cycle decomposition: the cycles'
slope words give its tables through crystal.class_tables, whose pair tables
are memoized for the whole scan in a dict that scan_table makes and drops,
and its minimality through crystal.is_minimal_words; its one crystal object
only checks the slopes, and it makes no second decomposition.  It computes
every verdict, each linear in the levels, so a record is always whole: a
verdict is None only where its check does not apply.  Which verdicts print is
the cli's choice (scan --check blanks the others on the class records).
_class_key takes each least rotation as one min over slices of the word read
twice.  A crystal's slope word is looked up only when its row is read, at C
speed.
scan_table is the one scan path: the cli renders each class's part once, and
a text scan with no violation reads no row.  scan_record over
enumerate_family is the per-crystal definition the table is tested against.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from .crystal import FCyclicCrystal, class_tables, delta_report, is_minimal_words
from .permutation import Permutation, cycle_decomposition, cycles_text

FAMILIES = ("circular-dieudonne", "all-dieudonne", "circular-fcrystal", "all-fcrystal")

# The property checks, in the order of their verdicts, a ScanRecord's last fields.
CHECKS = ("nonincreasing", "strict", "increasing-to-stab", "ratio", "minimal")


class ScanRecord(NamedTuple):
    """Invariants and property verdicts for one crystal.

    Verdict fields are True (holds), False (violated), or None (not applicable
    to this crystal).
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
        return [name for name, verdict in zip(CHECKS, self[-len(CHECKS) :]) if verdict is False]


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


def _permutations(family: str, r: int) -> Iterator[Permutation]:
    """The family's permutations in canonical order; the one check of a family name and a rank."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    return cycles_of_length_r(r) if family.startswith("circular") else all_permutations(r)


def _slope_vectors(top: int, r: int) -> Iterator[tuple[int, ...]]:
    """Length-r vectors over 0..top, lexicographically; lazy, where itertools.product copies range(top + 1) first."""
    vectors: Iterator[tuple[int, ...]] = iter([()])
    for _ in range(r):
        vectors = (head + (s,) for head in vectors for s in range(top + 1))
    return vectors


def enumerate_family(family: str, r: int, slope_max: int = 1) -> Iterator[tuple[Permutation, tuple[int, ...]]]:
    """Yield (permutation, slopes) pairs of the family in canonical order,
    slopes ranging over 0..slope_bound(family, slope_max).  A stream: it holds
    no list of permutations or slope vectors."""
    top = slope_bound(family, slope_max)
    for pi in _permutations(family, r):
        for slopes in _slope_vectors(top, r):
            yield pi, slopes


def family_size(family: str, r: int, slope_max: int = 1) -> int:
    """How many crystals enumerate_family yields: (r-1)! or r! permutations times
    (slope bound + 1)^r slopes.  Refuses what enumerate_family refuses."""
    _permutations(family, r)
    perms = math.factorial(r - 1 if family.startswith("circular") else r)
    return perms * (slope_bound(family, slope_max) + 1) ** r


def _ratio_holds(gamma: Sequence[int]) -> bool:
    # gamma(i) * j < gamma(j) * i for all i > j >= 1 with gamma(j) > 0.  gamma
    # never falls (its increments are segment counts), so those j run from its
    # first positive level on, and the bound is gamma(n) / n strictly falling
    # from each such level to the next.
    first = next((n for n in range(1, len(gamma)) if gamma[n]), len(gamma))
    return all(gamma[n + 1] * n < gamma[n] * (n + 1) for n in range(first, len(gamma) - 1))


def scan_record(pi: Permutation, slopes: tuple[int, ...], m_max: int, pairs: Optional[dict] = None) -> ScanRecord:
    """One crystal's tables and the verdicts of every check, None where a check
    does not apply.  One cycle_decomposition of pi gives the record's cycle
    string, the circular test of the strict check and the cycles' slope words,
    whose pair tables (crystal.class_tables, memoized in pairs) give the tables
    and whose windows give minimality (crystal.is_minimal_words).
    FCyclicCrystal checks the slopes.  Every verdict is a function of the
    class alone."""
    dieudonne = FCyclicCrystal(pi, slopes).is_dieudonne
    cycles = cycle_decomposition(pi)
    words = [tuple([slopes[i - 1] for i in cycle]) for cycle in cycles]
    gamma, delta, b, stab = class_tables(words, m_max, {} if pairs is None else pairs)
    ordinary = minimal = None
    if dieudonne:
        ordinary = gamma[1] == 0
        minimal = is_minimal_words(words)
    report = delta_report(delta, stab)
    bound = min(stab, m_max)
    # The verdicts in CHECKS order, None where a check does not apply: the
    # strict decrease and the ratio bound concern nonordinary Dieudonne
    # crystals only, the strict one only a circular one read past its
    # stabilization level.
    return ScanRecord(
        pi.size, cycles_text(cycles), slopes, m_max, gamma, delta, b, stab, dieudonne, ordinary, minimal,
        report.nonincreasing,
        report.strict_through_stabilization if ordinary is False and len(cycles) == 1 and m_max > stab else None,
        # gamma rises at every level up to the stabilization level and is constant from there
        all(step > 0 for step in delta[:bound]) and not any(delta[bound:]),
        _ratio_holds(gamma) if ordinary is False else None,
        minimal == (stab <= 1) if dieudonne else None,
    )


def _class_key(cycles: Sequence[tuple[int, ...]], slopes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # Relabeling the basis conjugates pi, which keeps exactly this data: each
    # cycle's slope word up to rotation (taken at its least rotation), as a
    # multiset over the cycles.  The rotations of a word are slices of the word
    # read twice around its cycle, so its least rotation is one min.
    words = []
    for cycle in cycles:
        length = len(cycle)
        doubled = tuple([slopes[i - 1] for i in cycle + cycle])
        words.append(min([doubled[k : k + length] for k in range(length)]))
    words.sort()
    return tuple(words)


def scan_table(
    family: str, r: int, m_max: int, slope_max: int = 1
) -> tuple[list[str], list[tuple[int, ...]], list[ScanRecord], list[int], Iterator[Iterator[int]]]:
    """A family as one class table (perms, slopes, classes, counts, rows): the
    cycle strings and the slope vectors in enumeration order, one whole
    scan_record per isomorphism class in order of first member (a verdict is
    None only where its check does not apply), counts[c], how many crystals
    class c holds, and rows, an iterator read once that yields one row per
    permutation in order: an iterator over the class indices of crystals
    (perms[p], slopes[s]) for each s, each looked up as it is read.

    A crystal's class is named by its slope word read along its cycles, taken
    stably sorted by length, in a memo keyed by (sorted cycle lengths, word)
    that lives for this call, as does the memo of pair tables that every
    scan_record of the call shares.  The memo of a cycle type is filled once,
    at its first permutation, so _class_key runs once per distinct key and
    scan_record once per class, in enumeration order; the counts come from the
    cycle types, and no per-crystal list is built."""
    permutations = _permutations(family, r)
    slopes = list(_slope_vectors(slope_bound(family, slope_max), r))
    perms: list[str] = []
    classes: list[ScanRecord] = []
    readers: list[tuple[itemgetter, dict]] = []  # per permutation, its word getter and its cycle type's memo
    pairs: dict = {}  # (u, v) -> crystal.pair_table(u, v)
    by_class: dict[tuple[tuple[int, ...], ...], int] = {}
    by_type: dict[tuple[int, ...], list] = {}  # sorted cycle lengths -> [{word: class index}, permutation count]
    for pi in permutations:
        cycles = cycle_decomposition(pi)
        perm = cycles_text(cycles)
        cycles.sort(key=len)
        # At r = 1 the getter has one index and returns the bare slope, which
        # names the word as well as a 1-tuple would.
        word_of = itemgetter(*[i - 1 for cycle in cycles for i in cycle])
        lengths = tuple(map(len, cycles))
        entry = by_type.get(lengths)
        if entry is None:
            # word_of permutes coordinates, so the words of this permutation's
            # crystals are every word of its type: no later permutation misses.
            entry = by_type[lengths] = [{}, 0]
            for vector in slopes:
                key = _class_key(cycles, vector)
                index = by_class.get(key)
                if index is None:
                    index = by_class[key] = len(classes)
                    classes.append(scan_record(pi, vector, m_max, pairs))
                entry[0][word_of(vector)] = index
        entry[1] += 1
        perms.append(perm)
        readers.append((word_of, entry[0]))
    counts = [0] * len(classes)
    for memo, members in by_type.values():
        for index in memo.values():
            counts[index] += members
    rows = (map(memo.__getitem__, map(word_of, slopes)) for word_of, memo in readers)
    return perms, slopes, classes, counts, rows


def summarize(records: Sequence[ScanRecord], counts: Sequence[int]) -> dict[str, int]:
    """Violation counts per property over a scan, plus the record total, where
    records[i] stands for counts[i] crystals."""
    summary = {"records": sum(counts)}
    for k, name in enumerate(CHECKS, len(ScanRecord._fields) - len(CHECKS)):
        summary[f"violations[{name}]"] = sum(n for record, n in zip(records, counts) if record[k] is False)
    return summary
