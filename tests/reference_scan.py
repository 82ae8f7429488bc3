"""The scan class table as it was before one memo fill per cycle type: every
crystal's slope word looked up in its cycle type's memo, one int class index
per crystal kept in rows.  Kept here as the differential reference for
fcrystal.scan.scan_table, with its return value (perms, slopes, classes, rows),
beside records, the per-crystal definition: one scan_record per crystal.

scan_record, is_minimal and _class_key are the record and class key as they
were before scan records were built from one cycle decomposition: a crystal
object, a second decomposition inside is_minimal, a verdict dict and a key
of least rotations formed one by one.  They are the references for
fcrystal.scan.scan_record, fcrystal.crystal.is_minimal and
fcrystal.scan._class_key; scan_record still takes the checks to report, as
scan_record did before the cli took over --check, so it is also the
reference for the class records the cli blanks.  ratio_holds is the ratio bound as it was before one
pass over adjacent levels: every pair of levels compared, the reference for
fcrystal.scan._ratio_holds.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

import reference_orbits
from fcrystal import scan
from fcrystal.crystal import FCyclicCrystal, class_tables, delta_report
from fcrystal.permutation import Permutation, cycle_decomposition, cycle_string, cycles_text


def scan_table(family, r, m_max, slope_max=1):
    """(perms, slopes, classes, rows): rows[p][s] is the index in classes of
    crystal (perms[p], slopes[s]); _class_key and scan_record are called
    through the scan module, as scan.scan_table calls them."""
    permutations = scan._permutations(family, r)
    slopes = list(scan._slope_vectors(scan.slope_bound(family, slope_max), r))
    perms = []
    classes = []
    rows = []
    by_class = {}
    by_word = {}  # cycle lengths -> {word: class index}
    for pi in permutations:
        cycles = cycle_decomposition(pi)
        word_of = itemgetter(*[i - 1 for cycle in cycles for i in cycle])
        memo = by_word.setdefault(tuple(map(len, cycles)), {})
        row = []
        for vector in slopes:
            word = word_of(vector)
            index = memo.get(word)
            if index is None:
                key = scan._class_key(cycles, vector)
                index = by_class.get(key)
                if index is None:
                    index = by_class[key] = len(classes)
                    classes.append(scan.scan_record(pi, vector, m_max))
                memo[word] = index
            row.append(index)
        perms.append(cycle_string(pi))
        rows.append(row)
    return perms, slopes, classes, rows


def records(family, r, m_max, slope_max=1):
    """One scan_record per crystal of the family, in enumeration order: the
    definition scan.scan_table's classes, counts and rows must expand to.
    scan_record is called through the scan module, so a patched one applies."""
    return [scan.scan_record(pi, slopes, m_max) for pi, slopes in scan.enumerate_family(family, r, slope_max)]


def is_minimal(crystal: FCyclicCrystal) -> bool:
    """Minimality test for Dieudonne modules, cycle by cycle: every length-q
    slope sum starting anywhere in a cycle C lands in {floor(q*lam),
    floor(q*lam) + 1}, lam the average slope of C, for q up to len(C)."""
    if not crystal.is_dieudonne:
        raise ValueError("minimality is defined here only for 0/1 slopes")
    e = crystal.slopes
    for cycle in reference_orbits.cycle_decomposition(crystal.pi):
        length = len(cycle)
        total = sum(e[i - 1] for i in cycle)
        for start in range(length):
            acc = 0
            for q in range(1, length + 1):
                acc += e[cycle[(start + q - 1) % length] - 1]
                base = (q * total) // length
                if acc != base and acc != base + 1:
                    return False
    return True


# Each property check's name and the ScanRecord field that holds its verdict.
CHECK_FIELDS = {
    "nonincreasing": "nonincreasing",
    "strict": "strict",
    "increasing-to-stab": "increasing_to_stab",
    "ratio": "ratio",
    "minimal": "minimal_matches_stab",
}


def ratio_holds(gamma: Sequence[int]) -> bool:
    """gamma(i) * j < gamma(j) * i for all i > j >= 1 with gamma(j) > 0."""
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
    checks: Sequence[str] = scan.CHECKS,
    pairs: Optional[dict] = None,
) -> scan.ScanRecord:
    """One crystal's tables and the requested property verdicts, through a
    crystal object and a dict of verdicts by check name."""
    crystal = FCyclicCrystal(pi, slopes)
    cycles = reference_orbits.cycle_decomposition(pi)
    words = [tuple([slopes[i - 1] for i in cycle]) for cycle in cycles]
    gamma, delta, b, stab = class_tables(words, m_max, {} if pairs is None else pairs)
    dieudonne = crystal.is_dieudonne
    ordinary = (gamma[1] == 0) if dieudonne else None
    minimal = is_minimal(crystal) if dieudonne else None

    verdict: dict[str, Optional[bool]] = dict.fromkeys(scan.CHECKS)  # None: not applicable or not requested
    if "nonincreasing" in checks or "strict" in checks:
        report = delta_report(delta, stab)
        if "nonincreasing" in checks:
            verdict["nonincreasing"] = report.nonincreasing
        # The strict decrease only holds for circular nonordinary Dieudonne
        # crystals; elsewhere it is reported as not applicable.
        if "strict" in checks and dieudonne and len(cycles) == 1 and ordinary is False:
            verdict["strict"] = report.strict_through_stabilization if m_max >= stab + 1 else None
    if "increasing-to-stab" in checks:
        bound = min(stab, m_max)
        verdict["increasing-to-stab"] = all(gamma[n] > gamma[n - 1] for n in range(1, bound + 1)) and all(
            gamma[n] == gamma[bound] for n in range(bound, m_max + 1)
        )
    if "ratio" in checks and dieudonne and ordinary is False:
        verdict["ratio"] = ratio_holds(gamma)
    if "minimal" in checks and dieudonne:
        verdict["minimal"] = minimal == (stab <= 1)

    return scan.ScanRecord(
        r=pi.size,
        perm=cycles_text(cycles),
        slopes=slopes,
        m_max=m_max,
        gamma=gamma,
        delta=delta,
        b=b,
        stabilization=stab,
        dieudonne=dieudonne,
        ordinary=ordinary,
        minimal=minimal,
        **{CHECK_FIELDS[name]: value for name, value in verdict.items()},
    )


def _class_key(cycles: Sequence[tuple[int, ...]], slopes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Each cycle's slope word at its least rotation, the words sorted."""
    words = []
    for cycle in cycles:
        word = tuple(slopes[i - 1] for i in cycle)
        words.append(min(word[k:] + word[:k] for k in range(len(word))))
    return tuple(sorted(words))
