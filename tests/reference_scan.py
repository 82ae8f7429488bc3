"""The scan class table as it was before one memo fill per cycle type: every
crystal's slope word looked up in its cycle type's memo, one int class index
per crystal kept in rows.  Kept here as the differential reference for
fcrystal.scan.scan_table, with its return value (perms, slopes, classes, rows),
beside records, the per-crystal definition: one scan_record per crystal.
"""

from __future__ import annotations

from operator import itemgetter

from fcrystal import scan
from fcrystal.permutation import cycle_decomposition, cycle_string


def scan_table(family, r, m_max, slope_max=1, checks=scan.CHECKS):
    """(perms, slopes, classes, rows): rows[p][s] is the index in classes of
    crystal (perms[p], slopes[s]); _class_key and scan_record are called
    through the scan module, as scan.scan_table calls them."""
    checks = tuple(checks)
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
                    classes.append(scan.scan_record(pi, vector, m_max, checks))
                memo[word] = index
            row.append(index)
        perms.append(cycle_string(pi))
        rows.append(row)
    return perms, slopes, classes, rows


def records(family, r, m_max, slope_max=1, checks=scan.CHECKS):
    """One scan_record per crystal of the family, in enumeration order: the
    definition scan.scan_table's classes, counts and rows must expand to.
    scan_record is called through the scan module, so a patched one applies."""
    return [scan.scan_record(pi, slopes, m_max, checks) for pi, slopes in scan.enumerate_family(family, r, slope_max)]
