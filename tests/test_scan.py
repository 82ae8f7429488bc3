"""Family scans: the class-first walk behind run_scan against one scan_record per crystal."""

from __future__ import annotations

import pytest

from fcrystal import scan
from fcrystal.permutation import cycle_decomposition
from fcrystal.scan import (
    CHECKS,
    enumerate_family,
    family_size,
    run_scan,
    scan_members,
    scan_record,
    summarize,
    summarize_members,
)

FAMILIES = (
    [("circular-dieudonne", r, 1) for r in range(1, 7)]
    + [("all-dieudonne", r, 1) for r in range(1, 6)]
    + [("all-fcrystal", r, 2) for r in range(1, 4)]
)

# Every family at r <= 5 (all-fcrystal at r <= 3), slope bounds up to 2.
SMALL_FAMILIES = (
    [("circular-dieudonne", r, 1) for r in range(1, 6)]
    + [("all-dieudonne", r, 1) for r in range(1, 6)]
    + [("circular-fcrystal", r, s) for r in range(1, 6) for s in range(3)]
    + [("all-fcrystal", r, s) for r in range(1, 4) for s in range(3)]
)


@pytest.mark.parametrize("family,r,slope_max", FAMILIES)
def test_run_scan_equals_one_record_per_crystal(family, r, slope_max):
    m_max = 5
    expected = [scan_record(pi, s, m_max, CHECKS) for pi, s in enumerate_family(family, r, slope_max)]
    assert run_scan(family, r, m_max, slope_max, CHECKS) == expected



@pytest.mark.parametrize("family,r,slope_max", FAMILIES + [("circular-fcrystal", r, 3) for r in range(1, 5)])
def test_family_size_counts_the_enumeration(family, r, slope_max):
    assert family_size(family, r, slope_max) == sum(1 for _ in enumerate_family(family, r, slope_max))


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_class_summary_equals_the_per_crystal_summary(family, r, slope_max):
    members = scan_members(family, r, 5, slope_max)
    assert summarize_members(members) == summarize(run_scan(family, r, 5, slope_max))


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_class_key_runs_once_per_cycle_word(monkeypatch, family, r, slope_max):
    calls = []
    real = scan._class_key

    def counting(cycles, slopes):
        calls.append(slopes)
        return real(cycles, slopes)

    monkeypatch.setattr(scan, "_class_key", counting)
    members = scan_members(family, r, 5, slope_max)
    words = set()
    for pi, slopes in enumerate_family(family, r, slope_max):
        cycles = cycle_decomposition(pi)
        words.add((tuple(map(len, cycles)), tuple(slopes[i - 1] for cycle in cycles for i in cycle)))
    assert len(calls) == len(words)
    assert len(members) == family_size(family, r, slope_max)
    if r > 2 and slope_max:
        assert len(calls) < len(members)


def test_members_share_one_record_per_class():
    members = scan_members("all-dieudonne", 4, 5)
    records = {id(record): record for _, _, record in members}
    classes = {scan._class_key(cycle_decomposition(pi), slopes) for pi, slopes in enumerate_family("all-dieudonne", 4)}
    assert len(records) == len(classes)
    assert [(perm, slopes) for perm, slopes, _ in members] == [
        (rec.perm, rec.slopes) for rec in run_scan("all-dieudonne", 4, 5)
    ]
