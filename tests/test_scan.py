"""Family scans: the per-class memo of run_scan against one scan_record per crystal."""

from __future__ import annotations

import pytest

from fcrystal.scan import CHECKS, enumerate_family, family_size, run_scan, scan_record

FAMILIES = (
    [("circular-dieudonne", r, 1) for r in range(1, 7)]
    + [("all-dieudonne", r, 1) for r in range(1, 6)]
    + [("all-fcrystal", r, 2) for r in range(1, 4)]
)


@pytest.mark.parametrize("family,r,slope_max", FAMILIES)
def test_run_scan_equals_one_record_per_crystal(family, r, slope_max):
    m_max = 5
    expected = [scan_record(pi, s, m_max, CHECKS) for pi, s in enumerate_family(family, r, slope_max)]
    assert run_scan(family, r, m_max, slope_max, CHECKS) == expected



@pytest.mark.parametrize("family,r,slope_max", FAMILIES + [("circular-fcrystal", r, 3) for r in range(1, 5)])
def test_family_size_counts_the_enumeration(family, r, slope_max):
    assert family_size(family, r, slope_max) == sum(1 for _ in enumerate_family(family, r, slope_max))
