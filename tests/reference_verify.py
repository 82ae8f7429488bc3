"""The crystal sweep of `verify` as it was before fcrystal.crystal.verify_sweep:
verify_formula_vs_oracle on every crystal, its mismatches expanded in order.
Kept here as the differential reference for verify_sweep, with its signature
and return value.
"""

from __future__ import annotations

from fcrystal.crystal import DEFAULT_VERTEX_BUDGET, FCyclicCrystal, verify_formula_vs_oracle


def verify_sweep(pairs, m_max: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET):
    """(crystals, checks, mismatches), each mismatch as (pi, slopes, check)."""
    mismatches = []
    crystals = 0
    checks = 0
    for pi, slopes in pairs:
        report = verify_formula_vs_oracle(FCyclicCrystal(pi, slopes), m_max, vertex_budget)
        crystals += 1
        checks += len(report.checks)
        mismatches.extend((pi, slopes, c) for c in report.mismatches)
    return crystals, checks, mismatches
