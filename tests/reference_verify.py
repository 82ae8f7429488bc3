"""The per-crystal verification as it was before fcrystal.crystal.verify_sweep:
verify_formula_vs_oracle checks every orbit of one crystal at every level, and
verify_sweep calls it on every crystal, its mismatches expanded in order.  Kept
here as the differential reference for fcrystal.crystal.verify_sweep, with its
signature and return value.
"""

from __future__ import annotations

from dataclasses import dataclass

from fcrystal.crystal import FCyclicCrystal, VerifyCheck, _check, orbit_data


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def mismatches(self) -> tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.match)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_formula_vs_oracle(crystal: FCyclicCrystal, m_max: int) -> VerifyReport:
    """Rebuild every orbit digraph at every level up to m_max and compare counts.

    The closed-form counts, read from the orbit_data records gamma_table uses,
    and the literal component census must agree exactly; any disagreement is
    returned rather than raised so callers can report it.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    checks = [
        _check(index, data.epsilon, m, data.census, data.level)[0]
        for index, data in enumerate(orbit_data(crystal))
        for m in range(1, m_max + 1)
    ]
    return VerifyReport(tuple(checks))


def verify_sweep(pairs, m_max: int):
    """(crystals, checks, mismatches), each mismatch as (pi, slopes, check)."""
    mismatches = []
    crystals = 0
    checks = 0
    for pi, slopes in pairs:
        report = verify_formula_vs_oracle(FCyclicCrystal(pi, slopes), m_max)
        crystals += 1
        checks += len(report.checks)
        mismatches.extend((pi, slopes, c) for c in report.mismatches)
    return crystals, checks, mismatches
