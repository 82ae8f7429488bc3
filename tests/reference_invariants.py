"""gamma, endo_exponent and newton_slopes as they were computed before they
read the cycle-word pair core: gamma and endo_exponent walk the labelled pair
orbits (crystal.orbit_data, one record per orbit of product_orbits), and
newton_slopes reads the slopes through each cycle's labels.
Kept here as the differential reference for fcrystal.crystal.
"""

from __future__ import annotations

from fractions import Fraction

from fcrystal import FCyclicCrystal, orbit_data
from fcrystal.circseq import circular_at, linear_at
from fcrystal.permutation import cycle_decomposition


def gamma(crystal: FCyclicCrystal, m: int) -> int:
    """Dimension of the level-m automorphism group scheme (gamma(0) = 0)."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    if m == 0:
        return 0
    return sum(linear_at(data.census, m) for data in orbit_data(crystal))


def endo_exponent(crystal: FCyclicCrystal, m: int) -> int:
    """Exponent b with p^b connected components in the level-m endomorphism algebra."""
    if m < 1:
        raise ValueError("level must be at least 1")
    return sum(circular_at(data.level, m) * len(data.orbit) for data in orbit_data(crystal))


def newton_slopes(crystal: FCyclicCrystal) -> tuple[Fraction, ...]:
    """Each pi-cycle's average slope, repeated by its length, sorted."""
    slopes: list[Fraction] = []
    for cycle in cycle_decomposition(crystal.pi):
        avg = Fraction(sum(crystal.slopes[i - 1] for i in cycle), len(cycle))
        slopes.extend([avg] * len(cycle))
    return tuple(sorted(slopes))
