"""The pair-orbit walk as it was before orbits were built from cycle pairs:
visit every pair (i, j) in lexicographic order and follow the unseen ones
through a set.  Kept here as the differential reference for
fcrystal.permutation.product_orbits.
"""

from __future__ import annotations

from fcrystal.permutation import Orbit, Permutation


def product_orbits(p: Permutation) -> list[Orbit]:
    """All orbits of the doubled action on pairs, sorted by smallest point."""
    seen: set[tuple[int, int]] = set()
    orbits: list[Orbit] = []
    for i in range(1, p.size + 1):
        for j in range(1, p.size + 1):
            if (i, j) in seen:
                continue
            point = (i, j)
            points: list[tuple[int, int]] = []
            while point not in seen:
                seen.add(point)
                points.append(point)
                point = (p(point[0]), p(point[1]))
            orbits.append(Orbit(tuple(points)))
    return orbits
