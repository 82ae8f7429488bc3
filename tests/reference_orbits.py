"""The pair-orbit walk as it was before orbits were built from cycle pairs:
visit every pair (i, j) in lexicographic order and follow the unseen ones
through a set.  Kept here as the differential reference for
fcrystal.permutation.product_orbits, which stores each orbit as two columns;
the walk lists points as pairs, and product_orbits splits them only at the end.
"""

from __future__ import annotations

from fcrystal.permutation import Orbit, Permutation


def pair_walk(p: Permutation) -> list[tuple[tuple[int, int], ...]]:
    """The points of every orbit of the doubled action on pairs, sorted by smallest point."""
    seen: set[tuple[int, int]] = set()
    orbits: list[tuple[tuple[int, int], ...]] = []
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
            orbits.append(tuple(points))
    return orbits


def product_orbits(p: Permutation) -> list[Orbit]:
    """All orbits of the doubled action on pairs, sorted by smallest point."""
    return [Orbit(*zip(*points)) for points in pair_walk(p)]
