"""The pair-orbit walk as it was before orbits were built from cycle pairs:
visit every pair (i, j) in lexicographic order and follow the unseen ones
through a set.  Kept here as the differential reference for
fcrystal.permutation.product_orbits, which stores each orbit as two columns;
the walk lists points as pairs, and product_orbits splits them only at the end.
Beside it, the cycle walk as it was before cycle_decomposition indexed the
image tuple: one Permutation call per point; and the slope differences along
one orbit as they were read before fcrystal.crystal._orbit_sequences gathered
all orbits of a permutation at once: one getter pair per orbit.
"""

from __future__ import annotations

from operator import itemgetter, sub

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


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its minimum, sorted by that minimum. Fixed points included."""
    seen = [False] * (p.size + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, p.size + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = p(start)
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = p(j)
        cycles.append(tuple(cycle))
    return cycles


def epsilon(e: tuple[int, ...], orbit: Orbit) -> tuple[int, ...]:
    """orbit_epsilon from the slopes indexed from 1 (e[0] is a pad): both columns
    gathered by itemgetter and subtracted by map, with no Python-level loop."""
    if len(orbit) == 1:  # a one-index itemgetter returns the item, not a tuple
        return (e[orbit.first[0]] - e[orbit.second[0]],)
    return tuple(map(sub, itemgetter(*orbit.first)(e), itemgetter(*orbit.second)(e)))
