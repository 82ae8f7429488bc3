"""`fcrystal gamma` output built the way it was before pair orbits were stored
as columns: the reference pair walk, epsilon point by point, level_counts on
each orbit's census (the two-lap run census of reference_census.py), the sign
form from normalize, and json.dumps(indent=2).
Kept here as the differential reference for the gamma command.
"""

from __future__ import annotations

import json

import reference_orbits as reference
from fcrystal import FCyclicCrystal
from fcrystal.circseq import AllZero, circular_at, circular_level, normalize
from reference_census import level_counts, run_census
from fcrystal.permutation import cycle_string


def orbit_view(points, epsilon, census, m_max: int) -> dict:
    """One orbit as gamma shows it at level m_max: normalize and level_counts on every orbit."""
    norm = normalize(epsilon, m_max)
    return {
        "points": points,
        "epsilon": epsilon,
        "normalized": (
            {"kind": "all-zero", "length": norm.original_length}
            if isinstance(norm, AllZero)
            else {"kind": "signs", "entries": norm.entries}
        ),
        "census": {str(level): count for level, count in sorted(level_counts(census, m_max).items())},
        "level": circular_level(norm),
    }


def gamma_output(crystal: FCyclicCrystal, m_max: int, fmt: str) -> str:
    """The stdout of `fcrystal gamma` in format fmt, "json" or "text"."""
    e = crystal.slopes
    orbits = []
    for points in reference.pair_walk(crystal.pi):
        eps = tuple(e[i - 1] - e[j - 1] for i, j in points)
        orbits.append((points, eps, *run_census(eps)))
    gamma = [0]
    for n in range(1, m_max + 1):
        gamma.append(gamma[-1] + sum(level_counts(census, m_max).get(n, 0) for _, _, census, _ in orbits))
    delta = [gamma[n] - gamma[n - 1] for n in range(1, m_max + 1)]
    b = [sum(circular_at(level, n) * len(points) for points, _, _, level in orbits) for n in range(1, m_max + 1)]
    stabilization = max((hi for _, _, census, _ in orbits for _, hi in census), default=0)
    ordinary = (gamma[1] == 0) if crystal.is_dieudonne else None
    views = [orbit_view(points, eps, census, m_max) for points, eps, census, _ in orbits]

    if fmt == "json":
        payload = {
            "schema": "fcrystal/1",
            "command": "gamma",
            "r": crystal.r,
            "perm": cycle_string(crystal.pi),
            "slopes": crystal.slopes,
            "dieudonne": crystal.is_dieudonne,
            "m_max": m_max,
            "gamma": gamma,
            "delta": delta,
            "b": b,
            "stabilization": stabilization,
            "stabilization_is_isomorphism_number": crystal.is_dieudonne,
            "ordinary": ordinary,
            "orbits": views,
        }
        return json.dumps(payload, indent=2) + "\n"

    yesno = {None: "n/a", True: "yes", False: "no"}
    lines = [
        f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes=({','.join(map(str, e))})"
        f" dieudonne={yesno[crystal.is_dieudonne]} ordinary={yesno[ordinary]}",
        "gamma: " + " ".join(map(str, gamma)) + f"   (m = 0..{m_max})",
        "delta: " + " ".join(map(str, delta)) + f"   (m = 1..{m_max})",
        "b:     " + " ".join(map(str, b)) + f"   (m = 1..{m_max})",
        f"stabilization: {stabilization}"
        + ("" if crystal.is_dieudonne else " (level only; not an isomorphism number here)"),
    ]
    for k, ((points, eps, _, _), view) in enumerate(zip(orbits, views), start=1):
        census = ",".join(f"{level}:{count}" for level, count in view["census"].items())
        kind = " all-zero" if view["normalized"]["kind"] == "all-zero" else ""
        level = "none" if view["level"] is None else str(view["level"])
        lines.append(f"orbit {k}: len={len(points)} eps=({','.join(map(str, eps))}) level={level} census={{{census}}}{kind}")
    return "\n".join(lines) + "\n"
