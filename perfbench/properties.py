"""Input properties of each workload, computed outside any timed phase.

    python3 perfbench/properties.py

Writes perfbench/properties.json.  For each workload it counts, over the
first PASSES passes of seed SEED: crystals, distinct isomorphism classes (sorted
rotation-minimal cycle slope words) and the share of crystals that repeat an
earlier class, total pair-orbit length, total sign-word length, and the
digraph vertices the oracle builds.  Optimisations that memoize by class, cut
census cost or speed up the oracle cite these shares and sizes.

Sign words are counted as the program builds them: unclamped
(normalize_full) for the gamma tables of scans and queries, clamped at each
level (normalize) for verify's oracle comparisons.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from check import arg, parse_perm, pb_predicted_failure  # noqa: E402
from fcrystal import (  # noqa: E402
    AllZero,
    FCyclicCrystal,
    Permutation,
    normalize,
    normalize_full,
    orbit_epsilon,
    product_orbits,
)
from fcrystal.scan import enumerate_family  # noqa: E402
from spans import class_key  # noqa: E402

SEED = 1
PASSES = 6


class Tally:
    def __init__(self) -> None:
        self.crystals = 0
        self.classes: set = set()
        self.repeats = 0
        self.orbit_length = 0
        self.sign_word_length = 0
        self.digraph_vertices = 0

    def crystal(self, images: tuple[int, ...], slopes: tuple[int, ...]) -> None:
        key = class_key(images, slopes)
        self.repeats += key in self.classes
        self.classes.add(key)
        self.crystals += 1
        self.orbit_length += len(images) ** 2

    def summary(self) -> dict:
        return {
            "crystals": self.crystals,
            "classes": len(self.classes),
            "class_repeat_share": self.repeats / self.crystals if self.crystals else 0.0,
            "orbit_length": self.orbit_length,
            "sign_word_length": self.sign_word_length,
            "digraph_vertices": self.digraph_vertices,
        }


def _full_signs(images, slopes) -> int:
    crystal = FCyclicCrystal(Permutation(tuple(images)), tuple(slopes))
    total = 0
    for orbit in product_orbits(crystal.pi):
        norm = normalize_full(orbit_epsilon(crystal, orbit))
        total += len(getattr(norm, "entries", ()))
    return total


def scan_properties(tally: Tally, op: workloads.Op) -> None:
    family = arg(op.argv, "--family")
    slope_max = int(arg(op.argv, "--slope-max") or 1)
    for pi, slopes in enumerate_family(family, int(arg(op.argv, "--r")), slope_max):
        tally.crystal(pi.images, slopes)
        tally.sign_word_length += _full_signs(pi.images, slopes)


def _oracle_sizes(tally: Tally, seq: tuple[int, ...], levels) -> None:
    for m in levels:
        norm = normalize(seq, m)
        tally.sign_word_length += 0 if isinstance(norm, AllZero) else len(norm.entries)
        tally.digraph_vertices += m * len(seq)


def verify_properties(tally: Tally, op: workloads.Op) -> None:
    r_max, m_max = int(arg(op.argv, "--r-max")), int(arg(op.argv, "--m-max"))
    slope_max = int(arg(op.argv, "--slope-max") or 1)
    for r in range(1, r_max + 1):
        for images in itertools.permutations(range(1, r + 1)):
            for slopes in itertools.product(range(slope_max + 1), repeat=r):
                tally.crystal(images, slopes)
                crystal = FCyclicCrystal(Permutation(images), slopes)
                for orbit in product_orbits(crystal.pi):
                    _oracle_sizes(tally, orbit_epsilon(crystal, orbit), range(1, m_max + 1))
    if op.kind == "random":
        # The same draws as the verify command's random mode.
        rng = random.Random(op.meta["seed"])
        max_s, max_entry = int(arg(op.argv, "--max-s")), int(arg(op.argv, "--max-entry"))
        for _ in range(int(arg(op.argv, "--random"))):
            s = rng.randint(1, max_s)
            seq = tuple(rng.randint(-max_entry, max_entry) for _ in range(s))
            _oracle_sizes(tally, seq, [rng.randint(1, m_max)])


def query_properties(tally: Tally, op: workloads.Op) -> None:
    r = int(arg(op.argv, "--r"))
    images = parse_perm(arg(op.argv, "--perm"), r)
    slopes = tuple(int(v) for v in arg(op.argv, "--slopes").split(","))
    tally.crystal(images, slopes)
    tally.sign_word_length += _full_signs(images, slopes)


def main() -> int:
    measure = {"scan": scan_properties, "verify": verify_properties, "query": query_properties}
    out: dict = {"seed": SEED, "passes": PASSES, "workloads": {}}
    for workload in workloads.WORKLOADS:
        plan = workloads.Plan(workload, SEED)
        first = Tally()
        run = Tally()
        for k in range(PASSES):
            for op in plan.pass_ops(k):
                measure[workload](run, op)
                if k == 0:
                    measure[workload](first, op)
        entry = {"ops_per_pass": len(plan.pass_ops(0)), "pass": first.summary(),
                 f"first_{PASSES}_passes": run.summary()}
        if workload == "query":
            ops0 = plan.pass_ops(0)
            entry["expected_failures_per_pass"] = sum(pb_predicted_failure(op.argv) for op in ops0)
            entry["tiers_per_pass"] = dict(workloads.QUERY_TIERS)
        out["workloads"][workload] = entry
        print(workload, json.dumps(entry))
    (HERE / "properties.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
