"""How the automorphism dimension grows level by level.

For every crystal the increments of gamma never increase.  For circular 0/1
crystals that are not ordinary the increments fall strictly until gamma
freezes.  General slopes can stall at a constant increment instead: the
rank-two family with slopes (0, e) climbs by exactly 1 for e levels, the
simplest witness that strictness needs the 0/1 hypothesis.
"""

from __future__ import annotations

import itertools

from fcrystal import FCyclicCrystal, gamma_table
from fcrystal.scan import cycles_of_length_r


def main() -> None:
    print("circular 0/1 crystals of rank 5 (nonordinary): strict decrease everywhere")
    count = 0
    for pi in cycles_of_length_r(5):
        for slopes in itertools.product((0, 1), repeat=5):
            if len(set(slopes)) == 1:
                continue  # ordinary or slope-free: gamma is identically zero
            crystal = FCyclicCrystal(pi, slopes)
            reportcard = gamma_table(crystal, 4).monotonicity()
            assert reportcard.nonincreasing and reportcard.strict_through_stabilization
            count += 1
    print(f"  checked {count} crystals, no violations")
    print()

    print("rank-two family with slopes (0, e): constant increments, still nonincreasing")
    for e in (2, 4, 6):
        crystal = FCyclicCrystal.from_text(2, "(1 2)", (0, e))
        table = gamma_table(crystal, e + 2)
        reportcard = table.monotonicity()
        print(f"  e={e}: gamma={table.gamma} delta={table.delta} "
              f"stabilization={table.stabilization} strict={reportcard.strict_through_stabilization}")


if __name__ == "__main__":
    main()
