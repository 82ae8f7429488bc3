"""The run census as two full laps over the runs, keeping the segments that
start in the first: the pass fcrystal.circseq.run_census replaced by one lap
from the highest point of the walk.  Kept here as its differential reference.
The two list the same segments in different orders, and nothing reads that
order, so they are compared through canonical: sorted ranges and the level.

Also the census read as a {level: count} dict, as it was before
fcrystal.circseq.census_levels read it as a list by one difference array:
level_counts expands each range level by level, and segment_census reads a
sign word's census (by the shipped fcrystal.circseq.run_census) that way.

And linear_at as one generator of min/max calls, the sum
fcrystal.circseq.linear_at replaced by a plain loop.
"""

from __future__ import annotations

from typing import Optional

from fcrystal import circseq
from fcrystal.circseq import Census, CircularSeq, NormalizedSeq, PlusMinus


def run_census(seq: CircularSeq) -> tuple[Census, Optional[int]]:
    """(census, level): the level ranges of the balanced negative segments in
    the order the stack pass closes them, and the circular level (None when
    the entries do not balance)."""
    if len(seq) == 0:
        raise ValueError("a circular sequence must have at least one entry")
    runs = [e for e in seq if e]
    s = len(runs)
    census: list[tuple[int, int]] = []
    blocks: list[list[int]] = []  # open negative runs [run index, starts left, inner level], innermost last
    for index, e in enumerate(runs + runs):
        if e < 0:
            blocks.append([index, -e, 0])
            continue
        while blocks:
            block = blocks[-1]
            run, left, inner = block
            if e < left:
                if run < s:
                    census.append((inner + 1, inner + e))
                block[1] = left - e
                block[2] = inner + e
                break
            blocks.pop()
            hi = inner + left
            if run < s:
                census.append((inner + 1, hi))
            if blocks and blocks[-1][2] < hi:
                blocks[-1][2] = hi
            e -= left
            if not e:
                break
    return tuple(census), spread(runs)


def canonical(result: tuple[Census, Optional[int]]) -> tuple[list[tuple[int, int]], Optional[int]]:
    """A run census result with its ranges sorted: equal for two results that
    list the same multiset of segments and the same circular level."""
    census, level = result
    return sorted(census), level


def spread(seq: CircularSeq) -> Optional[int]:
    """Max minus min of the running sums (from 0) when the entries sum to zero, else None."""
    total = high = low = 0
    for e in seq:
        total += e
        if total > high:
            high = total
        elif total < low:
            low = total
    return high - low if total == 0 else None


def linear_at(census: Census, m: int) -> int:
    """Segments of the census at levels up to m."""
    return sum(max(0, min(hi, m) - lo + 1) for lo, hi in census)


def level_counts(census: Census, m: int) -> dict[int, int]:
    """The census read up to level m: {level: count}."""
    counts: dict[int, int] = {}
    for lo, hi in census:
        for level in range(lo, min(hi, m) + 1):
            counts[level] = counts.get(level, 0) + 1
    return counts


def segment_census(norm: NormalizedSeq, m: int) -> dict[int, int]:
    """Count balanced negative segments of each level up to m: {level: count}.

    The run census of the sign word (see fcrystal.circseq.run_census), read up
    to level m.
    """
    if m < 1:
        raise ValueError("level must be at least 1")
    if not isinstance(norm, PlusMinus):
        raise ValueError("the census is defined for sign sequences, not the all-zero form")
    return level_counts(circseq.run_census(norm.entries)[0], m)
