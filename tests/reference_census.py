"""The run census as it was before its second lap stopped early: two full laps
over the runs, keeping the segments that start in the first.  Kept here as the
differential reference for fcrystal.circseq.run_census.
"""

from __future__ import annotations

from typing import Optional

from fcrystal.circseq import Census, CircularSeq


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
