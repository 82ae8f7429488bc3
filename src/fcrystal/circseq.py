"""Circular integer sequences and their closed-form component counts.

A circular sequence of length s is a tuple read cyclically (position s wraps to
position 1).  The level-m digraph of such a sequence decomposes into free linear,
zero linear, and circular components; this module computes the free linear count
and the circular count combinatorially, without building the digraph:

* free linear components are counted by a census of balanced negative segments,
  matched like brackets in one stack pass over the runs of the sequence, which
  yields the segments as level ranges, exact at every level at once;
* circular components exist only when the signed entries balance, and then number
  max(0, m - level) where the level is the spread of the running sums.

Both counts are invariant under merging adjacent entries of the same strict sign
and under dropping zero entries, which is what the two reduction helpers do; the
census reads each entry as a run of |e| signs, so its cost follows the number of
entries, not their size.  The sign normal forms (normalize, normalize_full) spell
those runs out sign by sign, for display and for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Union

CircularSeq = tuple[int, ...]
Census = tuple[tuple[int, int], ...]  # (lo, hi): one segment at each level lo..hi


@dataclass(frozen=True)
class AllZero:
    """Normal form of a circular sequence whose entries are all zero."""

    original_length: int


@dataclass(frozen=True)
class PlusMinus:
    """Normal form with every entry +1 or -1."""

    entries: tuple[int, ...]


NormalizedSeq = Union[AllZero, PlusMinus]


def _check_seq(seq: CircularSeq) -> None:
    if len(seq) == 0:
        raise ValueError("a circular sequence must have at least one entry")


def _check_level(m: int) -> None:
    if m < 1:
        raise ValueError("level must be at least 1")


def first_reduction_step(seq: CircularSeq, t: int) -> CircularSeq:
    """Merge the cyclically adjacent entries at positions t, t+1 (1-based) into their sum.

    Both entries must have the same strict sign; such a merge changes the
    sequence but not the component counts of any of its level digraphs.
    """
    _check_seq(seq)
    s = len(seq)
    if s < 2:
        raise ValueError("need at least two entries to merge")
    if not 1 <= t <= s:
        raise ValueError(f"position {t} is outside 1..{s}")
    a = seq[t - 1]
    b = seq[t % s]
    if a * b <= 0:
        raise ValueError(f"entries {a} and {b} at positions {t}, {t % s + 1} do not share a strict sign")
    if t < s:
        return seq[: t - 1] + (a + b,) + seq[t + 1 :]
    # Wrapping merge of the last and first entries.
    return (a + b,) + seq[1 : s - 1]


def second_reduction(seq: CircularSeq) -> CircularSeq:
    """Drop zero entries.  An all-zero sequence has no zero-free form and is rejected."""
    _check_seq(seq)
    if all(e == 0 for e in seq):
        raise ValueError("all-zero sequence cannot be reduced; it is its own normal form")
    return tuple(e for e in seq if e != 0)


def _expand_signs(values: CircularSeq) -> tuple[int, ...]:
    out: list[int] = []
    for e in values:
        if e > 0:
            out.extend([1] * e)
        elif e < 0:
            out.extend([-1] * (-e))
    return tuple(out)


def normalize(seq: CircularSeq, m: int) -> NormalizedSeq:
    """Sign normal form used by the level-m counts.

    Entries are clamped to magnitude m + 1, zeroes dropped, and every remaining
    entry e expanded into |e| copies of its sign.  The clamp is harmless at level
    m: a run of m + 1 equal signs already blocks every segment and forces every
    circular level past m, exactly as a longer run would.
    """
    _check_seq(seq)
    _check_level(m)
    if all(e == 0 for e in seq):
        return AllZero(len(seq))
    bound = m + 1
    return PlusMinus(_expand_signs(tuple(max(-bound, min(bound, e)) for e in seq)))


def normalize_full(seq: CircularSeq) -> NormalizedSeq:
    """Sign normal form without clamping; exact at every level at once.  It is
    normalize at a level whose clamp exceeds every entry."""
    _check_seq(seq)
    return normalize(seq, max(abs(e) for e in seq) or 1)


def run_census(seq: CircularSeq) -> tuple[Census, Optional[int]]:
    """Balanced negative segments as level ranges, and the circular level.

    Entry e stands for a run of |e| signs; zeros are skipped.  A segment starts
    at a -1 sign, ends at a +1 sign (possibly past the seam), sums to zero and
    keeps every proper partial sum negative; its level is minus the smallest
    partial sum.  It is a matched bracket pair, one level deeper than the
    deepest pair inside it.  A negative run opens a block of nested starts, and
    a positive run closes them from the innermost block out: closing k starts
    of a block whose innermost start already encloses level `inner` makes one
    segment at each level inner+1..inner+k.  Two laps close every segment that
    starts in the first lap (a walk still open after one lap is below zero and
    sinks further each lap), and only those are kept.  The level is that of
    circular_level.
    """
    _check_seq(seq)
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
    return tuple(census), _spread(runs)


def linear_at(census: Census, m: int) -> int:
    """Segments of the census at levels up to m: the free linear count at level m."""
    return sum(max(0, min(hi, m) - lo + 1) for lo, hi in census)


def circular_at(level: Optional[int], m: int) -> int:
    """Circular count at level m of a sequence with this circular level."""
    return 0 if level is None else max(0, m - level)


def census_levels(census: Iterable[tuple[int, int]], m: int) -> list[int]:
    """Segments at each level 0..m of a census, or of several chained (index 0
    is always 0): a difference array over the ranges, so the cost is one step
    per range plus m, whatever the range lengths."""
    diff = [0] * (m + 1)
    for lo, hi in census:
        if lo <= m:
            diff[lo] += 1
            if hi < m:
                diff[hi + 1] -= 1
    return list(accumulate(diff))


def level_counts(census: Census, m: int) -> dict[int, int]:
    """The census read up to level m: {level: count}."""
    counts: dict[int, int] = {}
    for lo, hi in census:
        for level in range(lo, min(hi, m) + 1):
            counts[level] = counts.get(level, 0) + 1
    return counts


def _spread(seq: CircularSeq) -> Optional[int]:
    total = 0
    high = 0
    low = 0
    for e in seq:
        total += e
        if total > high:
            high = total
        elif total < low:
            low = total
    return high - low if total == 0 else None


def segment_census(norm: NormalizedSeq, m: int) -> dict[int, int]:
    """Count balanced negative segments of each level up to m: {level: count}.

    The run census of the sign word (see run_census), read up to level m.
    """
    _check_level(m)
    if not isinstance(norm, PlusMinus):
        raise ValueError("the census is defined for sign sequences, not the all-zero form")
    return level_counts(run_census(norm.entries)[0], m)


def circular_level(norm: NormalizedSeq) -> Optional[int]:
    """Spread of the running sums: max partial sum minus min partial sum.

    Defined only when the signed entries balance (None otherwise); the all-zero
    form has level 0.  Equivalently this is the largest absolute sum over any
    circular interval of the sequence.
    """
    if isinstance(norm, AllZero):
        return 0
    return _spread(norm.entries)


def circular_count(seq: CircularSeq, m: int) -> int:
    """Number of circular components of the level-m digraph, in closed form."""
    level = run_census(seq)[1]
    _check_level(m)
    return circular_at(level, m)


def linear_count(seq: CircularSeq, m: int) -> int:
    """Number of free linear components of the level-m digraph, in closed form."""
    census = run_census(seq)[0]
    _check_level(m)
    return linear_at(census, m)
