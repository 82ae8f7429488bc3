"""Circular integer sequences and their closed-form component counts.

A circular sequence of length s is a tuple read cyclically (position s wraps to
position 1).  The level-m digraph of such a sequence decomposes into free linear,
zero linear, and circular components; this module computes the free linear count
and the circular count combinatorially, without building the digraph:

* free linear components are counted by a census of balanced negative segments,
  matched like brackets in one linear pass, one per segment of each level up to m;
* circular components exist only when the signed entries balance, and then number
  max(0, m - level) where the level is the spread of the running sums.

Both counts are invariant under merging adjacent entries of the same strict sign
and under dropping zero entries, which is what the two reduction helpers do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

CircularSeq = tuple[int, ...]


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
    if m < 1:
        raise ValueError("level must be at least 1")
    if all(e == 0 for e in seq):
        return AllZero(len(seq))
    bound = m + 1
    return PlusMinus(_expand_signs(tuple(max(-bound, min(bound, e)) for e in seq)))


def normalize_full(seq: CircularSeq) -> NormalizedSeq:
    """Sign normal form without clamping; exact at every level at once."""
    _check_seq(seq)
    if all(e == 0 for e in seq):
        return AllZero(len(seq))
    return PlusMinus(_expand_signs(seq))


def segment_census(norm: NormalizedSeq, m: int) -> dict[int, int]:
    """Count balanced negative segments of each level up to m: {level: count}.

    A segment starts at a -1 entry, ends at a +1 entry (possibly wrapping past
    the seam), sums to zero, and keeps every proper partial sum strictly
    negative; its level is the depth reached, i.e. minus the smallest partial
    sum.  A segment is a matched bracket pair (-1 opens, +1 closes), and its
    level is one more than the deepest pair matched inside it.  One stack pass
    over two laps matches every pair that starts in the first lap and counts
    those: a walk still open after one lap is below zero, and each further lap
    repeats its steps lower down, so it never closes.
    """
    if m < 1:
        raise ValueError("level must be at least 1")
    if not isinstance(norm, PlusMinus):
        raise ValueError("the census is defined for sign sequences, not the all-zero form")
    entries = norm.entries
    s = len(entries)
    counts: dict[int, int] = {}
    starts: list[int] = []  # positions of the open -1 entries, innermost last
    inner: list[int] = []  # deepest level matched so far inside each open start
    for pos, e in enumerate(entries + entries):
        if e < 0:
            starts.append(pos)
            inner.append(0)
        elif starts:
            level = inner.pop() + 1
            if starts.pop() < s and level <= m:
                counts[level] = counts.get(level, 0) + 1
            if inner and inner[-1] < level:
                inner[-1] = level
    return counts


def circular_level(norm: NormalizedSeq) -> Optional[int]:
    """Spread of the running sums: max partial sum minus min partial sum.

    Defined only when the signed entries balance (None otherwise); the all-zero
    form has level 0.  Equivalently this is the largest absolute sum over any
    circular interval of the sequence.
    """
    if isinstance(norm, AllZero):
        return 0
    total = 0
    high = 0
    low = 0
    for e in norm.entries:
        total += e
        if total > high:
            high = total
        elif total < low:
            low = total
    return high - low if total == 0 else None


def circular_count(seq: CircularSeq, m: int) -> int:
    """Number of circular components of the level-m digraph, in closed form."""
    norm = normalize(seq, m)
    if isinstance(norm, AllZero):
        return m
    level = circular_level(norm)
    if level is None:
        return 0
    return max(0, m - level)


def linear_count(seq: CircularSeq, m: int) -> int:
    """Number of free linear components of the level-m digraph, in closed form."""
    norm = normalize(seq, m)
    if isinstance(norm, AllZero):
        return 0
    return sum(segment_census(norm, m).values())
