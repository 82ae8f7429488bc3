"""Reductions, normal forms, the segment census, and the closed counts.

Derived expected values here were frozen from independent brute-force
enumerations (naive_segment_counts, naive_circular_level below), not from the
functions under test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    AllZero,
    PlusMinus,
    circular_count,
    circular_level,
    first_reduction_step,
    level_counts,
    linear_count,
    normalize,
    normalize_full,
    run_census,
    second_reduction,
    segment_census,
)

sign_seqs = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=12).map(tuple)
# Census inputs: free +-1 words, and words of long runs as normalize_full makes them.
census_words = st.one_of(
    st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=30).map(tuple),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6)
    .filter(any)
    .map(lambda seq: normalize_full(tuple(seq)).entries),
)
small_seqs = st.lists(st.integers(-6, 6), min_size=1, max_size=10).map(tuple)
# Run census inputs: few entries, long runs.
long_run_seqs = st.lists(st.integers(-50, 50), min_size=1, max_size=8).filter(any).map(tuple)


def naive_segment_counts(entries: tuple[int, ...]) -> dict[int, int]:
    """Count balanced negative segments by checking every circular window directly."""
    s = len(entries)
    counts: dict[int, int] = {}
    for start in range(s):
        if entries[start] != -1:
            continue
        for length in range(1, s + 1):
            window = [entries[(start + k) % s] for k in range(length)]
            partial = []
            total = 0
            for e in window:
                total += e
                partial.append(total)
            if window[-1] != 1 or partial[-1] != 0:
                continue
            if any(v >= 0 for v in partial[:-1]):
                continue
            level = -min(partial)
            counts[level] = counts.get(level, 0) + 1
            break
    return counts


def sign_word_census(entries: tuple[int, ...], m: int) -> dict[int, int]:
    """The sign-by-sign stack pass the run census replaced, kept as a reference:
    each -1 pushes its position, each +1 pops the innermost open start, and that
    segment's level (one more than the deepest pair matched inside it) is passed
    up to the enclosing start; two laps, first-lap starts and levels up to m."""
    s = len(entries)
    counts: dict[int, int] = {}
    starts: list[int] = []
    inner: list[int] = []
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


def naive_circular_level(entries: tuple[int, ...]) -> int:
    """Largest absolute sum over any circular interval."""
    s = len(entries)
    best = 0
    for start in range(s):
        total = 0
        for length in range(1, s + 1):
            total += entries[(start + length - 1) % s]
            best = max(best, abs(total))
    return best


# ------------------------------------------------------------ reductions


def test_first_reduction_merges_adjacent_pair():
    assert first_reduction_step((3, 2, -5), 1) == (5, -5)


def test_first_reduction_inner_position():
    assert first_reduction_step((1, 1, 1, 0, -1, -1, -1), 1) == (2, 1, 0, -1, -1, -1)
    assert first_reduction_step((1, 1, 1, 0, -1, -1, -1), 5) == (1, 1, 1, 0, -2, -1)


def test_first_reduction_wraps_around_the_seam():
    assert first_reduction_step((2, -1, 3), 3) == (5, -1)


@pytest.mark.parametrize(
    "seq,t",
    [
        ((1, -1), 1),
        ((0, 1), 1),
        ((1, 0), 1),
        ((1, 2), 3),
        ((1, 2), 0),
    ],
)
def test_first_reduction_rejects_bad_input(seq, t):
    with pytest.raises(ValueError):
        first_reduction_step(seq, t)


def test_first_reduction_needs_two_entries():
    with pytest.raises(ValueError):
        first_reduction_step((3,), 1)


def test_second_reduction_drops_zeroes():
    assert second_reduction((3, 0, -1, 0, -2)) == (3, -1, -2)


def test_second_reduction_rejects_all_zero():
    with pytest.raises(ValueError):
        second_reduction((0, 0, 0))


# ------------------------------------------------------------ normal forms


def test_normalize_expands_signs():
    assert normalize((2, -3), 5) == PlusMinus((1, 1, -1, -1, -1))


def test_normalize_drops_zeroes():
    assert normalize((0, 1, 0, -1), 3) == PlusMinus((1, -1))


def test_normalize_all_zero():
    assert normalize((0, 0), 4) == AllZero(2)
    assert normalize_full((0, 0, 0)) == AllZero(3)


def test_normalize_clamps_at_level_plus_one():
    assert normalize((-4, 4), 2) == PlusMinus((-1, -1, -1, 1, 1, 1))
    assert normalize((7, -7), 3) == PlusMinus((1, 1, 1, 1, -1, -1, -1, -1))


def test_normalize_full_does_not_clamp():
    assert normalize_full((-4, 4)) == PlusMinus((-1, -1, -1, -1, 1, 1, 1, 1))


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize((), 1)


@given(small_seqs, st.integers(1, 8))
def test_normalize_entries_are_signs(seq, m):
    norm = normalize(seq, m)
    if isinstance(norm, PlusMinus):
        assert set(norm.entries) <= {-1, 1}
        assert len(norm.entries) <= len(seq) * (m + 1)


# ------------------------------------------------------------ census


def test_census_frozen_examples():
    # values frozen from naive_segment_counts
    assert segment_census(PlusMinus((1, 1, 1, -1, -1, -1)), 5) == {1: 1, 2: 1, 3: 1}
    assert segment_census(PlusMinus((1, 1, -1, -1)), 5) == {1: 1, 2: 1}
    assert segment_census(PlusMinus((-1, 1)), 1) == {1: 1}
    assert segment_census(PlusMinus((1, 1)), 3) == {}
    assert segment_census(PlusMinus((-1, 1, -1, 1)), 3) == {1: 2}


def test_census_respects_level_cap():
    assert segment_census(PlusMinus((-1, -1, -1, 1, 1, 1)), 2) == {1: 1, 2: 1}


def test_census_rejects_all_zero_form():
    with pytest.raises(ValueError):
        segment_census(AllZero(2), 3)


@given(census_words)
def test_census_matches_naive_enumeration(entries):
    s = len(entries)
    assert segment_census(PlusMinus(entries), s) == naive_segment_counts(entries)


@given(census_words)
def test_census_counts_nonincreasing_in_level(entries):
    counts = segment_census(PlusMinus(entries), len(entries))
    top = max(counts, default=0)
    for level in range(2, top + 1):
        assert counts.get(level, 0) <= counts.get(level - 1, 0)


def test_run_census_examples():
    assert run_census((-4, 4)) == (((1, 4),), 4)
    assert run_census((0, 0)) == ((), 0)
    assert run_census((3, 0, -1, -2)) == (((1, 2), (3, 3)), 3)
    assert run_census((5,)) == ((), None)
    assert run_census((-10**12, 10**12)) == (((1, 10**12),), 10**12)
    assert level_counts(((1, 4), (2, 2)), 3) == {1: 1, 2: 2, 3: 1}


@given(long_run_seqs)
def test_run_census_matches_sign_word_census(seq):
    # every level up to the word length, on the words normalize_full spells out
    entries = normalize_full(seq).entries
    census, level = run_census(seq)
    assert level_counts(census, len(entries)) == sign_word_census(entries, len(entries))
    assert level == (naive_circular_level(entries) if sum(seq) == 0 else None)


@given(long_run_seqs)
@settings(max_examples=40, deadline=None)  # the naive windows cost up to a second on 400 signs
def test_run_census_matches_naive_enumeration(seq):
    entries = normalize_full(seq).entries
    assert level_counts(run_census(seq)[0], len(entries)) == naive_segment_counts(entries)


# ------------------------------------------------------------ circular level


def test_circular_level_examples():
    assert circular_level(AllZero(3)) == 0
    assert circular_level(PlusMinus((-1, 1, -1, 1))) == 1
    assert circular_level(PlusMinus((1, 1, -1, -1))) == 2
    assert circular_level(PlusMinus((1, 1))) is None


@given(sign_seqs)
def test_circular_level_matches_naive_interval_sums(entries):
    norm = PlusMinus(entries)
    if sum(entries) != 0:
        assert circular_level(norm) is None
    else:
        assert circular_level(norm) == naive_circular_level(entries)


# ------------------------------------------------------------ closed counts


def test_counts_on_reference_sequences():
    for seq in [(3, 0, -1, -2), (1, 1, 1, 0, -1, -1, -1), (3, -3)]:
        assert linear_count(seq, 5) == 3
        assert circular_count(seq, 5) == 2


def test_counts_all_zero_sequence():
    assert circular_count((0, 0, 0), 4) == 4
    assert linear_count((0, 0, 0), 4) == 0


def test_counts_single_nonzero_entry():
    assert circular_count((5,), 3) == 0
    assert linear_count((5,), 3) == 0


def test_counts_unbalanced_sequence_has_no_cycles():
    assert circular_count((1, 1), 4) == 0


def test_circular_count_clamped_sequence():
    # spread 4 exceeds every level up to 3
    assert [circular_count((-4, 4), m) for m in (1, 2, 3, 4, 5, 6)] == [0, 0, 0, 0, 1, 2]
