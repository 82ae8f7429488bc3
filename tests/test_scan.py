"""Family scans: the class table against one scan_record per crystal, and
against the per-crystal table loop it replaced; scan_record, _class_key and
_ratio_holds against the record, key and pairwise ratio bound they replaced
(all in tests/reference_scan.py)."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scan
from fcrystal import FCyclicCrystal, class_tables, cli, gamma_table, scan
from fcrystal.permutation import Permutation, cycle_decomposition, cycle_string
from fcrystal.scan import enumerate_family, family_size, scan_table, summarize

FAMILIES = (
    [("circular-dieudonne", r, 1) for r in range(1, 7)]
    + [("all-dieudonne", r, 1) for r in range(1, 6)]
    + [("all-fcrystal", r, 2) for r in range(1, 4)]
)

# The Dieudonne families at r <= 6, circular-fcrystal at r <= 5 and all-fcrystal
# at r <= 4, slope bounds up to 2; every family of FAMILIES is among them.
SMALL_FAMILIES = (
    [("circular-dieudonne", r, 1) for r in range(1, 7)]
    + [("all-dieudonne", r, 1) for r in range(1, 7)]
    + [("circular-fcrystal", r, s) for r in range(1, 6) for s in range(3)]
    + [("all-fcrystal", r, s) for r in range(1, 5) for s in range(3)]
)


def class_counts(classes, rows) -> list[int]:
    """How many crystals of the table each class holds, counted from rows."""
    counts = [0] * len(classes)
    for row in rows:
        for index in row:
            counts[index] += 1
    return counts


@pytest.mark.parametrize("family,r,slope_max", FAMILIES)
def test_run_scan_equals_one_record_per_crystal(family, r, slope_max):
    # the table expanded into one record per crystal: its class record with the
    # crystal's own perm and slopes
    perms, slopes, classes, _, rows = scan_table(family, r, 5, slope_max)
    expanded = [
        classes[index]._replace(perm=perm, slopes=vector)
        for perm, row in zip(perms, rows)
        for vector, index in zip(slopes, row)
    ]
    assert expanded == reference_scan.records(family, r, 5, slope_max)


@pytest.mark.parametrize("family,r,slope_max", FAMILIES + [("circular-fcrystal", r, 3) for r in range(1, 5)])
def test_family_size_counts_the_enumeration(family, r, slope_max):
    assert family_size(family, r, slope_max) == sum(1 for _ in enumerate_family(family, r, slope_max))


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_table_equals_the_per_crystal_reference(family, r, slope_max):
    perms, slopes, classes, counts, rows = scan_table(family, r, 5, slope_max)
    expected_perms, expected_slopes, expected_classes, expected_rows = reference_scan.scan_table(family, r, 5, slope_max)
    assert (perms, slopes, classes) == (expected_perms, expected_slopes, expected_classes)
    assert [list(row) for row in rows] == expected_rows
    assert counts == class_counts(expected_classes, expected_rows)


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_class_summary_equals_the_per_crystal_summary(family, r, slope_max):
    _, _, classes, counts, _ = scan_table(family, r, 5, slope_max)
    assert sum(counts) == family_size(family, r, slope_max)
    assert min(counts) >= 1
    records = reference_scan.records(family, r, 5, slope_max)
    assert summarize(classes, counts) == summarize(records, [1] * len(records))


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_class_key_runs_once_per_cycle_word(monkeypatch, family, r, slope_max):
    # one call per (cycle lengths sorted, word read along the cycles so sorted)
    calls = []
    real = scan._class_key

    def counting(cycles, slopes):
        key = real(cycles, slopes)
        calls.append((tuple(map(len, cycles)), slopes, key))
        return key

    monkeypatch.setattr(scan, "_class_key", counting)
    _, _, _, _, rows = scan_table(family, r, 5, slope_max)
    table_calls = calls[:]
    calls.clear()
    reference_scan.scan_table(family, r, 5, slope_max)  # one memo per ordered cycle lengths
    assert {key for *_, key in table_calls} == {key for *_, key in calls}  # the same classes
    words = set()
    for pi, slopes in enumerate_family(family, r, slope_max):
        cycles = sorted(cycle_decomposition(pi), key=len)
        words.add((tuple(map(len, cycles)), tuple(slopes[i - 1] for cycle in cycles for i in cycle)))
    assert [lengths for lengths, *_ in table_calls] == [tuple(sorted(lengths)) for lengths, *_ in table_calls]
    assert len({(lengths, vector) for lengths, vector, _ in table_calls}) == len(table_calls) == len(words)
    assert len(table_calls) <= len(calls)
    if family == "all-dieudonne" and r >= 3:
        # (1, 2) and (2, 1) share one memo, and so on
        assert len(table_calls) < len(calls)
    assert sum(len(list(row)) for row in rows) == family_size(family, r, slope_max)
    if r > 2 and slope_max:
        assert len(table_calls) < family_size(family, r, slope_max)


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_class_tables_equal_gamma_table_on_every_crystal(family, r, slope_max):
    # the pair sum scan_record reads, with one pair memo per family as in
    # scan_table, against the orbit walk of gamma_table
    pairs = {}
    for pi, slopes in enumerate_family(family, r, slope_max):
        report = gamma_table(FCyclicCrystal(pi, slopes), 5)
        words = [tuple(slopes[i - 1] for i in cycle) for cycle in cycle_decomposition(pi)]
        assert class_tables(words, 5, pairs) == (report.gamma, report.delta, report.b, report.stabilization)


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_one_class_per_class_key(family, r, slope_max):
    _, _, classes, _, rows = scan_table(family, r, 5, slope_max)
    index_of = {}  # class key -> the class indices of its crystals
    for (pi, vector), index in zip(enumerate_family(family, r, slope_max), (i for row in rows for i in row)):
        index_of.setdefault(scan._class_key(cycle_decomposition(pi), vector), set()).add(index)
    assert all(len(indices) == 1 for indices in index_of.values())
    assert sorted(index for (index,) in index_of.values()) == list(range(len(classes)))


def test_members_share_one_record_per_class():
    perms, slopes, classes, _, rows = scan_table("all-dieudonne", 4, 5)
    keys = {scan._class_key(cycle_decomposition(pi), s) for pi, s in enumerate_family("all-dieudonne", 4)}
    assert len(classes) == len(keys)
    assert [len(list(row)) for row in rows] == [len(slopes)] * len(perms)
    assert [(perm, vector) for perm in perms for vector in slopes] == [
        (cycle_string(pi), vector) for pi, vector in enumerate_family("all-dieudonne", 4)
    ]


@pytest.mark.parametrize("top,r", [(top, r) for top in range(4) for r in range(7)])
def test_slope_vectors_follow_itertools_product(top, r):
    # the lazy enumeration against the itertools.product loop it replaced
    assert list(scan._slope_vectors(top, r)) == list(itertools.product(range(top + 1), repeat=r))


@pytest.mark.parametrize(
    "walk",
    [lambda: next(enumerate_family("bogus", 2)), lambda: scan_table("bogus", 2, 3), lambda: family_size("bogus", 2)],
    ids=["enumerate_family", "scan_table", "family_size"],
)
def test_unknown_family_is_refused(walk):
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        walk()


@pytest.mark.parametrize("family", scan.FAMILIES)
@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize(
    "walk",
    [
        lambda family, r: next(enumerate_family(family, r)),
        lambda family, r: scan_table(family, r, 3),
        lambda family, r: family_size(family, r),
    ],
    ids=["enumerate_family", "scan_table", "family_size"],
)
def test_rank_below_one_is_refused(walk, family, r):
    with pytest.raises(ValueError, match=rf"^rank must be at least 1, got {r}$"):
        walk(family, r)


# ------------------------------------------- against the record and key they replaced

def typed_fields(record) -> list[tuple]:
    """A record field by field, with each value's type: True and 1 render differently."""
    return [(name, type(value), value) for name, value in record._asdict().items()]


@pytest.fixture
def tables_by_class(monkeypatch):
    """class_tables memoized by isomorphism class and level, for scan_record
    and the reference alike.  Both read the same tables (which
    test_class_tables_equal_gamma_table_on_every_crystal checks on every
    crystal), so the records compare what each builds around them."""
    real = scan.class_tables
    memo = {}

    def tables(words, m_max, pairs):
        key = (tuple(sorted(min(word[k:] + word[:k] for k in range(len(word))) for word in words)), m_max)
        found = memo.get(key)
        if found is None:
            found = memo[key] = real(words, m_max, pairs)
        return found

    monkeypatch.setattr(scan, "class_tables", tables)
    monkeypatch.setattr(reference_scan, "class_tables", tables)


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_scan_record_matches_the_reference_on_every_crystal(tables_by_class, family, r, slope_max):
    # each crystal once, with every check, the levels 1..6 taken in turn; which
    # checks print is the cli's choice (test_cli.test_scan_blanks_the_checks_not_asked_for)
    for (pi, slopes), m_max in zip(enumerate_family(family, r, slope_max), itertools.cycle(range(1, 7))):
        record = scan.scan_record(pi, slopes, m_max)
        assert typed_fields(record) == typed_fields(reference_scan.scan_record(pi, slopes, m_max))


@pytest.mark.parametrize("record", [scan.scan_record, reference_scan.scan_record], ids=["scan", "reference"])
@pytest.mark.parametrize(
    "slopes,message",
    [
        ((0, 1), "need 3 slopes, got 2"),
        ((0, 1, 1, 0), "need 3 slopes, got 4"),
        ((0, -1, 1), "slopes must be nonnegative integers"),
    ],
    ids=["short", "long", "negative"],
)
def test_scan_record_refuses_bad_slopes(record, slopes, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        record(Permutation((2, 3, 1)), slopes, 3)


def nondecreasing_gammas(length: int, top_step: int):
    """Every gamma(0..length-1) with gamma(0) = 0 and each step in 0..top_step."""
    for steps in itertools.product(range(top_step + 1), repeat=length - 1):
        yield tuple(itertools.accumulate(steps, initial=0))


def test_ratio_check_matches_the_pairwise_reference_on_every_short_gamma():
    gammas = [gamma for length in range(1, 8) for gamma in nondecreasing_gammas(length, 3)]
    assert len(gammas) == 5461
    assert [scan._ratio_holds(gamma) for gamma in gammas] == [reference_scan.ratio_holds(gamma) for gamma in gammas]
    assert {reference_scan.ratio_holds(gamma) for gamma in gammas} == {True, False}


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_ratio_check_matches_the_pairwise_reference_on_every_class(family, r, slope_max):
    # every class's gamma at m_max = 8, and each of its shorter tables
    _, _, classes, _, _ = scan_table(family, r, 8, slope_max)
    for record in classes:
        for top in range(1, 10):
            gamma = record.gamma[:top]
            assert scan._ratio_holds(gamma) == reference_scan.ratio_holds(gamma), (record.perm, record.slopes, top)


@pytest.mark.parametrize("family,r,slope_max", SMALL_FAMILIES)
def test_class_key_matches_the_reference_on_every_crystal(family, r, slope_max):
    # in decomposition order and stably sorted by length, as scan_table passes them
    for pi, slopes in enumerate_family(family, r, slope_max):
        cycles = cycle_decomposition(pi)
        key = reference_scan._class_key(cycles, slopes)
        assert scan._class_key(cycles, slopes) == key
        assert scan._class_key(sorted(cycles, key=len), slopes) == key


@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=12), min_size=1, max_size=4), st.data())
@settings(max_examples=300)
def test_class_key_matches_the_reference_on_random_words(words, data):
    # the words read along cycles of shuffled labels
    n = sum(map(len, words))
    labels = iter(data.draw(st.permutations(range(1, n + 1))))
    cycles = [tuple(next(labels) for _ in word) for word in words]
    slopes = [0] * n
    for cycle, word in zip(cycles, words):
        for i, e in zip(cycle, word):
            slopes[i - 1] = e
    assert scan._class_key(cycles, tuple(slopes)) == reference_scan._class_key(cycles, tuple(slopes))


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_family_is_a_stream():
    # 200,001 slope vectors: a list of them takes about 14 MB, and the tuple that
    # itertools.product would copy range(200_001) into about 8 MB.
    first = []
    peak = traced_peak(lambda: first.append(next(enumerate_family("circular-fcrystal", 1, 200_000))))
    assert first[0][1] == (0,)
    assert peak < 2**20


def test_summary_scan_memory_follows_classes(capsys):
    # A text scan prints only its summary and keeps no per-crystal record.
    argv = ["scan", "--family", "circular-dieudonne", "--r", "7", "--m-max", "3"]
    assert cli.main(argv) == 0  # warm-up: the parser and every lazily built table
    peak = traced_peak(lambda: cli.main(argv))
    capsys.readouterr()
    assert peak < 32 * family_size("circular-dieudonne", 7)


def test_summary_scan_reads_no_row(capsys):
    # 1,290,240 crystals in 36 classes: a text scan with no violation holds per
    # permutation its cycle string and word getter, and per crystal nothing; a
    # list of one int class index per crystal would alone take 8 B a crystal.
    argv = ["scan", "--family", "circular-dieudonne", "--r", "8", "--m-max", "3"]
    assert cli.main(argv) == 0  # warm-up
    peak = traced_peak(lambda: cli.main(argv))
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert peak < 4 * family_size("circular-dieudonne", 8)
