"""Crystal-level invariants: gamma, b, tables, verification, monotonicity,
Newton slopes, and minimality."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scan
from fcrystal import (
    FCyclicCrystal,
    OrbitData,
    Permutation,
    VerifyCheck,
    circular_count,
    class_tables,
    cycle_words,
    endo_exponent,
    gamma,
    gamma_table,
    is_minimal,
    is_minimal_words,
    linear_count,
    newton_slopes,
    oracle_counts,
    orbit_data,
    pair_table,
    verify_sequence,
    verify_sweep,
)
from fcrystal.permutation import cycle_decomposition, parse_permutation
from fcrystal.scan import enumerate_family

dieudonne_crystals = st.integers(2, 5).flatmap(
    lambda r: st.tuples(
        st.permutations(list(range(1, r + 1))),
        st.lists(st.integers(0, 1), min_size=r, max_size=r),
    )
).map(lambda t: FCyclicCrystal.from_text(len(t[0]), " ".join(map(str, t[0])), tuple(t[1])))


def crystal(r, perm, slopes):
    return FCyclicCrystal.from_text(r, perm, tuple(slopes))


def test_constructor_validates():
    with pytest.raises(ValueError):
        crystal(2, "(1 2)", (0,))
    with pytest.raises(ValueError):
        crystal(2, "(1 2)", (0, -1))


def test_flags():
    c = crystal(2, "(1 2)", (0, 1))
    assert c.is_dieudonne and c.is_circular
    assert c.codimension == 1 and c.dimension == 1
    assert not crystal(2, "(1)(2)", (0, 2)).is_dieudonne
    assert not crystal(2, "(1)(2)", (0, 1)).is_circular


def test_supersingular_rank_two():
    c = crystal(2, "(1 2)", (0, 1))
    assert [gamma(c, m) for m in range(0, 6)] == [0, 1, 1, 1, 1, 1]
    assert [endo_exponent(c, m) for m in range(1, 6)] == [2, 6, 10, 14, 18]


def test_ordinary_identity():
    for r in (1, 2, 3):
        c = crystal(r, " ".join(str(i) for i in range(1, r + 1)), (1,) * r)
        for m in (1, 2, 4):
            assert gamma(c, m) == 0
            assert endo_exponent(c, m) == m * r * r


def test_shifted_family_tables():
    # rank two swap with slopes (0, e): gamma climbs by one per level until e
    for e in (2, 3, 6):
        c = crystal(2, "(1 2)", (0, e))
        table = gamma_table(c, e + 2)
        assert table.gamma == tuple(min(n, e) for n in range(e + 3))
        assert table.delta == tuple(1 if n <= e else 0 for n in range(1, e + 3))
        assert table.stabilization == e
        assert table.ordinary is None  # not a 0/1 crystal
        assert not table.stabilization_is_isomorphism_number


def test_gamma_zero_level():
    assert gamma(crystal(2, "(1 2)", (0, 1)), 0) == 0
    with pytest.raises(ValueError):
        gamma(crystal(2, "(1 2)", (0, 1)), -1)
    with pytest.raises(ValueError):
        endo_exponent(crystal(2, "(1 2)", (0, 1)), 0)


def test_orbit_data_shape():
    c = crystal(2, "(1 2)", (0, 4))
    orbit_zero, orbit_four = orbit_data(c)
    assert (orbit_zero.epsilon, orbit_zero.census, orbit_zero.level) == ((0, 0), (), 0)
    # exact at every level: no clamp cuts the level or the census, one segment at each level 1..4
    assert orbit_four == OrbitData(orbit_four.orbit, (-4, 4), ((1, 4),), 4)


def test_computing_paths_expand_no_sign_word(monkeypatch):
    # only the clamped display form (circseq.normalize) may spell runs out sign by sign
    def no_expansion(values):
        raise AssertionError("a sign word was expanded")

    monkeypatch.setattr("fcrystal.circseq._expand_signs", no_expansion)
    c = crystal(3, "(1 2 3)", (0, 10**12, 2))
    # orbits eps (0,0,0), (-N, N-2, 2) and (N, 2-N, -2) with N = 10^12: one segment
    # at each level 1..N in each nonzero orbit, both of circular level N
    zero, down, up = orbit_data(c)
    assert (zero.census, down.census, up.census) == ((), ((1, 10**12 - 2), (10**12 - 1, 10**12)), ((1, 2), (3, 10**12)))
    assert (zero.level, down.level, up.level) == (0, 10**12, 10**12)
    table = gamma_table(c, 4)
    assert (table.gamma, table.b, table.stabilization) == ((0, 2, 4, 6, 8), (3, 6, 9, 12), 10**12)
    assert gamma(c, 4) == 8
    assert endo_exponent(c, 4) == 12
    assert linear_count((-(10**12), 10**12), 3) == 3
    assert circular_count((-(10**12), 10**12), 3) == 0
    assert verify_sweep([(c.pi, c.slopes)], 4)[2] == []


def test_gamma_table_report_fields():
    c = crystal(2, "(1 2)", (0, 1))
    table = gamma_table(c, 4)
    assert table.gamma == (0, 1, 1, 1, 1)
    assert table.delta == (1, 0, 0, 0)
    assert table.b == (2, 6, 10, 14)
    assert table.stabilization == 1
    assert table.ordinary is False
    assert table.stabilization_is_isomorphism_number
    assert table.orbits == tuple(orbit_data(c))


def test_b_is_plain_integer_with_arbitrary_precision():
    c = crystal(6, "1 2 3 4 5 6", (0,) * 6)
    b = endo_exponent(c, 10**6)
    assert b == 10**6 * 36
    assert isinstance(b, int)


def b_by_inline_loop(orbits, m):
    # The loop endo_exponent and gamma_table each spelled out before b(m) became
    # one sum of circular_at(level, m) * len(orbit); kept as the reference.
    total = 0
    for data in orbits:
        if data.level is not None and data.level < m:
            total += (m - data.level) * len(data.orbit)
    return total


def test_b_matches_the_inline_loop_on_all_small_crystals():
    for r in range(1, 5):
        for pi, slopes in enumerate_family("all-fcrystal", r, 2):
            c = FCyclicCrystal(pi, slopes)
            expected = tuple(b_by_inline_loop(orbit_data(c), m) for m in range(1, 9))
            assert gamma_table(c, 8).b == expected, (pi, slopes)
            assert tuple(endo_exponent(c, m) for m in range(1, 9)) == expected, (pi, slopes)


def test_verify_sequence_pairs_formula_and_oracle():
    check, stats = verify_sequence((3, 0, -1, -2), 5)
    assert stats == oracle_counts((3, 0, -1, -2), 5)
    assert (check.orbit_index, check.m, check.formula_linear, check.formula_circular) == (0, 5, 3, 2)
    assert (check.oracle_linear, check.oracle_circular) == (stats.free_linear, stats.circular)
    assert check.match


def test_verify_check_keeps_its_fields_match_and_equality():
    check, _ = verify_sequence((3, 0, -1, -2), 5)
    assert list(check._fields) == [
        "orbit_index", "m", "formula_linear", "formula_circular", "oracle_linear", "oracle_circular",
    ]
    assert check == VerifyCheck(0, 5, 3, 2, 3, 2)
    off = check._replace(formula_circular=3)
    assert off != check and not off.match
    assert not check._replace(oracle_linear=2).match


def test_wrong_circular_edge_count_is_refused(monkeypatch):
    # circular components must carry one edge per position; the one shared check
    # refuses an oracle that says otherwise, for a bare sequence and for a crystal
    real = oracle_counts

    def off_by_one(seq, m):
        stats = real(seq, m)
        return stats._replace(circular_edges=stats.circular_edges + 1)

    monkeypatch.setattr("fcrystal.crystal.oracle_counts", off_by_one)
    with pytest.raises(RuntimeError, match="circular components carry"):
        verify_sequence((0, 0), 2)
    with pytest.raises(RuntimeError, match="circular components carry"):
        verify_sweep([(parse_permutation("(1 2)", 2), (0, 1))], 2)


def test_verify_report_on_small_crystals():
    for slopes in [(0, 1), (1, 1), (0, 4)]:
        crystals, checks, mismatches = verify_sweep([(parse_permutation("(1 2)", 2), slopes)], 4)
        assert crystals == 1
        assert checks == 2 * 4
        assert mismatches == []


def test_delta_report_strict_case():
    c = crystal(4, "(1 2 3 4)", (0, 1, 1, 0))
    table = gamma_table(c, 4)
    assert table.gamma == (0, 3, 4, 4, 4)
    report = table.monotonicity()
    assert report.nonincreasing
    assert report.strict_through_stabilization
    assert report.first_violation is None


def test_delta_report_constant_prefix_case():
    # the shifted family keeps a constant delta: nonincreasing but not strict
    c = crystal(2, "(1 2)", (0, 4))
    report = gamma_table(c, 6).monotonicity()
    assert report.nonincreasing
    assert not report.strict_through_stabilization


def test_newton_slopes_examples():
    assert newton_slopes(crystal(2, "(1 2)", (0, 1))) == (Fraction(1, 2), Fraction(1, 2))
    assert newton_slopes(crystal(2, "(1)(2)", (0, 1))) == (Fraction(0), Fraction(1))
    assert newton_slopes(crystal(3, "(1 2 3)", (0, 0, 1))) == (Fraction(1, 3),) * 3
    assert newton_slopes(crystal(4, "(1 2)(3 4)", (0, 1, 1, 1))) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1),
        Fraction(1),
    )


def test_minimal_examples():
    assert is_minimal(crystal(2, "(1 2)", (0, 1)))
    assert is_minimal(crystal(3, "(1 2 3)", (0, 0, 1)))
    assert is_minimal(crystal(4, "(1 2 3 4)", (0, 1, 0, 1)))
    assert not is_minimal(crystal(4, "(1 2 3 4)", (0, 0, 1, 1)))
    assert is_minimal(crystal(2, "1 2", (0, 0)))


def test_minimal_rejects_large_slopes():
    with pytest.raises(ValueError):
        is_minimal(crystal(2, "(1 2)", (0, 2)))


def test_minimal_matches_the_reference_on_every_dieudonne_crystal():
    # every crystal of all-dieudonne up to rank 6 (50,362 crystals), against
    # the loop over starts and lengths is_minimal_words replaced
    for r in range(1, 7):
        for pi, slopes in enumerate_family("all-dieudonne", r):
            crystal = FCyclicCrystal(pi, slopes)
            assert is_minimal(crystal) == reference_scan.is_minimal(crystal), (pi, slopes)


@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=12), min_size=1, max_size=3))
@settings(max_examples=300)
def test_minimal_words_match_the_reference_on_random_words(words):
    # the words read along consecutive cycles (1 .. a)(a+1 .. a+b)...
    images, start = [], 1
    for word in words:
        images += range(start + 1, start + len(word))
        images.append(start)
        start += len(word)
    crystal = FCyclicCrystal(Permutation(tuple(images)), tuple(e for word in words for e in word))
    assert is_minimal_words(words) == reference_scan.is_minimal(crystal)


@given(dieudonne_crystals)
@settings(max_examples=150)
def test_minimal_iff_stabilization_at_most_one(c):
    table = gamma_table(c, max(2, c.r))
    assert is_minimal(c) == (table.stabilization <= 1)


@given(dieudonne_crystals)
@settings(max_examples=100)
def test_ordinary_flag_matches_gamma_one(c):
    table = gamma_table(c, 2)
    assert table.ordinary == (table.gamma[1] == 0)


@given(dieudonne_crystals, st.integers(1, 6))
@settings(max_examples=100)
def test_gamma_agrees_with_table(c, m):
    table = gamma_table(c, m)
    assert table.gamma[m] == gamma(c, m)
    assert table.b[m - 1] == endo_exponent(c, m)


@given(
    st.integers(1, 6).flatmap(
        lambda r: st.tuples(
            st.permutations(list(range(1, r + 1))),
            st.permutations(list(range(1, r + 1))),
            st.lists(st.integers(0, 3), min_size=r, max_size=r),
        )
    ),
    st.integers(1, 6),
)
@settings(max_examples=150)
def test_invariants_survive_relabeling(data, m):
    # Relabeling the basis by sigma conjugates pi and moves slope i to sigma(i).
    images, sigma, slopes = data
    r = len(images)
    conj = [0] * r
    moved = [0] * r
    for i in range(1, r + 1):
        conj[sigma[i - 1] - 1] = sigma[images[i - 1] - 1]
        moved[sigma[i - 1] - 1] = slopes[i - 1]
    c = FCyclicCrystal(Permutation(tuple(images)), tuple(slopes))
    d = FCyclicCrystal(Permutation(tuple(conj)), tuple(moved))
    a, b = gamma_table(c, m), gamma_table(d, m)
    assert (a.gamma, a.delta, a.b, a.stabilization, a.ordinary) == (b.gamma, b.delta, b.b, b.stabilization, b.ordinary)
    if c.is_dieudonne:
        assert is_minimal(c) == is_minimal(d)


def test_gamma_table_keeps_no_tuple_per_orbit_point():
    # A 200-cycle with 0/1 slopes: 200 orbits of 200 points.  The report keeps
    # each orbit's two columns (the first shared by all 200 orbits), its epsilon
    # and its census; one 2-tuple per point would add 64 bytes a point.
    cycle = "(" + " ".join(str(k * 7 % 201) for k in range(1, 201)) + ")"
    crystal = FCyclicCrystal(parse_permutation(cycle, 200), tuple((k * k + k // 3) % 2 for k in range(200)))
    gamma_table(crystal, 5)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = gamma_table(crystal, 5)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, (data.orbit for data in report.orbits))) == 200 * 200
    assert kept < 40 * 200 * 200


# ------------------------------------------------------------ cycle-pair tables


def tables_of(report):
    return report.gamma, report.delta, report.b, report.stabilization


def records_as_pair_table(records):
    """orbit_data records as a pair table reads them: sorted census ranges, and
    {circular level: total orbit length}."""
    lengths = {}
    for data in records:
        if data.level is not None:
            lengths[data.level] = lengths.get(data.level, 0) + len(data.orbit)
    return sorted(lo_hi for data in records for lo_hi in data.census), lengths


def sorted_pair_table(u, v):
    census, lengths = pair_table(u, v)
    return sorted(census), lengths


def test_class_tables_equal_gamma_table_on_random_crystals():
    # ranks up to 12, slopes up to 10**12, levels up to 12; one memo for all
    rng = random.Random(18)
    pairs = {}
    for _ in range(600):
        r = rng.randint(1, 12)
        images = list(range(1, r + 1))
        rng.shuffle(images)
        pi = Permutation(tuple(images))
        top = rng.choice((1, 3, 40, 10**12))
        slopes = tuple(rng.randint(0, top) for _ in range(r))
        m_max = rng.randint(1, 12)
        crystal = FCyclicCrystal(pi, slopes)
        words = cycle_words(crystal)
        assert words == [tuple(slopes[i - 1] for i in cycle) for cycle in cycle_decomposition(pi)]
        expected = tables_of(gamma_table(crystal, m_max))
        assert class_tables(words, m_max, pairs) == expected, (pi, slopes, m_max)
        assert class_tables(words, m_max, {}) == expected, (pi, slopes, m_max)


def test_class_tables_refuse_level_zero():
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        class_tables([(0, 1)], 0, {})


@pytest.mark.parametrize(
    "call",
    [lambda: pair_table((), (0, 1)), lambda: pair_table((1,), ()), lambda: class_tables([()], 2, {})],
    ids=["pair_table-first", "pair_table-second", "class_tables"],
)
def test_empty_slope_words_are_refused(call):
    with pytest.raises(ValueError, match=r"^a cycle's slope word must have at least one letter$"):
        call()


def test_pair_table_of_one_cycle_equals_its_orbit_records():
    # a single r-cycle's orbits are the pair (w, w) of its slope word w; every
    # rotation of w gives the same table, since it only relabels the orbits
    rng = random.Random(7)
    for _ in range(3000):
        r = rng.randint(1, 8)
        top = rng.choice((1, 3, 10**12))
        w = tuple(rng.randint(0, top) for _ in range(r))
        records = orbit_data(FCyclicCrystal(Permutation(tuple(range(2, r + 1)) + (1,)), w))
        expected = records_as_pair_table(records)
        assert sorted_pair_table(w, w) == expected, w
        k = rng.randrange(r)
        assert sorted_pair_table(w[k:] + w[:k], w[k:] + w[:k]) == expected, (w, k)


def test_pair_table_of_two_cycles_equals_their_orbit_records():
    # cycles A = (1..a) and B = (a+1..a+b): the orbits from A to B, whichever
    # rotation of each slope word the crystal carries
    rng = random.Random(8)
    for _ in range(3000):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        top = rng.choice((1, 3, 10**12))
        u = tuple(rng.randint(0, top) for _ in range(a))
        v = tuple(rng.randint(0, top) for _ in range(b))
        images = tuple(range(2, a + 1)) + (1,) + tuple(range(a + 2, a + b + 1)) + (a + 1,)
        s, t = rng.randrange(a), rng.randrange(b)
        records = orbit_data(FCyclicCrystal(Permutation(images), u[s:] + u[:s] + v[t:] + v[:t]))
        between = [data for data in records if data.orbit.first[0] <= a < data.orbit.second[0]]
        assert len(between) == math.gcd(a, b)
        assert sorted_pair_table(u, v) == records_as_pair_table(between), (u, v, s, t)
