"""Crystal-level invariants: gamma, b, tables, verification, monotonicity,
Newton slopes, and minimality."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    FCyclicCrystal,
    OrbitData,
    Permutation,
    ResourceLimitError,
    VerifyCheck,
    circular_count,
    endo_exponent,
    gamma,
    gamma_table,
    is_minimal,
    linear_count,
    newton_slopes,
    oracle_counts,
    orbit_data,
    verify_formula_vs_oracle,
    verify_sequence,
)
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
    assert verify_formula_vs_oracle(c, 4).ok


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
    assert [field.name for field in dataclasses.fields(check)] == [
        "orbit_index", "m", "formula_linear", "formula_circular", "oracle_linear", "oracle_circular",
    ]
    assert check == VerifyCheck(0, 5, 3, 2, 3, 2)
    off = dataclasses.replace(check, formula_circular=3)
    assert off != check and not off.match
    assert not dataclasses.replace(check, oracle_linear=2).match


def test_wrong_circular_edge_count_is_refused(monkeypatch):
    # circular components must carry one edge per position; the one shared check
    # refuses an oracle that says otherwise, for a bare sequence and for a crystal
    real = oracle_counts

    def off_by_one(seq, m):
        stats = real(seq, m)
        return dataclasses.replace(stats, circular_edges=stats.circular_edges + 1)

    monkeypatch.setattr("fcrystal.crystal.oracle_counts", off_by_one)
    with pytest.raises(RuntimeError, match="circular components carry"):
        verify_sequence((0, 0), 2)
    with pytest.raises(RuntimeError, match="circular components carry"):
        verify_formula_vs_oracle(crystal(2, "(1 2)", (0, 1)), 2)


def test_verify_report_on_small_crystals():
    for slopes in [(0, 1), (1, 1), (0, 4)]:
        report = verify_formula_vs_oracle(crystal(2, "(1 2)", slopes), 4)
        assert report.ok
        assert len(report.checks) == 2 * 4
        assert report.mismatches == ()


def test_verify_honours_vertex_budget():
    with pytest.raises(ResourceLimitError):
        verify_formula_vs_oracle(crystal(2, "(1 2)", (0, 1)), 4, vertex_budget=10)


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
