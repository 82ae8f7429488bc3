"""The json writers of the command line against json.dumps(indent=2).  The
generic writer renders plain trees: the same bytes on every tree of dicts,
lists, tuples, str, int, bool and None, and a TypeError on anything else, an
Orbit included.  Gamma's orbit record writer is the one place that writes
orbit points: the same bytes as json.dumps of the records, points read from
each Orbit's two columns."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import cli, gamma_table
from fcrystal.circseq import run_census
from fcrystal.cli import _json_text
from fcrystal.crystal import OrbitData
from fcrystal.permutation import Orbit
from reference_gamma import orbit_view

# non-ASCII, quote, backslash, control characters and a lone surrogate, besides any character
characters = st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7fé \U0001f600\ud800/'), st.characters())
strings = st.text(characters, max_size=8)
ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**30]),
)
scalars = st.one_of(st.none(), st.booleans(), ints, strings)

# Rows of int tuples, all of one length 0..3: the shape of orbit points.
rows = st.integers(0, 3).flatmap(lambda n: st.lists(st.tuples(*[ints] * n), max_size=5))
# Rows of mixed lengths, and bools inside int tuples and int lists: none of
# these may take an int fast path.
mixed_rows = st.lists(st.lists(ints, max_size=3).map(tuple), max_size=5)
rows_with_bools = st.lists(st.tuples(st.one_of(ints, st.booleans()), st.one_of(ints, st.booleans())), max_size=5)
ints_with_bools = st.lists(st.one_of(ints, st.booleans()), max_size=6)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.lists(ints, max_size=6),
        rows,
        mixed_rows,
        rows_with_bools,
        ints_with_bools,
    )


trees = st.recursive(scalars, containers, max_leaves=40)


@given(trees)
@settings(max_examples=600)
def test_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [
        [(1, 2), (3, 4)],
        [(), ()],
        [(7,)],
        [(1, 2, 3), (-4, 5, 2**65)],
        ((1, 2), (3,)),
        [(1, True), (2, 3)],
        [1, True, 0],
        [[1, 2], [3, 4]],
        {"points": [(1, 1), (2, 2)], "epsilon": (0, 0), "census": {}, "level": None},
        {"": [], "a": {}, "b": [[], {}, ()]},
    ],
)
def test_matches_json_dumps_on_fast_path_edges(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [
        1.5, [0, 1.5], Fraction(1, 2), [(1, Fraction(1, 2))], {"a": {1: 2}}, {None: 1}, {"a": [{"b": 0.0}]},
        Orbit((1,), (2,)), {"points": Orbit((1, 2), (2, 1))},
    ],
    ids=[
        "float", "float-in-list", "fraction", "fraction-in-row", "int-key", "none-key", "nested-float",
        "orbit", "orbit-in-dict",
    ],
)
def test_refuses_other_types(tree):
    with pytest.raises(TypeError):
        _json_text(tree)


def test_text_refuses_a_streamed_value():
    with pytest.raises(TypeError):
        _json_text({"records": cli._Streamed(["[]"])})


# Orbits of 1-6 points, labels from 1 up to past the int table's -1024..1024,
# each with an epsilon of its length.
labels = st.one_of(st.integers(1, 9), st.integers(1, 2000), st.integers(1, 10**30))
orbits = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.tuples(*[labels] * n), st.tuples(*[labels] * n)).map(lambda columns: Orbit(*columns))
)
epsilons = st.lists(st.integers(-5, 5), min_size=6, max_size=6)  # entries past +-3 are clamped at m_max 2
INDENTS = ["", "  ", "      "]


def reindented(text: str, indent: str) -> str:
    return text.replace("\n", "\n" + indent)


def orbit_data(orbit: Orbit, eps) -> OrbitData:
    epsilon = tuple(eps[: len(orbit)])
    return OrbitData(orbit, epsilon, *run_census(epsilon))


def assert_records_match(group: list[OrbitData], m_max: int = 2) -> None:
    # the orbits list as a member value of gamma's document, against json.dumps of its records
    out: list[str] = []
    cli._orbits_write(group, m_max, out)
    records = [orbit_view(data.orbit.points, data.epsilon, data.census, m_max) for data in group]
    assert "".join(out) == reindented(json.dumps(records, indent=2), "  ")


@given(orbits, epsilons)
@settings(max_examples=300)
def test_orbit_record_matches_json_dumps(orbit, eps):
    assert_records_match([orbit_data(orbit, eps)])


@pytest.mark.parametrize(
    "orbit",
    [Orbit((1,), (1,)), Orbit((3,), (1025,)), Orbit((10**30,), (2000,)), Orbit((2000, 1), (1, 10**30))],
    ids=["one-point", "one-point-past-table", "one-point-huge-label", "labels-past-table"],
)
@pytest.mark.parametrize("eps", [(0, 0), (1, -1), (5, -5)], ids=["all-zero", "signs", "clamped"])
def test_orbit_record_edges(orbit, eps):
    assert_records_match([orbit_data(orbit, eps)])


@given(st.lists(st.tuples(labels, labels), min_size=1, max_size=6), st.integers(1, 4), epsilons)
@settings(max_examples=100)
def test_orbits_sharing_a_first_column_in_one_call(points, count, eps):
    # product_orbits shares one first column object among the orbits of a cycle
    # pair, and the writer keeps its left pieces by identity: several orbits
    # over one column object, an equal column held by another object, another
    # column of the same length, and the same orbit twice
    first = tuple(i for i, _ in points)
    seconds = [tuple(j + k for _, j in points) for k in range(count)]
    shared = [orbit_data(Orbit(first, second), eps) for second in seconds]
    others = [Orbit(tuple(list(first)), seconds[0]), Orbit(tuple(i + 1 for i in first), seconds[-1])]
    group = shared + [orbit_data(orbit, eps) for orbit in others] + [shared[0]]
    assert_records_match(group)


@pytest.mark.parametrize(
    "values",
    [[10**30, -(10**30)], [-1025, 1025, -1024, 1024], [0, -1025, 10**30, 7], [2**63, -(2**63) - 1]],
)
def test_int_lists_past_the_table(values):
    table = cli._INT_TEXT.__self__
    for indent in INDENTS:
        assert _json_text(values, indent) == reindented(json.dumps(values, indent=2), indent)
    # ints outside -1024..1024 are rendered, never kept
    assert all(-1024 <= value <= 1024 for value in table)
    assert len(table) <= 2049


def test_render_keeps_nothing_that_grows_with_rank():
    # Label pieces live for one _orbits_write call: writing the orbit list of a
    # rank-300 gamma report (300 orbits of 300 points) twice leaves almost
    # nothing behind.
    rng = random.Random(300)
    order = list(range(1, 301))
    rng.shuffle(order)
    argv = [
        "gamma", "--r", "300", "--perm", "(" + " ".join(map(str, order)) + ")",
        "--slopes", ",".join(str(rng.randint(0, 1)) for _ in range(300)),
        "--m-max", "3", "--override-limits", "--format", "json",
    ]
    args = cli.build_parser().parse_args(argv)
    report = gamma_table(cli._crystal(args), args.m_max)
    # a full write first: every int the records hold enters the bounded int table here
    cli._orbits_write(report.orbits, args.m_max, [])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._orbits_write(report.orbits, args.m_max, [])
        gc.collect()
        cli._orbits_write(report.orbits, args.m_max, [])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096, retained
