"""The record classes keep the contract they had as frozen dataclasses: field
names in order, equality and hash by field values, no attribute assignment, the
dataclass repr text, and the same ValueError messages from the two checked
records.  A dataclass of the same name and fields, made here, is the reference
for repr and hash.

Three changes are accepted.  The named-tuple records compare equal to a plain
tuple of the same values (and to another record class with the same values),
where a dataclass compared equal only to its own class.  Orbit, a plain slotted
class, refuses new attributes but not assignment to its two columns.  And
LevelDigraph has the default object repr."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from fcrystal.circseq import AllZero, PlusMinus
from fcrystal.crystal import DeltaReport, FCyclicCrystal, GammaReport, OrbitData, VerifyCheck
from fcrystal.digraph import ComponentStats, LevelDigraph, build_level_digraph
from fcrystal.permutation import Orbit, Permutation
from fcrystal.scan import ScanRecord

PI = Permutation((2, 1))
ORBIT = Orbit((1, 2), (2, 1))

# class, its field names in order, and one instance's values
RECORDS = [
    (AllZero, ["original_length"], (3,)),
    (PlusMinus, ["entries"], ((1, -1),)),
    (OrbitData, ["orbit", "epsilon", "census", "level"], (ORBIT, (-1, 1), ((1, 1),), 1)),
    (
        GammaReport,
        ["m_max", "gamma", "delta", "b", "stabilization", "stabilization_is_isomorphism_number", "ordinary", "orbits"],
        (2, (0, 1, 1), (1, 0), (0, 1), 1, True, None, ()),
    ),
    (
        VerifyCheck,
        ["orbit_index", "m", "formula_linear", "formula_circular", "oracle_linear", "oracle_circular"],
        (0, 5, 3, 2, 3, 2),
    ),
    (DeltaReport, ["nonincreasing", "strict_through_stabilization", "first_violation"], (True, False, None)),
    (ComponentStats, ["free_linear", "circular", "circular_edges", "zero_linear"], (1, 2, 3, 4)),
    (
        ScanRecord,
        [
            "r", "perm", "slopes", "m_max", "gamma", "delta", "b", "stabilization", "dieudonne", "ordinary",
            "minimal", "nonincreasing", "strict", "increasing_to_stab", "ratio", "minimal_matches_stab",
        ],
        (2, "(1 2)", (0, 1), 2, (0, 1, 1), (1, 0), (0, 1), 1, True, False, True, True, True, None, None, True),
    ),
    (Permutation, ["images"], ((2, 1),)),
    (FCyclicCrystal, ["pi", "slopes"], (PI, (0, 1))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def dataclass_twin(cls, names: list[str], **options):
    return dataclasses.make_dataclass(cls.__name__, names, **options)


@pytest.mark.parametrize("cls,names,values", RECORDS, ids=IDS)
def test_named_tuple_record_contract(cls, names, values):
    record = cls(*values)
    assert list(cls._fields) == names
    assert [getattr(record, name) for name in names] == list(values)
    assert record._asdict() == dict(zip(names, values))

    twin = dataclass_twin(cls, names, frozen=True)(*values)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin) == hash(cls(*values))
    assert record == cls(*values) and record == values  # the accepted change: equal to a plain tuple
    if cls not in (Permutation, FCyclicCrystal):  # their _replace checks the values, see below
        changed = record._replace(**{names[-1]: "other"})
        assert changed != record and getattr(changed, names[-1]) == "other"

    for name in [names[0], "unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record and type(copy.deepcopy(record)) is cls


def test_component_stats_repr_is_the_dataclass_text():
    assert repr(ComponentStats(1, 2, 3, 4)) == "ComponentStats(free_linear=1, circular=2, circular_edges=3, zero_linear=4)"
    assert repr(FCyclicCrystal(PI, (0, 1))) == "FCyclicCrystal(pi=Permutation(images=(2, 1)), slopes=(0, 1))"


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Permutation(()), "a permutation must act on at least one point"),
        (lambda: Permutation((1, 1)), "images (1, 1) are not a bijection of 1..2"),
        (lambda: Permutation((2, 3)), "images (2, 3) are not a bijection of 1..2"),
        (lambda: PI._replace(images=(1, 1)), "images (1, 1) are not a bijection of 1..2"),
        (lambda: Permutation._make([(3, 1)]), "images (3, 1) are not a bijection of 1..2"),
        (lambda: FCyclicCrystal(PI, (0,)), "need 2 slopes, got 1"),
        (lambda: FCyclicCrystal(PI, (0, 1, 1)), "need 2 slopes, got 3"),
        (lambda: FCyclicCrystal(PI, (0, -1)), "slopes must be nonnegative integers"),
        (lambda: FCyclicCrystal(PI, (0, 1))._replace(slopes=(-2, 1)), "slopes must be nonnegative integers"),
        (lambda: FCyclicCrystal(Permutation((1,)), ()), "need 1 slopes, got 0"),
    ],
)
def test_checked_records_keep_their_messages(make, message):
    # _make and _replace run the same checks as the constructor
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_orbit_is_a_slotted_record_whose_len_counts_points():
    twin = dataclass_twin(Orbit, ["first", "second"], frozen=True)((1, 2), (2, 1))
    assert repr(ORBIT) == repr(twin) == "Orbit(first=(1, 2), second=(2, 1))"
    assert hash(ORBIT) == hash(twin) == hash(Orbit((1, 2), (2, 1)))
    assert ORBIT == Orbit((1, 2), (2, 1)) and ORBIT != Orbit((1, 2), (1, 2))
    assert ORBIT != ((1, 2), (2, 1))  # not a tuple, so not equal to one
    assert len(ORBIT) == 2 and ORBIT.points == ((1, 2), (2, 1)) and len(Orbit((), ())) == 0
    with pytest.raises(AttributeError):
        ORBIT.unknown = ()
    assert not hasattr(ORBIT, "__dict__")
    assert pickle.loads(pickle.dumps(ORBIT)) == ORBIT and copy.copy(ORBIT) == ORBIT == copy.deepcopy(ORBIT)


def test_level_digraph_is_mutable_unhashable_and_equal_by_fields():
    names = ["s", "m", "succ", "pred", "weight", "mark"]
    values = (2, 1, [1, 0], [1, 0], [0, 0], [False, True])
    g = LevelDigraph(*values)
    assert [getattr(g, name) for name in names] == list(values)
    assert g == LevelDigraph(*copy.deepcopy(values)) and g != LevelDigraph(2, 1, [1, 0], [1, 0], [0, 0], [True, True])
    assert g != values
    with pytest.raises(TypeError):
        hash(g)
    assert g.zero_marks == frozenset({(0, 2)})  # a cached property, kept in the instance dict
    assert g == LevelDigraph(*values)  # the cache takes no part in equality
    g.mark = [False, False]
    assert g != LevelDigraph(*values)
    assert build_level_digraph((1, -1), 2) == build_level_digraph((1, -1), 2)
