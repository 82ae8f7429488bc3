"""Crystal symmetries, checked with no oracle: three maps of a crystal (pi, E)
that keep its scan record from m_max on, at level 2r + 2.

* pi -> pi^-1 reverses every orbit sequence.  It keeps every field.
* E -> max E - E negates every orbit sequence, and the negated sequence of the
  pair orbit of (i, j) is that of the orbit of (j, i), so it only permutes the
  pair orbits.  Alone or with pi^-1, it keeps gamma, delta, b and the
  stabilization level.  It may change the Dieudonne flag, and the fields that
  depend on it: slopes (2,) map to (0,).
* On Dieudonne crystals the two together are Cartier duality, and every field
  holds.

Each family is closed under the maps, so every record is computed once and
each map is a lookup.
"""

from __future__ import annotations

import pytest

from fcrystal.permutation import Permutation
from fcrystal.scan import ScanRecord, enumerate_family, scan_record

FIELDS = ScanRecord._fields[ScanRecord._fields.index("m_max") :]
TABLES = ("gamma", "delta", "b", "stabilization")


def inverse(pi: Permutation) -> Permutation:
    images = [0] * pi.size
    for i, image in enumerate(pi.images, start=1):
        images[image - 1] = i
    return Permutation(tuple(images))


def complement(slopes: tuple[int, ...]) -> tuple[int, ...]:
    top = max(slopes)
    return tuple(top - s for s in slopes)


def fields(record: ScanRecord, names) -> tuple:
    return tuple(getattr(record, name) for name in names)


def records(family: str, r: int, slope_max: int) -> dict:
    pairs: dict = {}
    return {
        (pi, slopes): scan_record(pi, slopes, 2 * r + 2, pairs=pairs)
        for pi, slopes in enumerate_family(family, r, slope_max)
    }


def test_inverse_is_an_involution_on_the_images():
    pi = Permutation((3, 1, 4, 2))
    assert inverse(pi) == Permutation((2, 4, 1, 3))
    assert inverse(inverse(pi)) == pi


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_all_fcrystal_symmetries(r):
    # every crystal of rank r with slopes 0..2
    table = records("all-fcrystal", r, 2)
    changed = 0
    for (pi, slopes), record in table.items():
        assert fields(table[inverse(pi), slopes], FIELDS) == fields(record, FIELDS), (pi, slopes)
        for image in (table[pi, complement(slopes)], table[inverse(pi), complement(slopes)]):
            assert fields(image, TABLES) == fields(record, TABLES), (pi, slopes)
        changed += fields(table[pi, complement(slopes)], FIELDS) != fields(record, FIELDS)
    # the complement does move the Dieudonne flag, so the tables are all it keeps
    assert changed


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_cartier_duality_on_all_dieudonne(r):
    # every Dieudonne crystal of rank r: pi -> pi^-1 with E -> max E - E keeps every field
    table = records("all-dieudonne", r, 1)
    for (pi, slopes), record in table.items():
        assert fields(table[inverse(pi), complement(slopes)], FIELDS) == fields(record, FIELDS), (pi, slopes)
