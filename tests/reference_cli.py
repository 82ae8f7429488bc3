"""The scan row renderer as it was before scan output was streamed: every
crystal's pieces in one list, joined once into one text.  Kept here as the
differential reference for fcrystal.cli._scan_rows, which yields the same text
in chunks of cli._SCAN_CHUNK crystals.
"""

from __future__ import annotations

from typing import Iterable


def scan_rows(
    before: str, heads: Iterable[str], cells: list[str], tails: list[str], rows: Iterable[Iterable[int]], sep: str,
    after: str,
) -> str:
    """A scan's csv lines or json records as one text: before, then for each
    crystal (perms[p], slopes[s]) of class c in enumeration order heads[p] +
    cells[s] + tails[c], with sep between crystals, then after.  The pieces
    are one list, filled a permutation at a time by slice assignment into a
    block whose cells stay in place, and joined once."""
    ended = [tail + sep for tail in tails]
    n = len(cells)
    block = [""] * (3 * n)
    block[1::3] = cells
    pieces = [before]
    for head, row in zip(heads, rows):
        block[::3] = [head] * n
        block[2::3] = map(ended.__getitem__, row)
        pieces += block
    pieces[-1] = pieces[-1][: len(pieces[-1]) - len(sep)] + after  # a scan has at least one crystal
    return "".join(pieces)
