"""Permutations of {1..r}, their cycles, and orbits of the doubled action on pairs.

A pair orbit is stored as its two columns, the i's and the j's of its pairs
(i, j) in cyclic order, so building the r*r points of all orbits writes r*r ints
into tuples and no tuple per point; Orbit.points zips the columns on demand.
Permutation is a named tuple that checks its images as it is made; Orbit is a
plain slotted class, because its len counts points, not fields.
"""

from __future__ import annotations

import re
from collections import Counter
from math import gcd
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    """Malformed permutation text; the message points at the offending token."""


class Permutation(NamedTuple("Permutation", [("images", tuple[int, ...])])):
    """A bijection of {1..r} stored as its image tuple: images[i-1] is the image of i."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> "Permutation":
        r = len(images)
        if r < 1:
            raise ValueError("a permutation must act on at least one point")
        if sorted(images) != list(range(1, r + 1)):
            raise ValueError(f"images {images!r} are not a bijection of 1..{r}")
        return super().__new__(cls, images)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks the images too

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls(tuple(range(1, r + 1)))


class Orbit:
    """One orbit of (i, j) -> (pi(i), pi(j)) on pairs, in cyclic order from its
    smallest point, as two columns: point k is (first[k], second[k])."""

    __slots__ = ("first", "second")

    def __init__(self, first: tuple[int, ...], second: tuple[int, ...]) -> None:
        self.first, self.second = first, second

    def __eq__(self, other) -> bool:
        return (self.first, self.second) == (other.first, other.second) if type(other) is Orbit else NotImplemented

    def __hash__(self) -> int:
        return hash((self.first, self.second))

    def __repr__(self) -> str:
        return f"Orbit(first={self.first!r}, second={self.second!r})"

    def __len__(self) -> int:
        return len(self.first)

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.first, self.second))


_TOKEN = re.compile(r"\(|\)|[0-9]+|[\s,]+|.")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # Token kinds: "(" / ")" / "num" with its digits; separators are dropped, anything else is an error.
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if tok in "()":
            tokens.append((tok, tok, match.start()))
        elif tok[0] in "0123456789":
            tokens.append(("num", tok, match.start()))
        elif tok[0] in ", \t\r\n":
            continue
        else:
            raise ParseError(f"unexpected character {tok!r} at position {match.start()}")
    return tokens


def _check_point(digits: str, r: int, pos: int) -> int:
    """The point a token's digits name, if it lies in 1..r.  Digits longer than
    r's are out of range unread: int() refuses strings past its digit limit."""
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= len(str(r)) else 0
    if not 1 <= value <= r:
        raise ParseError(f"point {digits} at position {pos} is outside 1..{r}")
    return value


def parse_permutation(text: str, r: int) -> Permutation:
    """Parse one-line form ("2 3 1", "2,3,1") or cycle form ("(1 2 3)", "(1 3)(2 4)").

    In cycle form, points left unmentioned are fixed.  Raises ParseError with the
    character position of the first offending token.
    """
    if r < 1:
        raise ParseError("r must be a positive integer")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty permutation text")

    if tokens[0][0] == "(":
        return _parse_cycles(tokens, r)

    images: list[int] = []
    for kind, digits, pos in tokens:
        if kind != "num":
            raise ParseError(f"unexpected {kind!r} at position {pos} in one-line form")
        images.append(_check_point(digits, r, pos))
    if len(images) != r:
        raise ParseError(f"one-line form needs exactly {r} images, got {len(images)}")
    if len(set(images)) != r:
        dup = next(v for v, count in Counter(images).items() if count > 1)  # in order of first place
        raise ParseError(f"image {dup} repeats in one-line form")
    return Permutation(tuple(images))


def _parse_cycles(tokens: list[tuple[str, str, int]], r: int) -> Permutation:
    images = list(range(1, r + 1))
    seen: set[int] = set()
    idx = 0
    while idx < len(tokens):
        kind, _, pos = tokens[idx]
        if kind != "(":
            raise ParseError(f"expected '(' at position {pos}")
        idx += 1
        cycle: list[int] = []
        while idx < len(tokens) and tokens[idx][0] == "num":
            _, digits, pos = tokens[idx]
            value = _check_point(digits, r, pos)
            if value in seen:
                raise ParseError(f"point {value} at position {pos} appears twice")
            seen.add(value)
            cycle.append(value)
            idx += 1
        if idx >= len(tokens) or tokens[idx][0] != ")":
            raise ParseError("unbalanced parentheses in cycle form")
        if not cycle:
            raise ParseError(f"empty cycle at position {tokens[idx][2]}")
        idx += 1
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its minimum, sorted by that minimum. Fixed points included.
    The walk indexes the image tuple, padded so that point j's image is images[j]."""
    images = (0, *p.images)
    seen = [False] * len(images)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, len(images)):
        if seen[start]:
            continue
        cycle = [start]  # start is never visited again, so it needs no mark
        j = images[start]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = images[j]
        cycles.append(tuple(cycle))
    return cycles


def cycle_string(p: Permutation) -> str:
    """Cycle form with fixed points written out, e.g. "(1 2)(3)". Re-parses to the same permutation."""
    return cycles_text(cycle_decomposition(p))


def cycles_text(cycles: Iterable[tuple[int, ...]]) -> str:
    """cycle_string from a permutation's cycles as cycle_decomposition lists them."""
    return "".join(["(" + " ".join(map(str, cycle)) + ")" for cycle in cycles])


def is_single_cycle(p: Permutation) -> bool:
    """True when the permutation is one r-cycle on all of 1..r."""
    return len(cycle_decomposition(p)) == 1


def product_orbits(p: Permutation) -> list[Orbit]:
    """All orbits of the doubled action on pairs, sorted by smallest point, each
    listed in cyclic order from that point.

    Built from pairs of cycles (each cycle starts at its minimum, as in
    cycle_decomposition).  Cycles A and B of lengths a and b give g = gcd(a, b)
    orbits of length L = lcm(a, b), so the orbit lengths sum to r*r.  Orbit k
    holds the pairs (A[s], B[t]) with t - s = k (mod g).  Its pairs that start
    with A[0] are those with t = k (mod g), so its smallest point is
    (A[0], min(B[k::g])); from there its first column is A repeated L/a times,
    one tuple shared by all g orbits of the pair, and its second column is B
    rotated to that minimum, repeated L/b times.
    """
    cycles = cycle_decomposition(p)
    orbits: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
    for a_cycle in cycles:
        for b_cycle in cycles:
            g = gcd(len(a_cycle), len(b_cycle))
            first = a_cycle * (len(b_cycle) // g)
            b_reps = len(a_cycle) // g
            for k in range(g):
                low = min(b_cycle[k::g]) if k else b_cycle[0]  # B[0] is the minimum of B
                j = b_cycle.index(low)
                orbits.append((a_cycle[0], low, first, (b_cycle[j:] + b_cycle[:j]) * b_reps))
    # the smallest points are distinct, so sorting compares nothing past them
    return [Orbit(first, second) for _, _, first, second in sorted(orbits)]
