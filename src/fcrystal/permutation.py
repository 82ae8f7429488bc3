"""Permutations of {1..r}, their cycles, and orbits of the doubled action on pairs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd


class ParseError(ValueError):
    """Malformed permutation text; the message points at the offending token."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..r} stored as its image tuple: images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.images)
        if r < 1:
            raise ValueError("a permutation must act on at least one point")
        if sorted(self.images) != list(range(1, r + 1)):
            raise ValueError(f"images {self.images!r} are not a bijection of 1..{r}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls(tuple(range(1, r + 1)))


@dataclass(frozen=True)
class Orbit:
    """One orbit of (i, j) -> (pi(i), pi(j)) on pairs, in cyclic order from its smallest point."""

    points: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.points)


_TOKEN = re.compile(r"\(|\)|\d+|[\s,]+|.")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    # Token kinds: "(" / ")" / "num"; separators are dropped, anything else is an error.
    tokens: list[tuple[str, int, int]] = []
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if tok in "()":
            tokens.append((tok, 0, match.start()))
        elif tok[0].isdigit():
            tokens.append(("num", int(tok), match.start()))
        elif tok[0] in ", \t\r\n":
            continue
        else:
            raise ParseError(f"unexpected character {tok!r} at position {match.start()}")
    return tokens


def _check_point(value: int, r: int, pos: int) -> None:
    if not 1 <= value <= r:
        raise ParseError(f"point {value} at position {pos} is outside 1..{r}")


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
    for kind, value, pos in tokens:
        if kind != "num":
            raise ParseError(f"unexpected {kind!r} at position {pos} in one-line form")
        _check_point(value, r, pos)
        images.append(value)
    if len(images) != r:
        raise ParseError(f"one-line form needs exactly {r} images, got {len(images)}")
    if len(set(images)) != r:
        dup = next(v for v in images if images.count(v) > 1)
        raise ParseError(f"image {dup} repeats in one-line form")
    return Permutation(tuple(images))


def _parse_cycles(tokens: list[tuple[str, int, int]], r: int) -> Permutation:
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
            _, value, pos = tokens[idx]
            _check_point(value, r, pos)
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
    """Disjoint cycles, each starting at its minimum, sorted by that minimum. Fixed points included."""
    seen = [False] * (p.size + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, p.size + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = p(start)
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = p(j)
        cycles.append(tuple(cycle))
    return cycles


def cycle_string(p: Permutation) -> str:
    """Cycle form with fixed points written out, e.g. "(1 2)(3)". Re-parses to the same permutation."""
    return "".join("(" + " ".join(str(i) for i in cycle) + ")" for cycle in cycle_decomposition(p))


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
    (A[0], min(B[k::g])); from there it is A repeated L/a times zipped with B,
    rotated to that minimum, repeated L/b times.
    """
    cycles = cycle_decomposition(p)
    orbits: list[tuple[tuple[int, int], ...]] = []
    for a_cycle in cycles:
        for b_cycle in cycles:
            g = gcd(len(a_cycle), len(b_cycle))
            a_reps, b_reps = len(b_cycle) // g, len(a_cycle) // g
            for k in range(g):
                j = b_cycle.index(min(b_cycle[k::g])) if k else 0  # B[0] is the minimum of B
                orbits.append(tuple(zip(a_cycle * a_reps, (b_cycle[j:] + b_cycle[:j]) * b_reps)))
    # the first points are distinct, so sorting compares nothing past them
    return [Orbit(points) for points in sorted(orbits)]
