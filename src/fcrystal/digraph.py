"""The level digraph of a circular sequence, built literally and classified.

The level-m digraph of a circular sequence (eps_1..eps_s) has vertices x_{i,t}
for digits 0 <= i < m and positions 1 <= t <= s.  Each cyclically adjacent pair
(eps_t, eps_{t+1}) contributes weighted arcs from column t to column t+1 and
marks some vertices of the two columns as zero.  The rule comes from reading
the congruence p^a * y^(p^(a-b+1)) = p^b * z digit by digit modulo p^m with
a = max(eps_t, 0) and b = max(0, -eps_{t+1}):

* digits of column t below min(b, m) - a are forced to zero,
* digits of column t+1 below min(a, m) - b are forced to zero,
* digit level l of the congruence, for max(a, b) <= l <= m - 1, matches source
  digit l - a with target digit l - b along an arc of weight a - b.

Every vertex has in- and out-degree at most one, so the graph is a disjoint
union of simple paths and cycles, and a marked vertex never lies between two
arcs; the builder checks both as it goes.  Classification is one walk over
the predecessor list: each vertex with no predecessor starts a path, followed
to its end on the spot.  Every vertex no path reaches lies on a cycle; only
when such a vertex is left are the unseen vertices listed and each cycle
walked once.  Components are counted as

* circular: a cycle (a one-vertex loop counts),
* zero linear: a path containing a marked vertex,
* free linear: a path with no marked vertex.

This module is the oracle half of the library: deliberately literal, used to
cross-check the closed-form counts in circseq, and importing nothing from it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

CircularSeq = tuple[int, ...]
Vertex = tuple[int, int]
Arc = tuple[Vertex, Vertex, int]


class LevelDigraph:
    """Level-m digraph of a circular sequence of length s, held as flat lists.

    Vertex (digit, position), with 0 <= digit < m and 1 <= position <= s, has
    index (position - 1) * m + digit.  succ[v] and pred[v] are the index of its
    successor and predecessor, or -1; weight[v] is the weight of the arc out of
    v; mark[v] says v is forced to zero.  zero_marks and edges read the same
    graph as (digit, position) pairs, the edges ordered by source vertex.
    """

    def __init__(self, s: int, m: int, succ: list[int], pred: list[int], weight: list[int], mark: list[bool]) -> None:
        self.s, self.m, self.succ, self.pred, self.weight, self.mark = s, m, succ, pred, weight, mark

    def __eq__(self, other) -> bool:
        if type(other) is not LevelDigraph:
            return NotImplemented
        return (self.s, self.m, self.succ, self.pred, self.weight, self.mark) == (
            other.s, other.m, other.succ, other.pred, other.weight, other.mark)

    __hash__ = None  # type: ignore[assignment]

    def vertices(self) -> Iterator[Vertex]:
        for t in range(1, self.s + 1):
            for i in range(self.m):
                yield (i, t)

    @property
    def vertex_count(self) -> int:
        return self.m * self.s

    def _vertex(self, v: int) -> Vertex:
        return (v % self.m, v // self.m + 1)

    @cached_property
    def zero_marks(self) -> frozenset[Vertex]:
        return frozenset(self._vertex(v) for v, marked in enumerate(self.mark) if marked)

    @cached_property
    def edges(self) -> tuple[Arc, ...]:
        return tuple(
            (self._vertex(v), self._vertex(u), self.weight[v]) for v, u in enumerate(self.succ) if u >= 0
        )


class ComponentStats(NamedTuple):
    """Component census of a level digraph."""

    free_linear: int
    circular: int
    circular_edges: int
    zero_linear: int


# Bounded, so a long random sweep of wide entries holds at most about 16 MB of
# it; the 2,890 keys of entries within +-8 at levels up to 10 all fit.
@lru_cache(maxsize=2**15)
def pair_edges(eps_t: int, eps_next: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Marks and arcs contributed by one adjacent pair, from the digit-matching rule.

    Returns (left_zeros, right_zeros, arcs): digits of column t forced to zero,
    digits of column t+1 forced to zero, and (source_digit, target_digit, weight)
    triples.  Pure, with a bounded cache.  One rule covers the eleven sign and
    size regions of (eps_t, eps_next) that the tests transcribe case by case.

    The pair is read only through a = max(eps_t, 0) and b = max(0, -eps_next),
    and only through min(a, m) and min(b, m).  Once a >= m or b >= m, no digit
    l has max(a, b) <= l < m, so no arc remains.  The marks saturate: the left
    count min(b, m) - a reads b only through min(b, m), and is at most 0 once
    a >= m, whatever a is; the right count min(a, m) - b likewise with a and b
    swapped.  So clamping both entries into [-m, m] leaves the marks and arcs
    as they are, and the level-m digraph of a sequence equals that of the
    sequence with every entry clamped into [-m, m].

    Past both entries the pair only grows.  Once m >= max(a, b), min(b, m) = b
    and min(a, m) = a, so the left marks are the digits below b - a and the
    right ones those below a - b, whatever m is; and the digits l with
    max(a, b) <= l < m + 1 are those of level m plus l = m, so level m + 1
    keeps level m's marks and arcs and appends the one arc (m - a, m - b,
    a - b).  That each level past every pair's max(a, b) then extends each
    path, and adds one cycle exactly when the sequence sums to 0, is not
    argued here: the tests check it on a box only.
    """
    if m < 1:
        raise ValueError("level must be at least 1")
    a = max(eps_t, 0)
    b = max(0, -eps_next)
    left = tuple(range(max(0, min(b, m) - a)))
    right = tuple(range(max(0, min(a, m) - b)))
    arcs = tuple((l - a, l - b, a - b) for l in range(max(a, b), m))
    return left, right, arcs


def build_level_digraph(seq: CircularSeq, m: int) -> LevelDigraph:
    """Assemble the level-m digraph of a circular sequence.

    A single entry is its own cyclic successor: a lone zero gives m one-vertex
    loops, a lone nonzero entry kills its whole column.  Raises RuntimeError if
    the pair rule would give a vertex a second arc in or out, or mark a vertex
    that has arcs both ways.
    """
    if len(seq) == 0:
        raise ValueError("a circular sequence must have at least one entry")
    if m < 1:
        raise ValueError("level must be at least 1")
    s = len(seq)
    n = s * m
    weight = [0] * n
    mark = [False] * n

    if s == 1:
        if seq[0] == 0:
            return LevelDigraph(1, m, list(range(m)), list(range(m)), weight, mark)
        return LevelDigraph(1, m, [-1] * m, [-1] * m, weight, [True] * m)

    succ = [-1] * n
    pred = [-1] * n
    marked: list[int] = []
    base = 0
    for x, y in zip(seq, seq[1:] + seq[:1]):
        base_next = base + m
        if base_next == n:  # the last column's successor is the first
            base_next = 0
        left, right, pair_arcs = pair_edges(x, y, m)
        for i in left:
            marked.append(base + i)
        for j in right:
            marked.append(base_next + j)
        for i, j, w in pair_arcs:
            u = base + i
            v = base_next + j
            if succ[u] >= 0 or pred[v] >= 0:
                t, t_next = base // m + 1, base_next // m + 1
                raise RuntimeError(f"arc {i}:{t} -> {j}:{t_next} gives a vertex a second arc")
            succ[u] = v
            pred[v] = u
            weight[u] = w
        base = base_next
    for v in marked:
        mark[v] = True
        if succ[v] >= 0 and pred[v] >= 0:
            raise RuntimeError(f"zero mark at {v % m}:{v // m + 1} has degree 2: an arc in and an arc out")
    return LevelDigraph(s, m, succ, pred, weight, mark)


def propagate_zeros(g: LevelDigraph) -> LevelDigraph:
    """Spread zero marks along arcs in both directions.

    build_level_digraph already refused a marked vertex with arcs both ways, so
    a mark sits at the end of a path or alone, and spreading it marks its whole
    path.
    """
    succ, pred = g.succ, g.pred
    mark = list(g.mark)
    for v, marked in enumerate(g.mark):
        if not marked:
            continue
        for step in (succ, pred):
            u = step[v]
            while u >= 0 and not mark[u]:
                mark[u] = True
                u = step[u]
    return LevelDigraph(g.s, g.m, succ, pred, g.weight, mark)


def classify_components(g: LevelDigraph) -> ComponentStats:
    """Count components by kind.

    Each path is walked from its vertex with no predecessor to its end, met in
    one pass over pred, and is zero linear if any vertex on it is marked.  Every
    vertex left unvisited lies on a cycle, walked once and counted with its
    edges; a mark there is an error.  With no vertex left there is no cycle.
    Marks are read as path properties, so the counts do not depend on whether
    propagate_zeros already ran.
    """
    succ, pred, mark = g.succ, g.pred, g.mark
    seen = [False] * len(succ)
    free_linear = zero_linear = 0
    for v, p in enumerate(pred):
        if p >= 0:
            continue
        zero = False
        while v >= 0:
            if seen[v]:
                raise RuntimeError("component is neither a path nor a single cycle")
            seen[v] = True
            if mark[v]:
                zero = True
            v = succ[v]
        if zero:
            zero_linear += 1
        else:
            free_linear += 1

    if False not in seen:  # every vertex lies on a path: no cycle
        return ComponentStats(free_linear, 0, 0, zero_linear)
    circular = circular_edges = 0
    for start in [v for v, visited in enumerate(seen) if not visited]:
        if seen[start]:
            continue
        v = start
        while True:
            if mark[v]:
                raise RuntimeError("circular component contains a zero mark")
            seen[v] = True
            circular_edges += 1
            v = succ[v]
            if v == start:
                break
            if v < 0 or seen[v]:
                raise RuntimeError("component is neither a path nor a single cycle")
        circular += 1
    return ComponentStats(free_linear, circular, circular_edges, zero_linear)


def oracle_counts(seq: CircularSeq, m: int) -> ComponentStats:
    """Build, classify: the literal component census of the level-m digraph."""
    return classify_components(build_level_digraph(seq, m))


def to_dot(g: LevelDigraph) -> str:
    """Dump in DOT format: vertices named "digit:position", arcs labelled by weight,
    zero-marked vertices flagged with a zero attribute."""
    lines = ["digraph level {"]
    for i, t in g.vertices():
        attrs = ' [zero="1"]' if (i, t) in g.zero_marks else ""
        lines.append(f'  "{i}:{t}"{attrs};')
    for (i, t), (j, u), w in g.edges:
        lines.append(f'  "{i}:{t}" -> "{j}:{u}" [weight="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
