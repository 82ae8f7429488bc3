"""The literal oracle as it was before the flat-list rewrite: tuple vertices, a
frozenset of zero marks, dict adjacency, mark propagation and a full
union-find.  Kept here as the differential reference for fcrystal.digraph; it
shares only the pair rule (pair_edges, itself checked against
pair_edges_case_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from fcrystal.digraph import ComponentStats, pair_edges

Vertex = tuple[int, int]
Arc = tuple[Vertex, Vertex, int]


@dataclass(frozen=True)
class LevelDigraph:
    """Vertices are (digit, position) pairs; zero_marks lists vertices forced to
    zero; edges are (source, target, weight) arcs in construction order."""

    s: int
    m: int
    zero_marks: frozenset[Vertex]
    edges: tuple[Arc, ...]

    def vertices(self) -> Iterator[Vertex]:
        for t in range(1, self.s + 1):
            for i in range(self.m):
                yield (i, t)

    @property
    def vertex_count(self) -> int:
        return self.m * self.s


def build_level_digraph(seq: tuple[int, ...], m: int) -> LevelDigraph:
    if len(seq) == 0:
        raise ValueError("a circular sequence must have at least one entry")
    if m < 1:
        raise ValueError("level must be at least 1")
    s = len(seq)

    if s == 1:
        if seq[0] == 0:
            loops = tuple(((i, 1), (i, 1), 0) for i in range(m))
            return LevelDigraph(1, m, frozenset(), loops)
        return LevelDigraph(1, m, frozenset((i, 1) for i in range(m)), ())

    marks: set[Vertex] = set()
    arcs: list[Arc] = []
    for t in range(1, s + 1):
        t_next = t % s + 1
        left, right, pair_arcs = pair_edges(seq[t - 1], seq[t % s], m)
        marks.update((i, t) for i in left)
        marks.update((j, t_next) for j in right)
        arcs.extend(((i, t), (j, t_next), w) for i, j, w in pair_arcs)
    return LevelDigraph(s, m, frozenset(marks), tuple(arcs))


def propagate_zeros(g: LevelDigraph) -> LevelDigraph:
    adjacency: dict[Vertex, list[Vertex]] = {}
    for src, dst, _w in g.edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, []).append(src)

    for v in g.zero_marks:
        if len(adjacency.get(v, ())) > 1:
            raise RuntimeError(f"zero mark at {v} has degree 2; it would lie on a cycle")

    marked = set(g.zero_marks)
    stack = list(marked)
    while stack:
        v = stack.pop()
        for u in adjacency.get(v, ()):
            if u not in marked:
                marked.add(u)
                stack.append(u)
    return LevelDigraph(g.s, g.m, frozenset(marked), g.edges)


def classify_components(g: LevelDigraph) -> ComponentStats:
    n = g.m * g.s
    parent = list(range(n))

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def key(vertex: Vertex) -> int:
        digit, pos = vertex
        return (pos - 1) * g.m + digit

    for src, dst, _w in g.edges:
        a, b = find(key(src)), find(key(dst))
        if a != b:
            parent[a] = b

    edge_count = [0] * n
    for src, _dst, _w in g.edges:
        edge_count[find(key(src))] += 1
    mark_count = [0] * n
    for v in g.zero_marks:
        mark_count[find(key(v))] += 1
    vertex_count = [0] * n
    for v in range(n):
        vertex_count[find(v)] += 1

    free_linear = circular = circular_edges = zero_linear = 0
    for root in range(n):
        if vertex_count[root] == 0:
            continue
        vertices, edges, marks = vertex_count[root], edge_count[root], mark_count[root]
        if edges == vertices:
            if marks:
                raise RuntimeError("circular component contains a zero mark")
            circular += 1
            circular_edges += edges
        elif edges == vertices - 1:
            if marks:
                zero_linear += 1
            else:
                free_linear += 1
        else:
            raise RuntimeError("component is neither a path nor a single cycle")
    return ComponentStats(free_linear, circular, circular_edges, zero_linear)


def oracle_counts(seq: tuple[int, ...], m: int) -> ComponentStats:
    return classify_components(propagate_zeros(build_level_digraph(seq, m)))


def to_dot(g: LevelDigraph) -> str:
    lines = ["digraph level {"]
    for i, t in g.vertices():
        attrs = ' [zero="1"]' if (i, t) in g.zero_marks else ""
        lines.append(f'  "{i}:{t}"{attrs};')
    for (i, t), (j, u), w in g.edges:
        lines.append(f'  "{i}:{t}" -> "{j}:{u}" [weight="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
