"""The literal oracle as it was before the flat-list rewrite: tuple vertices, a
frozenset of zero marks, dict adjacency, mark propagation and a full
union-find.  Kept here as the differential reference for fcrystal.digraph; it
shares only the pair rule, pair_edges.

flat_build_level_digraph and flat_classify_components are the flat-list
builder and classifier as they were before their loops were trimmed: marks
added through a generator per pair, the column base advanced by %, path starts
listed in a pass of their own and the unseen vertices listed even when every
vertex was seen.  They give fcrystal.digraph.LevelDigraph and ComponentStats,
so the tests compare the shipped functions with them field for field.

pair_edges_case_table, the eleven-case transcription of the pair rule that the
unified rule in fcrystal.digraph.pair_edges replaced, is kept here as the
reference the tests check pair_edges against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from fcrystal import digraph
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


def flat_build_level_digraph(seq: tuple[int, ...], m: int) -> digraph.LevelDigraph:
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
            return digraph.LevelDigraph(1, m, list(range(m)), list(range(m)), weight, mark)
        return digraph.LevelDigraph(1, m, [-1] * m, [-1] * m, weight, [True] * m)

    succ = [-1] * n
    pred = [-1] * n
    marked: list[int] = []
    base = 0
    for x, y in zip(seq, seq[1:] + seq[:1]):
        base_next = (base + m) % n
        left, right, pair_arcs = digraph.pair_edges(x, y, m)  # read where a test can patch it
        if left:
            marked.extend(base + i for i in left)
        if right:
            marked.extend(base_next + j for j in right)
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
    return digraph.LevelDigraph(s, m, succ, pred, weight, mark)


def flat_classify_components(g: digraph.LevelDigraph) -> ComponentStats:
    succ, pred, mark = g.succ, g.pred, g.mark
    seen = [False] * len(succ)
    free_linear = zero_linear = 0
    for v in [v for v, p in enumerate(pred) if p < 0]:
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


def pair_edges_case_table(eps_t: int, eps_next: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Literal eleven-case transcription of the pair rule, kept as an independent oracle.

    The eleven sign/size regions partition the (eps_t, eps_next) plane; each
    branch writes out its zero digits and arcs explicitly.
    """
    if m < 1:
        raise ValueError("level must be at least 1")
    x, y = eps_t, eps_next
    none: tuple[int, ...] = ()

    # (1) opposite entries of equal size below m: weight-0 arcs on the low digits
    if 0 < x == -y < m:
        return none, none, tuple((i, i, 0) for i in range(m - x))
    # (2) nonpositive left, nonnegative right: full column of weight-0 arcs
    if x <= 0 <= y:
        return none, none, tuple((i, i, 0) for i in range(m))
    # (3) small nonnegative left, deeper negative right (gap below m)
    if 0 <= x < -y < m:
        left = tuple(range(-y - x))
        arcs = tuple((-y - x + u, u, x + y) for u in range(m + y))
        return left, none, arcs
    # (4) nonnegative left below m, right at depth m or more: left column dies to digit m - x
    if 0 <= x < m <= -y:
        return tuple(range(m - x)), none, ()
    # (5) positive left dominating a shallower negative right
    if 0 <= -y < x < m:
        right = tuple(range(x + y))
        arcs = tuple((u, x + y + u, x + y) for u in range(m - x))
        return none, right, arcs
    # (6) left at m or more, shallow negative right: right column dies to digit m + y
    if 0 <= -y < m <= x:
        return none, tuple(range(m + y)), ()
    # (7) both saturated: nothing survives, nothing connects
    if x >= m and y <= -m:
        return none, none, ()
    # (8) negative left, negative right below depth m
    if x < 0 < -y < m:
        left = tuple(range(-y))
        arcs = tuple((-y + u, u, y) for u in range(m + y))
        return left, none, arcs
    # (9) negative left, right at depth m or more: whole left column dies
    if x < 0 and -y >= m:
        return tuple(range(m)), none, ()
    # (10) positive left below m, positive right
    if 0 < x < m and y > 0:
        right = tuple(range(x))
        arcs = tuple((u, x + u, x) for u in range(m - x))
        return none, right, arcs
    # (11) left at m or more, positive right: whole right column dies
    if x >= m and y > 0:
        return none, tuple(range(m)), ()

    raise AssertionError(f"unreachable: ({x}, {y}) escaped the case split")
