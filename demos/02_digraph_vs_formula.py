"""Build a level digraph literally, then reproduce its counts in closed form.

The circular sequence (3, 0, -1, -2) is small enough to print whole.  Its
level-5 digraph splits into free linear, zero linear, and circular components;
the closed formulas recover the free linear and circular counts from the sign
normal form alone, without touching the graph.
"""

from __future__ import annotations

from fcrystal import (
    build_level_digraph,
    circular_count,
    linear_count,
    normalize,
    oracle_counts,
    propagate_zeros,
    run_census,
    to_dot,
)
from fcrystal.circseq import census_levels

SEQ = (3, 0, -1, -2)
M = 5


def main() -> None:
    print(f"sequence {SEQ}, level {M}")
    print()

    graph = propagate_zeros(build_level_digraph(SEQ, M))
    print(f"digraph: {graph.vertex_count} vertices, {len(graph.edges)} arcs, "
          f"{len(graph.zero_marks)} zero-marked vertices")
    print(to_dot(graph))

    stats = oracle_counts(SEQ, M)
    print(f"census by classification: free_linear={stats.free_linear} "
          f"circular={stats.circular} zero_linear={stats.zero_linear}")
    print(f"each circular component uses one arc per position: "
          f"{stats.circular_edges} = {stats.circular} * {len(SEQ)}")
    print()

    norm = normalize(SEQ, M)
    print(f"sign normal form: {norm}")
    print(f"balanced segments at levels 0..{M}: {census_levels(run_census(SEQ)[0], M)}")
    print(f"closed forms: linear_count={linear_count(SEQ, M)} "
          f"circular_count={circular_count(SEQ, M)}")
    print()
    print("both routes agree; the test suite checks this exhaustively.")


if __name__ == "__main__":
    main()
