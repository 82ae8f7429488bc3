"""Level automorphism and endomorphism invariants of F-cyclic F-crystals.

The library computes, for a crystal given by a permutation and integer Hodge
slopes, the dimension gamma(m) of its level-m automorphism group scheme and
the exponent b(m) with p^{b(m)} connected components of its endomorphism
algebra.  Two independent routes are provided: closed combinatorial formulas
on circular difference sequences, and a literal level-digraph census used as
an oracle to verify the formulas.
"""

from .circseq import (
    AllZero,
    CircularSeq,
    NormalizedSeq,
    PlusMinus,
    circular_count,
    circular_level,
    first_reduction_step,
    level_counts,
    linear_count,
    normalize,
    normalize_full,
    run_census,
    second_reduction,
    segment_census,
)
from .crystal import (
    DeltaReport,
    FCyclicCrystal,
    GammaReport,
    OrbitData,
    ResourceLimitError,
    VerifyCheck,
    VerifyReport,
    endo_exponent,
    gamma,
    gamma_table,
    is_minimal,
    newton_slopes,
    orbit_data,
    orbit_epsilon,
    verify_formula_vs_oracle,
    verify_sequence,
)
from .digraph import (
    ComponentStats,
    LevelDigraph,
    build_level_digraph,
    classify_components,
    oracle_counts,
    pair_edges,
    pair_edges_case_table,
    propagate_zeros,
    to_dot,
)
from .permutation import (
    Orbit,
    ParseError,
    Permutation,
    cycle_decomposition,
    cycle_string,
    is_single_cycle,
    parse_permutation,
    product_orbits,
)

__version__ = "0.1.0"

__all__ = [
    "AllZero",
    "CircularSeq",
    "ComponentStats",
    "DeltaReport",
    "FCyclicCrystal",
    "GammaReport",
    "LevelDigraph",
    "NormalizedSeq",
    "Orbit",
    "OrbitData",
    "ParseError",
    "Permutation",
    "PlusMinus",
    "ResourceLimitError",
    "VerifyCheck",
    "VerifyReport",
    "build_level_digraph",
    "circular_count",
    "circular_level",
    "classify_components",
    "cycle_decomposition",
    "cycle_string",
    "endo_exponent",
    "first_reduction_step",
    "gamma",
    "gamma_table",
    "is_minimal",
    "is_single_cycle",
    "level_counts",
    "linear_count",
    "newton_slopes",
    "normalize",
    "normalize_full",
    "oracle_counts",
    "orbit_data",
    "orbit_epsilon",
    "pair_edges",
    "pair_edges_case_table",
    "parse_permutation",
    "product_orbits",
    "propagate_zeros",
    "run_census",
    "second_reduction",
    "segment_census",
    "to_dot",
    "verify_formula_vs_oracle",
    "verify_sequence",
    "__version__",
]
