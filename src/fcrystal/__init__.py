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
    linear_count,
    normalize,
    normalize_full,
    run_census,
    second_reduction,
)
from .crystal import (
    DeltaReport,
    FCyclicCrystal,
    GammaReport,
    OrbitData,
    ResourceLimitError,
    VerifyCheck,
    class_tables,
    cycle_words,
    endo_exponent,
    gamma,
    gamma_table,
    is_minimal,
    is_minimal_words,
    newton_slopes,
    orbit_data,
    orbit_epsilon,
    pair_table,
    verify_sequence,
    verify_sweep,
)
from .digraph import (
    ComponentStats,
    LevelDigraph,
    build_level_digraph,
    classify_components,
    oracle_counts,
    pair_edges,
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
    "build_level_digraph",
    "circular_count",
    "circular_level",
    "class_tables",
    "classify_components",
    "cycle_decomposition",
    "cycle_string",
    "cycle_words",
    "endo_exponent",
    "first_reduction_step",
    "gamma",
    "gamma_table",
    "is_minimal",
    "is_minimal_words",
    "is_single_cycle",
    "linear_count",
    "newton_slopes",
    "normalize",
    "normalize_full",
    "oracle_counts",
    "orbit_data",
    "orbit_epsilon",
    "pair_edges",
    "pair_table",
    "parse_permutation",
    "product_orbits",
    "propagate_zeros",
    "run_census",
    "second_reduction",
    "to_dot",
    "verify_sequence",
    "verify_sweep",
    "__version__",
]
