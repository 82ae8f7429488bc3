"""F-cyclic F-crystals and their level invariants.

An F-cyclic F-crystal is a triple (r, pi, E): Frobenius permutes a basis of
rank r by pi and scales basis vector i by p^{E[i]}.  Its level-m automorphism
group scheme has dimension gamma(m) and its level-m endomorphism algebra has
p^{b(m)} connected components; both reduce to component counts of level
digraphs, one per orbit of pi acting on basis pairs:

* gamma(m) sums the free linear counts of the orbit difference sequences,
* b(m) sums circular count times orbit length (each circular component of an
  orbit contributes one edge per orbit position).

The closed forms from circseq make both computable without building a single
digraph.  orbit_data walks the pair orbits once and keeps, per orbit, its run
census (segment level ranges) and circular level, exact at every level at once
and costing one stack pass over the orbit's runs, whatever the slope sizes;
gamma, endo_exponent and gamma_table all read those records.  Formula and
oracle meet in one place, _check, which builds every VerifyCheck and raises
RuntimeError unless circular components carry circular * length edges:
verify_formula_vs_oracle runs it per orbit record and level, and
verify_sequence on one bare sequence, returning the oracle's stats as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .circseq import Census, CircularSeq, circular_at, linear_at, run_census
from .digraph import ComponentStats, oracle_counts
from .permutation import Orbit, Permutation, cycle_decomposition, is_single_cycle, parse_permutation, product_orbits


class ResourceLimitError(RuntimeError):
    """An estimated workload exceeds the configured budget."""


DEFAULT_VERTEX_BUDGET = 10_000_000


@dataclass(frozen=True)
class FCyclicCrystal:
    """Rank, basis permutation, and nonnegative Hodge exponents, one per basis vector."""

    pi: Permutation
    slopes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.slopes) != self.pi.size:
            raise ValueError(f"need {self.pi.size} slopes, got {len(self.slopes)}")
        if any(e < 0 for e in self.slopes):
            raise ValueError("slopes must be nonnegative integers")

    @property
    def r(self) -> int:
        return self.pi.size

    @property
    def is_dieudonne(self) -> bool:
        """True when every slope is 0 or 1, i.e. the crystal is a Dieudonne module."""
        return all(e in (0, 1) for e in self.slopes)

    @property
    def is_circular(self) -> bool:
        return is_single_cycle(self.pi)

    @property
    def codimension(self) -> int:
        return sum(1 for e in self.slopes if e == 0)

    @property
    def dimension(self) -> int:
        return sum(1 for e in self.slopes if e != 0)

    @classmethod
    def from_text(cls, r: int, perm_text: str, slopes: tuple[int, ...]) -> "FCyclicCrystal":
        return cls(parse_permutation(perm_text, r), tuple(slopes))


@dataclass(frozen=True)
class OrbitData:
    """One pair orbit with its slope-difference sequence, its balanced-segment
    census as level ranges (see circseq.run_census) and its circular level (None
    when the sequence does not balance, 0 when it is all zero); exact at every
    level."""

    orbit: Orbit
    epsilon: tuple[int, ...]
    census: Census
    level: Optional[int]


@dataclass(frozen=True)
class GammaReport:
    """gamma and b tables up to m_max with the stabilization level.

    gamma[n] is the automorphism dimension at level n (gamma[0] = 0); delta[n-1]
    is gamma(n) - gamma(n-1); b[n-1] is the component exponent at level n.
    stabilization is the least level past which gamma is constant; it equals the
    isomorphism number of the crystal when the Dieudonne flag is set, and is
    reported without that interpretation otherwise.  orbits holds the per-orbit
    records the tables were built from.
    """

    m_max: int
    gamma: tuple[int, ...]
    delta: tuple[int, ...]
    b: tuple[int, ...]
    stabilization: int
    stabilization_is_isomorphism_number: bool
    ordinary: Optional[bool]
    orbits: tuple[OrbitData, ...]

    def monotonicity(self) -> DeltaReport:
        """Check the increments: never increasing, and strictly decreasing
        through the stabilization level (the whole range when m_max is at
        least stabilization + 1)."""
        delta = self.delta
        first_violation: Optional[int] = None
        for n in range(1, self.m_max):
            if delta[n] > delta[n - 1]:
                first_violation = n
                break
        strict = all(
            delta[n] < delta[n - 1]
            for n in range(1, min(self.stabilization + 1, self.m_max))
        )
        return DeltaReport(
            nonincreasing=first_violation is None,
            strict_through_stabilization=strict,
            first_violation=first_violation,
        )


@dataclass(slots=True)
class VerifyCheck:
    """One formula-vs-oracle comparison: orbit, level, and both sides' counts.
    Not frozen: a verify sweep builds one per random sequence, and a frozen
    dataclass's __init__ costs three times as much."""

    orbit_index: int
    m: int
    formula_linear: int
    formula_circular: int
    oracle_linear: int
    oracle_circular: int

    @property
    def match(self) -> bool:
        return (
            self.formula_linear == self.oracle_linear
            and self.formula_circular == self.oracle_circular
        )


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def mismatches(self) -> tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.match)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class DeltaReport:
    """Monotonicity diagnostics for the gamma increments."""

    nonincreasing: bool
    strict_through_stabilization: bool
    first_violation: Optional[int]


def orbit_epsilon(crystal: FCyclicCrystal, orbit: Orbit) -> tuple[int, ...]:
    """Slope differences E[i] - E[j] along the orbit."""
    e = crystal.slopes
    return tuple(e[i - 1] - e[j - 1] for i, j in orbit.points)


def orbit_data(crystal: FCyclicCrystal) -> list[OrbitData]:
    """One walk of the pair orbits, one exact record per orbit (unclamped and
    uncapped, so it serves every level at once)."""
    out = []
    for orbit in product_orbits(crystal.pi):
        eps = orbit_epsilon(crystal, orbit)
        out.append(OrbitData(orbit, eps, *run_census(eps)))
    return out


def gamma(crystal: FCyclicCrystal, m: int) -> int:
    """Dimension of the level-m automorphism group scheme (gamma(0) = 0)."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    if m == 0:
        return 0
    return sum(linear_at(data.census, m) for data in orbit_data(crystal))


def endo_exponent(crystal: FCyclicCrystal, m: int) -> int:
    """Exponent b with p^b connected components in the level-m endomorphism algebra.

    Each orbit whose difference sequence balances at level lam contributes
    (m - lam) circular components when m > lam, and each of those carries one
    edge per orbit position, hence the factor len(orbit).  Exact integer, no
    overflow concerns at any size.
    """
    if m < 1:
        raise ValueError("level must be at least 1")
    return sum(circular_at(data.level, m) * len(data.orbit) for data in orbit_data(crystal))


def gamma_table(crystal: FCyclicCrystal, m_max: int) -> GammaReport:
    """gamma(0..m_max), increments, b(1..m_max), and the stabilization level."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    orbits = orbit_data(crystal)

    delta = [0] * (m_max + 1)
    for data in orbits:
        for lo, hi in data.census:
            for level in range(lo, min(hi, m_max) + 1):
                delta[level] += 1
    stabilization = max((hi for data in orbits for _lo, hi in data.census), default=0)

    gammas = [0] * (m_max + 1)
    for n in range(1, m_max + 1):
        gammas[n] = gammas[n - 1] + delta[n]

    # b(n) depends only on the total orbit length at each circular level.
    lengths: dict[int, int] = {}
    for data in orbits:
        if data.level is not None:
            lengths[data.level] = lengths.get(data.level, 0) + len(data.orbit)
    b = tuple(sum(circular_at(level, n) * length for level, length in lengths.items()) for n in range(1, m_max + 1))

    ordinary = (gammas[min(1, m_max)] == 0) if crystal.is_dieudonne else None
    return GammaReport(
        m_max=m_max,
        gamma=tuple(gammas),
        delta=tuple(delta[1:]),
        b=b,
        stabilization=stabilization,
        stabilization_is_isomorphism_number=crystal.is_dieudonne,
        ordinary=ordinary,
        orbits=tuple(orbits),
    )


def _check(index: int, seq: CircularSeq, m: int, census: Census, level: Optional[int]) -> tuple[VerifyCheck, ComponentStats]:
    """The one formula-vs-oracle comparison: the literal oracle's counts for seq
    at level m against linear_at/circular_at of its census and circular level."""
    stats = oracle_counts(seq, m)
    if stats.circular_edges != stats.circular * len(seq):
        raise RuntimeError(
            f"orbit {index}: circular components carry {stats.circular_edges} edges, "
            f"expected {stats.circular * len(seq)}"
        )
    check = VerifyCheck(index, m, linear_at(census, m), circular_at(level, m), stats.free_linear, stats.circular)
    return check, stats


def verify_sequence(seq: CircularSeq, m: int) -> tuple[VerifyCheck, ComponentStats]:
    """The closed-form counts of one circular sequence at level m against the
    literal oracle's, as orbit 0, with the oracle's full ComponentStats."""
    return _check(0, seq, m, *run_census(seq))


def verify_formula_vs_oracle(
    crystal: FCyclicCrystal,
    m_max: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> VerifyReport:
    """Rebuild every orbit digraph at every level up to m_max and compare counts.

    The closed-form counts, read from the orbit_data records gamma_table uses,
    and the literal component census must agree exactly; any disagreement is
    returned rather than raised so callers can report it.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    orbits = orbit_data(crystal)
    estimated = sum(len(data.orbit) for data in orbits) * m_max * (m_max + 1) // 2
    if estimated > vertex_budget:
        raise ResourceLimitError(
            f"verification needs about {estimated} digraph vertices, budget is {vertex_budget}"
        )
    checks = [
        _check(index, data.epsilon, m, data.census, data.level)[0]
        for index, data in enumerate(orbits)
        for m in range(1, m_max + 1)
    ]
    return VerifyReport(tuple(checks))


def newton_slopes(crystal: FCyclicCrystal) -> tuple[Fraction, ...]:
    """Newton slopes with multiplicity: each pi-cycle C contributes its average
    slope, repeated len(C) times.  Sorted ascending, exact rationals."""
    slopes: list[Fraction] = []
    for cycle in cycle_decomposition(crystal.pi):
        avg = Fraction(sum(crystal.slopes[i - 1] for i in cycle), len(cycle))
        slopes.extend([avg] * len(cycle))
    return tuple(sorted(slopes))


def is_minimal(crystal: FCyclicCrystal) -> bool:
    """Minimality test for Dieudonne modules, cycle by cycle.

    Within a cycle C of average slope lam, every length-q slope sum starting
    anywhere in C must land in {floor(q*lam), floor(q*lam) + 1}.  Checking q up
    to len(C) suffices: both the sums and the floors advance by sum(E over C)
    per full period.  Raises for non-Dieudonne input, where the criterion does
    not apply.
    """
    if not crystal.is_dieudonne:
        raise ValueError("minimality is defined here only for 0/1 slopes")
    e = crystal.slopes
    for cycle in cycle_decomposition(crystal.pi):
        length = len(cycle)
        total = sum(e[i - 1] for i in cycle)
        for start in range(length):
            acc = 0
            for q in range(1, length + 1):
                acc += e[cycle[(start + q - 1) % length] - 1]
                base = (q * total) // length
                if acc != base and acc != base + 1:
                    return False
    return True
