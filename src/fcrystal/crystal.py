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
digraph, from the slopes read along the cycles of pi alone (cycle_words): the
pair orbits come in one block per ordered pair of pi-cycles, whose census and
circular levels depend only on the two cycles' slope words, not their labels.
pair_table computes one block from two words, and _pair_tables reads the
blocks of every ordered pair of a crystal's words, memoized in a dict the
caller owns.  Every number that prints no orbit takes this route: gamma and
endo_exponent sum linear_at and circular_at over the blocks at one level, with
no table of levels, and class_tables sums them into the tables of endo
--m-max, minimal, gamma csv and scan records (one memo per scan), through
_level_tables, the table arithmetic it shares with gamma_table.

Labels stay only where they are printed.  orbit_data walks the labelled pair
orbits (permutation.product_orbits), one record per orbit, for gamma_table's
per-orbit view, and _orbit_sequences is the one gather of slopes along them.
Formula and oracle meet in one place, _check, which builds every VerifyCheck
and raises RuntimeError unless circular components carry circular * length
edges.  verify_sweep runs it at every level of each distinct exact orbit
sequence of a sweep, with a permutation's labelled orbits built once per run
of its crystals, and reports every mismatch under the crystal's own orbit index.
verify_sequence runs _check on one bare sequence and returns the oracle's
stats as well.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, groupby, product
from math import gcd
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .circseq import Census, CircularSeq, census_levels, circular_at, linear_at, run_census
from .digraph import ComponentStats, oracle_counts
from .permutation import Orbit, Permutation, cycle_decomposition, is_single_cycle, parse_permutation, product_orbits


class ResourceLimitError(RuntimeError):
    """An estimated workload exceeds its budget: raised by the CLI, before any work."""


class FCyclicCrystal(NamedTuple("FCyclicCrystal", [("pi", Permutation), ("slopes", tuple[int, ...])])):
    """Rank, basis permutation, and nonnegative Hodge exponents, one per basis vector."""

    __slots__ = ()

    def __new__(cls, pi: Permutation, slopes: tuple[int, ...]) -> "FCyclicCrystal":
        if len(slopes) != pi.size:
            raise ValueError(f"need {pi.size} slopes, got {len(slopes)}")
        if min(slopes) < 0:  # the length check above leaves at least one slope
            raise ValueError("slopes must be nonnegative integers")
        return super().__new__(cls, pi, slopes)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks the slopes too

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


class OrbitData(NamedTuple):
    """One pair orbit with its slope-difference sequence, its balanced-segment
    census as level ranges (see circseq.run_census) and its circular level (None
    when the sequence does not balance, 0 when it is all zero); exact at every
    level."""

    orbit: Orbit
    epsilon: tuple[int, ...]
    census: Census
    level: Optional[int]


class GammaReport(NamedTuple):
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
        """Check the increments (see delta_report)."""
        return delta_report(self.delta, self.stabilization)


class VerifyCheck(NamedTuple):
    """One formula-vs-oracle comparison: orbit, level, and both sides' counts."""

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


class DeltaReport(NamedTuple):
    """Monotonicity diagnostics for the gamma increments."""

    nonincreasing: bool
    strict_through_stabilization: bool
    first_violation: Optional[int]


def delta_report(delta: Sequence[int], stabilization: int) -> DeltaReport:
    """Check the increments delta[0..m_max-1] of gamma(1..m_max): never
    increasing, and strictly decreasing through the stabilization level (the
    whole range when m_max is at least stabilization + 1)."""
    m_max = len(delta)
    first_violation: Optional[int] = None
    for n in range(1, m_max):
        if delta[n] > delta[n - 1]:
            first_violation = n
            break
    strict = all(delta[n] < delta[n - 1] for n in range(1, min(stabilization + 1, m_max)))
    return DeltaReport(
        nonincreasing=first_violation is None,
        strict_through_stabilization=strict,
        first_violation=first_violation,
    )


def orbit_epsilon(crystal: FCyclicCrystal, orbit: Orbit) -> tuple[int, ...]:
    """Slope differences E[i] - E[j] along the orbit."""
    return _orbit_sequences([orbit])(crystal.slopes)[0]


def _orbit_sequences(orbits: Sequence[Orbit]) -> Callable[[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """The slope differences along each of orbits, as a function of the slopes:
    both columns of all orbits gathered by one pair of getters, one map(sub),
    and every orbit's sequence sliced from the result by one more getter, in
    orbit order."""
    # the pad index 0 ends both getters, so they return a tuple even for one point
    firsts = itemgetter(*chain.from_iterable(orbit.first for orbit in orbits), 0)
    seconds = itemgetter(*chain.from_iterable(orbit.second for orbit in orbits), 0)
    ends = list(accumulate(map(len, orbits), initial=0))
    spans = list(map(slice, ends, ends[1:]))
    # a getter of one slice returns that slice's items, not a 1-tuple of them
    slices = itemgetter(*spans) if len(spans) > 1 else lambda differences: (differences[spans[0]],)

    def sequences(slopes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        e = (0, *slopes)
        return slices(tuple(map(sub, firsts(e), seconds(e))))

    return sequences


def orbit_data(crystal: FCyclicCrystal) -> list[OrbitData]:
    """One walk of the pair orbits, one exact record per orbit (unclamped and
    uncapped, so it serves every level at once)."""
    orbits = product_orbits(crystal.pi)
    sequences = _orbit_sequences(orbits)(crystal.slopes)
    return [OrbitData(orbit, eps, *run_census(eps)) for orbit, eps in zip(orbits, sequences)]


def gamma(crystal: FCyclicCrystal, m: int) -> int:
    """Dimension of the level-m automorphism group scheme (gamma(0) = 0)."""
    if m < 0:
        raise ValueError("level must be nonnegative")
    return sum(linear_at(census, m) for census, _ in _pair_tables(cycle_words(crystal), {}))


def endo_exponent(crystal: FCyclicCrystal, m: int) -> int:
    """Exponent b with p^b connected components in the level-m endomorphism algebra.

    Each orbit whose difference sequence balances at level lam contributes
    (m - lam) circular components when m > lam, and each of those carries one
    edge per orbit position, hence the orbit length.  Exact integer, no
    overflow concerns at any size, and no table of levels.
    """
    if m < 1:
        raise ValueError("level must be at least 1")
    tables = _pair_tables(cycle_words(crystal), {})
    return sum(circular_at(level, m) * length for _, lengths in tables for level, length in lengths.items())


def _level_tables(
    census: Sequence[tuple[int, int]], circular: Iterable[tuple[int, int]], m_max: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """(gamma(0..m_max), its increments, b(1..m_max), stabilization level) from
    the census ranges of all pair orbits of a crystal and (circular level,
    orbit length) of those that balance: the one copy of the table arithmetic,
    which gamma_table and class_tables share."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    delta = census_levels(census, m_max)
    stabilization = max(map(itemgetter(1), census), default=0)
    # b(n) sums (n - level) * length over the orbits below level n, so its
    # second difference at n is the total length at level n - 1.
    lengths = [0] * m_max
    for level, length in circular:
        if level < m_max:
            lengths[level] += length
    b = tuple(accumulate(accumulate(lengths)))
    return tuple(accumulate(delta)), tuple(delta[1:]), b, stabilization  # delta[0] = 0 = gamma(0)


def gamma_table(crystal: FCyclicCrystal, m_max: int) -> GammaReport:
    """gamma(0..m_max), increments, b(1..m_max), and the stabilization level."""
    orbits = orbit_data(crystal)
    census = list(chain.from_iterable(data.census for data in orbits))
    circular = [(data.level, len(data.orbit)) for data in orbits if data.level is not None]
    gammas, delta, b, stabilization = _level_tables(census, circular, m_max)
    return GammaReport(
        m_max=m_max,
        gamma=gammas,
        delta=delta,
        b=b,
        stabilization=stabilization,
        stabilization_is_isomorphism_number=crystal.is_dieudonne,
        ordinary=(gammas[1] == 0) if crystal.is_dieudonne else None,
        orbits=tuple(orbits),
    )


def pair_table(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[Census, dict[int, int]]:
    """The pair orbits of two pi-cycles whose slope words, read along the
    cycles, are u and v: their census ranges chained, and {circular level:
    total orbit length}.  Cycles of lengths a and b give gcd(a, b) orbits of
    length lcm(a, b); orbit k's epsilon is u[t mod a] - v[(t + k) mod b] over
    one period, a rotation of the epsilon product_orbits lists for it, and the
    census and circular level do not see rotations.  So the table depends only
    on the two words, whatever the labels of the cycles."""
    a, b = len(u), len(v)
    if not a or not b:
        raise ValueError("a cycle's slope word must have at least one letter")
    g = gcd(a, b)
    period = a // g * b
    first = u * (period // a)
    census: list[tuple[int, int]] = []
    lengths: dict[int, int] = {}
    for k in range(g):
        ranges, level = run_census(tuple(map(sub, first, (v[k:] + v[:k]) * (period // b))))
        census += ranges
        if level is not None:
            lengths[level] = lengths.get(level, 0) + period
    return tuple(census), lengths


def _pair_tables(words: Sequence[tuple[int, ...]], pairs: dict) -> Iterator[tuple[Census, dict[int, int]]]:
    """pair_table of every ordered pair of words, memoized in pairs by (u, v)."""
    for key in product(words, repeat=2):
        table = pairs.get(key)
        if table is None:
            table = pairs[key] = pair_table(*key)
        yield table


def class_tables(
    words: Sequence[tuple[int, ...]], m_max: int, pairs: dict
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """gamma_table's (gamma, delta, b, stabilization) of a crystal whose cycles'
    slope words are words: the sum of the pair tables of every ordered pair of
    words.  pairs memoizes pair_table by (u, v); the caller owns it, so one
    dict can serve many crystals (scan.scan_table makes one per scan)."""
    census: list[tuple[int, int]] = []
    circular: list[tuple[int, int]] = []
    for ranges, lengths in _pair_tables(words, pairs):
        census += ranges
        circular += lengths.items()
    return _level_tables(census, circular, m_max)


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


def verify_sweep(
    pairs: Iterable[tuple[Permutation, tuple[int, ...]]], m_max: int
) -> tuple[int, int, list[tuple[Permutation, tuple[int, ...], VerifyCheck]]]:
    """Rebuild every orbit digraph of each (permutation, slopes) crystal of pairs
    at every level up to m_max and compare its counts with the closed forms,
    with each distinct exact orbit sequence sent to the oracle once per level.

    Returns (crystals, checks, mismatches) as a per-crystal loop counts and
    lists them: each mismatch is (pi, slopes, check) under the crystal's own
    orbit index.  _check's RuntimeError comes at the same crystal too: the
    first that holds the failing sequence.  Nothing is refused for size.  Each
    run of crystals with one permutation has its orbits and their gather
    (_orbit_sequences) built once, and the memo of failing checks lives for
    one call.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    failing: dict[tuple[int, ...], list[VerifyCheck]] = {}
    crystals = checks = 0
    mismatches = []
    for pi, run in groupby(pairs, itemgetter(0)):
        orbits = product_orbits(pi)
        sequences = _orbit_sequences(orbits)
        for _, slopes in run:
            FCyclicCrystal(pi, slopes)  # checks the slopes
            crystals += 1
            checks += len(orbits) * m_max
            for index, eps in enumerate(sequences(slopes)):
                found = failing.get(eps)
                if found is None:
                    census, level = run_census(eps)
                    found = failing[eps] = []
                    for m in range(1, m_max + 1):
                        check = _check(index, eps, m, census, level)[0]
                        if not check.match:
                            found.append(check)
                if found:
                    mismatches.extend((pi, slopes, check._replace(orbit_index=index)) for check in found)
    return crystals, checks, mismatches


def newton_slopes(crystal: FCyclicCrystal) -> tuple[Fraction, ...]:
    """Newton slopes with multiplicity: each pi-cycle C contributes its average
    slope, repeated len(C) times.  Sorted ascending, exact rationals."""
    slopes: list[Fraction] = []
    for word in cycle_words(crystal):
        slopes += [Fraction(sum(word), len(word))] * len(word)
    return tuple(sorted(slopes))


def cycle_words(crystal: FCyclicCrystal) -> list[tuple[int, ...]]:
    """The slopes read along each cycle of pi, in cycle_decomposition order:
    the words class_tables and is_minimal_words take."""
    e = crystal.slopes
    return [tuple([e[i - 1] for i in cycle]) for cycle in cycle_decomposition(crystal.pi)]


def is_minimal(crystal: FCyclicCrystal) -> bool:
    """Minimality test for Dieudonne modules, cycle by cycle: is_minimal_words
    of the slope words read along the cycles of pi.  Raises for non-Dieudonne
    input, where the criterion does not apply.
    """
    if not crystal.is_dieudonne:
        raise ValueError("minimality is defined here only for 0/1 slopes")
    return is_minimal_words(cycle_words(crystal))


def is_minimal_words(words: Iterable[tuple[int, ...]]) -> bool:
    """Minimality of a Dieudonne module from its cycles' slope words.

    Within a cycle C of average slope lam, every length-q slope sum starting
    anywhere in C must land in {floor(q*lam), floor(q*lam) + 1}.  Checking q up
    to len(C) suffices: both the sums and the floors advance by sum(E over C)
    per full period, and at q = len(C) every sum is sum(E over C) itself.  The
    sums of one length are differences of the prefix sums of the doubled word,
    one map(sub) per length.
    """
    for word in words:
        length = len(word)
        total = sum(word)
        sums = list(accumulate(word + word, initial=0))
        starts = sums[:length]
        for q in range(1, length):
            base = q * total // length
            if not {base, base + 1}.issuperset(map(sub, sums[q : q + length], starts)):
                return False
    return True
