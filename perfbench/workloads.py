"""The benchmark's workloads: the command lines each pass sends to ``fcrystal.cli.main``.

A workload is a sequence of passes.  Each pass is a list of ops; an op is one
argv for the program plus what the checks need to know about it.  Everything
here is a pure function of the workload name and the run seed, so the parent
process (which checks outputs) and the workload process (which runs them)
build the same plan independently.

* ``scan``: three family scans, the same every pass; the seed orders them.
* ``verify``: one fixed crystal sweep and four seeded random sweeps per pass.
* ``query``: single-crystal queries drawn without replacement from a fixed
  pool, so no two passes of a run share a query and byte pins exist for every
  query a seed can draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

WORKLOADS = ("scan", "verify", "query")

# Scratch directory for --out files and saved outputs, relative to the checkout root.
TMP = ".bench_tmp"

PB_PRIME = 1000003
# Python refuses to render integers longer than this many digits (its default
# int_max_str_digits); endo prints p^b with str(), so longer p^b fail at the seed.
INT_STR_DIGITS = 4300


@dataclass(frozen=True)
class Op:
    """One command of a pass.

    ``items`` is the op's unit of work for items_per_s: crystals for a scan,
    checks for a verify sweep, and 1 for a query.  ``key`` names the op for the
    byte pins (a scan name, "sweep", or a query pool index).
    """

    kind: str
    key: str
    argv: tuple[str, ...]
    items: int
    crystals: int
    out: Optional[str] = None
    meta: dict = field(default_factory=dict, compare=False, hash=False)


# ---------------------------------------------------------------- scan

SCAN_OPS = (
    Op(
        "scan",
        "circular-dieudonne-r6",
        ("scan", "--family", "circular-dieudonne", "--r", "6", "--m-max", "5",
         "--format", "csv", "--out", f"{TMP}/circular-dieudonne-r6.csv"),
        items=7680,
        crystals=7680,
        out=f"{TMP}/circular-dieudonne-r6.csv",
    ),
    Op(
        "scan",
        "all-dieudonne-r5",
        ("scan", "--family", "all-dieudonne", "--r", "5", "--m-max", "5",
         "--format", "json", "--out", f"{TMP}/all-dieudonne-r5.json"),
        items=3840,
        crystals=3840,
        out=f"{TMP}/all-dieudonne-r5.json",
    ),
    Op(
        "scan",
        "circular-fcrystal-r5",
        ("scan", "--family", "circular-fcrystal", "--r", "5", "--slope-max", "2", "--m-max", "5"),
        items=5832,
        crystals=5832,
    ),
)


def _scan_pass(rng: random.Random) -> list[Op]:
    ops = list(SCAN_OPS)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- verify

SWEEP_OP = Op(
    "sweep",
    "sweep",
    ("verify", "--r-max", "4", "--slope-max", "1", "--m-max", "5"),
    items=15090,
    crystals=442,
)
RANDOM_SWEEPS_PER_PASS = 4
RANDOM_N = 1000
# A random sweep still runs the rank-1 crystal sweep: 2 crystals x 10 levels.
RANDOM_BASE_CHECKS = 20


def random_sweep_op(seed: int) -> Op:
    argv = ("verify", "--r-max", "1", "--m-max", "10", "--random", str(RANDOM_N),
            "--seed", str(seed), "--max-s", "12", "--max-entry", "8")
    return Op("random", f"random-{seed}", argv, items=RANDOM_BASE_CHECKS + RANDOM_N, crystals=2,
              meta={"seed": seed})


def random_sweep_expected(op: Op) -> str:
    """The exact stdout of a random sweep that finds no mismatch."""
    checks = RANDOM_BASE_CHECKS + RANDOM_N
    return (
        f"sweep r<=1 slope<=1 m<=10: crystals=2 checks={checks}\n"
        f"random: n={RANDOM_N} seed={op.meta['seed']} max_s=12 max_entry=8\n"
        "mismatches: 0\nok\n"
    )


def _verify_pass(rng: random.Random) -> list[Op]:
    ops = [SWEEP_OP] + [random_sweep_op(rng.randrange(2**31)) for _ in range(RANDOM_SWEEPS_PER_PASS)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- query

# Per pass: 69 small queries, 12 large-rank, 16 large-slope, 3 p^b queries.
# Every pass, and so every seed, carries the same tiers in the same counts, so
# the cost mix is the same.  The counts put the 90th latency percentile in the
# middle of the 12 slope-1000 queries (the 4 rank-200 ones cost more), not on
# a boundary between tiers.  The p^b queries are 2 that exceed the 4,300-digit
# limit by construction (b = 64 m >= 768) and 1 that stays under it
# (b <= 36 * 16 = 576).
QUERY_TIERS = (
    ("small", 69),
    ("rank-50", 4),
    ("rank-100", 4),
    ("rank-200", 4),
    ("slope-250", 2),
    ("slope-500", 2),
    ("slope-1000", 12),
    ("pb-over", 2),
    ("pb-under", 1),
)
POOL_PASSES = 20
POOL_SEED = 181203577
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _perm_text(rng: random.Random, images: list[int]) -> str:
    """Render a permutation in one-line or cycle form, chosen at random."""
    if rng.random() < 0.5:
        return " ".join(map(str, images)) if rng.random() < 0.5 else ",".join(map(str, images))
    r = len(images)
    seen = [False] * (r + 1)
    cycles = []
    for start in range(1, r + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = images[start - 1]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = images[j - 1]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "(1)"


def _random_images(rng: random.Random, r: int) -> list[int]:
    images = list(range(1, r + 1))
    rng.shuffle(images)
    return images


def _cycle_images(rng: random.Random, r: int) -> list[int]:
    order = list(range(1, r + 1))
    rng.shuffle(order)
    images = [0] * r
    for a, b in zip(order, order[1:] + order[:1]):
        images[a - 1] = b
    return images


def _slopes_text(slopes: list[int]) -> str:
    return ",".join(map(str, slopes))


def _small_query(rng: random.Random) -> tuple[str, ...]:
    # From rank 4 up there are enough classes that a run rarely repeats one.
    r = rng.randint(4, 8)
    images = _random_images(rng, r)
    command = rng.choices(("gamma", "endo", "minimal"), weights=(45, 35, 20))[0]
    top = 1 if command == "minimal" else 3
    slopes = [rng.randint(0, top) for _ in range(r)]
    argv = [command, "--r", str(r), "--perm", _perm_text(rng, images), "--slopes", _slopes_text(slopes)]
    if command == "gamma":
        argv += ["--m-max", str(rng.randint(1, 8)), "--format", rng.choice(("text", "json", "csv"))]
    elif command == "endo":
        argv += [rng.choice(("--m", "--m-max")), str(rng.randint(1, 8))]
        if rng.random() < 0.5:
            argv += ["--prime", str(rng.choice(SMALL_PRIMES))]
        argv += ["--format", rng.choice(("text", "json", "csv"))]
    else:
        argv += ["--format", rng.choice(("text", "json"))]
    return tuple(argv)


def _rank_query(rng: random.Random, r: int) -> tuple[str, ...]:
    images = _cycle_images(rng, r)
    slopes = [rng.randint(0, 1) for _ in range(r)]
    return ("gamma", "--r", str(r), "--perm", _perm_text(rng, images), "--slopes", _slopes_text(slopes),
            "--m-max", str(rng.randint(2, 5)), "--override-limits", "--format", "json")


def _slope_query(rng: random.Random, top: int) -> tuple[str, ...]:
    # Rank 3 and one slope within 2.5% below `top`: the census cost grows with
    # top^2, so a tier's queries cost about the same, and the small jitter
    # keeps classes from repeating.
    images = _cycle_images(rng, 3)
    slopes = [rng.randint(0, 3) for _ in range(3)]
    slopes[rng.randrange(3)] = top - rng.randint(0, top // 40)
    return ("gamma", "--r", "3", "--perm", _perm_text(rng, images), "--slopes", _slopes_text(slopes),
            "--m-max", str(rng.randint(3, 8)), "--format", rng.choice(("text", "json", "csv")))


def _pb_query(rng: random.Random, over: bool) -> tuple[str, ...]:
    r = 8 if over else 6
    c = rng.randint(0, 3)
    slopes = [c] * r
    if not over:
        slopes[rng.randrange(r)] = c + 1
    return ("endo", "--r", str(r), "--perm", _perm_text(rng, _random_images(rng, r)),
            "--slopes", _slopes_text(slopes), "--m", str(rng.randint(12, 16)),
            "--prime", str(PB_PRIME), "--format", rng.choice(("text", "json")))


def _tier_query(rng: random.Random, tier: str) -> tuple[str, ...]:
    kind, _, size = tier.partition("-")
    if kind == "small":
        return _small_query(rng)
    if kind == "rank":
        return _rank_query(rng, int(size))
    if kind == "slope":
        return _slope_query(rng, int(size))
    return _pb_query(rng, over=(size == "over"))


@lru_cache(maxsize=1)
def query_pool() -> tuple[Op, ...]:
    """Every query a run can draw: POOL_PASSES passes' worth of each tier, from a fixed seed."""
    rng = random.Random(POOL_SEED)
    pool: list[Op] = []
    for tier, count in QUERY_TIERS:
        for _ in range(count * POOL_PASSES):
            argv = _tier_query(rng, tier)
            pool.append(Op("query", str(len(pool)), argv, items=1, crystals=1, meta={"tier": tier}))
    return tuple(pool)


class Plan:
    """The passes of one run, generated lazily from (workload, seed)."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"{workload}:{seed}")
        self._passes: list[list[Op]] = []
        if workload == "query":
            by_tier: dict[str, list[int]] = {tier: [] for tier, _ in QUERY_TIERS}
            for index, op in enumerate(query_pool()):
                by_tier[op.meta["tier"]].append(index)
            self._order = {tier: self._rng.sample(idx, len(idx)) for tier, idx in by_tier.items()}

    def pass_ops(self, k: int) -> list[Op]:
        while len(self._passes) <= k:
            self._passes.append(self._make_pass(len(self._passes)))
        return self._passes[k]

    def _make_pass(self, k: int) -> list[Op]:
        if self.workload == "scan":
            return _scan_pass(self._rng)
        if self.workload == "verify":
            return _verify_pass(self._rng)
        pool = query_pool()
        ops = []
        for tier, count in QUERY_TIERS:
            order = self._order[tier]
            # Past POOL_PASSES passes the pool wraps around and queries repeat.
            start = (k * count) % len(order)
            ops += [pool[order[(start + i) % len(order)]] for i in range(count)]
        self._rng.shuffle(ops)
        return ops

    def oracle_sample(self, small: int) -> list[int]:
        """Seeded indices into the query pass 0 whose answers the oracle checks:
        ``small`` small queries and 2 of each other kind (rank, slope, pb)."""
        rng = random.Random(f"check:{self.workload}:{self.seed}")
        by_kind: dict[str, list[int]] = {}
        for i, op in enumerate(self.pass_ops(0)):
            by_kind.setdefault(op.meta["tier"].split("-")[0], []).append(i)
        picked = []
        for kind in sorted(by_kind):
            picked += rng.sample(by_kind[kind], min(len(by_kind[kind]), small if kind == "small" else 2))
        return sorted(picked)
