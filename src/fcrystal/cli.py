"""Command line interface.

Subcommands:

* gamma    print the automorphism dimension table of one crystal
* endo     print the endomorphism component exponent b(m), optionally p^b
* verify   compare closed-form counts against the literal digraph census
* scan     sweep a crystal family and check the expected properties
* minimal  minimality verdict of a Dieudonne crystal, with its Newton slopes

Exit codes: 0 success, 1 a checked property failed, 2 invalid input (including
an --out file that cannot be written), 3 resource limit hit.  Machine formats
(json, csv) are byte deterministic for a given command line; --out writes
atomically via a temp file and rename.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
import tempfile
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional, Sequence

from .circseq import AllZero, circular_count, linear_count
from .crystal import (
    DEFAULT_VERTEX_BUDGET,
    FCyclicCrystal,
    ResourceLimitError,
    gamma_table,
    is_minimal,
    newton_slopes,
    verify_formula_vs_oracle,
)
from .digraph import build_level_digraph, oracle_counts, propagate_zeros, to_dot
from .permutation import ParseError, Permutation, cycle_string, parse_permutation
from .scan import CHECKS, FAMILIES, run_scan, summarize

MAX_R = 8
MAX_M = 16
SCHEMA = "fcrystal/1"

_SPLIT = re.compile(r"[,\s]+")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    parts = [p for p in _SPLIT.split(text.strip()) if p]
    if not parts:
        raise ValueError(f"empty {what}")
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ValueError(f"bad integer {p!r} in {what}") from None
    return tuple(out)


def _check_limits(override_limits: bool, r: Optional[int], m: Optional[int]) -> None:
    if override_limits:
        return
    if r is not None and r > MAX_R:
        raise ResourceLimitError(f"r={r} exceeds the default cap {MAX_R}; pass --override-limits to proceed")
    if m is not None and m > MAX_M:
        raise ResourceLimitError(f"level {m} exceeds the default cap {MAX_M}; pass --override-limits to proceed")


@dataclass(frozen=True)
class JobSpec:
    """One crystal job: the command, the crystal input, levels, and output knobs.

    Construction validates everything, including the crystal invariants, so a
    JobSpec in hand is safe to execute.
    """

    command: str
    r: int
    perm: str
    slopes: tuple[int, ...]
    m: Optional[int]
    m_max: Optional[int]
    prime: Optional[int]
    format: str
    out: Optional[str]
    override_limits: bool

    @classmethod
    def from_args(cls, command: str, args) -> "JobSpec":
        slopes = _parse_ints(args.slopes, "--slopes")
        if len(slopes) != args.r:
            raise ValueError(f"--slopes needs exactly {args.r} entries, got {len(slopes)}")
        prime = getattr(args, "prime", None)
        if prime is not None and prime < 2:
            raise ValueError(f"--prime must be at least 2, got {prime}")
        spec = cls(
            command=command,
            r=args.r,
            perm=args.perm,
            slopes=slopes,
            m=getattr(args, "m", None),
            m_max=getattr(args, "m_max", None),
            prime=prime,
            format=args.format,
            out=args.out,
            override_limits=args.override_limits,
        )
        spec.crystal()
        return spec

    def crystal(self) -> FCyclicCrystal:
        return FCyclicCrystal(parse_permutation(self.perm, self.r), self.slopes)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fcrystal-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _normalized_json(norm) -> dict:
    if isinstance(norm, AllZero):
        return {"kind": "all-zero", "length": norm.original_length}
    return {"kind": "signs", "entries": list(norm.entries)}


def _orbit_json(data) -> dict:
    return {
        "points": [list(p) for p in data.orbit.points],
        "epsilon": list(data.epsilon),
        "normalized": _normalized_json(data.normalized),
        "census": {str(level): data.census.counts[level] for level in sorted(data.census.counts)},
        "level": data.level,
    }


def _crystal_json(crystal: FCyclicCrystal) -> dict:
    return {
        "r": crystal.r,
        "perm": cycle_string(crystal.pi),
        "slopes": list(crystal.slopes),
        "dieudonne": crystal.is_dieudonne,
    }


def _yesno(value: Optional[bool]) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def _seq_text(values: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _int_text(n: int) -> str:
    # str(int) refuses integers above sys.get_int_max_str_digits() digits
    # (4,300 by default), and p^b gets there within the default caps; Decimal
    # converts exactly at any size, without touching that process-wide limit.
    return str(Decimal(n))


# ---------------------------------------------------------------- gamma


def cmd_gamma(args) -> int:
    spec = JobSpec.from_args("gamma", args)
    crystal = spec.crystal()
    _check_limits(spec.override_limits, spec.r, spec.m_max)
    report = gamma_table(crystal, spec.m_max)

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "gamma",
            **_crystal_json(crystal),
            "m_max": report.m_max,
            "gamma": list(report.gamma),
            "delta": list(report.delta),
            "b": list(report.b),
            "stabilization": report.stabilization,
            "stabilization_is_isomorphism_number": report.stabilization_is_isomorphism_number,
            "ordinary": report.ordinary,
            "orbits": [_orbit_json(d) for d in report.per_orbit],
        }
        _emit(_json_dumps(payload), args.out)
        return 0
    if args.format == "csv":
        lines = ["m,gamma,delta,b"]
        lines.append(f"0,{report.gamma[0]},,")
        for n in range(1, report.m_max + 1):
            lines.append(f"{n},{report.gamma[n]},{report.delta[n - 1]},{report.b[n - 1]}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    lines = [
        f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes={_seq_text(crystal.slopes)}"
        f" dieudonne={_yesno(crystal.is_dieudonne)} ordinary={_yesno(report.ordinary)}",
        "gamma: " + " ".join(str(v) for v in report.gamma) + f"   (m = 0..{report.m_max})",
        "delta: " + " ".join(str(v) for v in report.delta) + f"   (m = 1..{report.m_max})",
        "b:     " + " ".join(str(v) for v in report.b) + f"   (m = 1..{report.m_max})",
        f"stabilization: {report.stabilization}"
        + ("" if report.stabilization_is_isomorphism_number else " (level only; not an isomorphism number here)"),
    ]
    for k, data in enumerate(report.per_orbit, start=1):
        census = ",".join(f"{level}:{data.census.counts[level]}" for level in sorted(data.census.counts))
        kind = " all-zero" if isinstance(data.normalized, AllZero) else ""
        level = "none" if data.level is None else str(data.level)
        lines.append(
            f"orbit {k}: len={len(data.orbit)} eps={_seq_text(data.epsilon)} level={level} census={{{census}}}{kind}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- endo


def cmd_endo(args) -> int:
    spec = JobSpec.from_args("endo", args)
    crystal = spec.crystal()
    if spec.m is None and spec.m_max is None:
        raise ValueError("endo needs --m or --m-max")
    if spec.m is not None and spec.m_max is not None:
        raise ValueError("pass only one of --m and --m-max")
    top = spec.m if spec.m is not None else spec.m_max
    _check_limits(spec.override_limits, spec.r, top)
    report = gamma_table(crystal, top)

    if spec.m is not None:
        b = report.b[spec.m - 1]
        if args.format == "json":
            payload = {"schema": SCHEMA, "command": "endo", **_crystal_json(crystal), "m": spec.m, "b": b}
            if args.prime is not None:
                payload["prime"] = args.prime
                payload["components"] = _int_text(args.prime**b)
            _emit(_json_dumps(payload), args.out)
            return 0
        lines = [f"b({args.m}) = {b}"]
        if args.prime is not None:
            lines.append(f"components({args.m}) = {args.prime}^{b} = {_int_text(args.prime**b)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "endo", **_crystal_json(crystal), "m_max": top, "b": list(report.b)}
        if args.prime is not None:
            payload["prime"] = args.prime
            payload["components"] = [_int_text(args.prime**b) for b in report.b]
        _emit(_json_dumps(payload), args.out)
        return 0
    if args.format == "csv":
        header = "m,b" if args.prime is None else "m,b,components"
        lines = [header]
        for n in range(1, top + 1):
            row = f"{n},{report.b[n - 1]}"
            if args.prime is not None:
                row += "," + _int_text(args.prime ** report.b[n - 1])
            lines.append(row)
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    lines = ["b: " + " ".join(str(v) for v in report.b) + f"   (m = 1..{top})"]
    if args.prime is not None:
        lines.append("components: " + " ".join(_int_text(args.prime**v) for v in report.b))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- verify


def _verify_sequence(args) -> int:
    seq = _parse_ints(args.seq, "--seq")
    m = args.m if args.m is not None else (args.m_max or 1)
    _check_limits(args.override_limits, None, m)
    if m * len(seq) > args.vertex_budget:
        raise ResourceLimitError(f"digraph would need {m * len(seq)} vertices, budget is {args.vertex_budget}")

    stats = oracle_counts(seq, m)
    f_linear = linear_count(seq, m)
    f_circular = circular_count(seq, m)
    match = f_linear == stats.free_linear and f_circular == stats.circular

    dump = ""
    if args.dump_digraph:
        dump = to_dot(propagate_zeros(build_level_digraph(seq, m)))

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "mode": "sequence",
            "seq": list(seq),
            "m": m,
            "formula": {"linear": f_linear, "circular": f_circular},
            "oracle": {
                "linear": stats.free_linear,
                "circular": stats.circular,
                "circular_edges": stats.circular_edges,
                "zero_linear": stats.zero_linear,
            },
            "match": match,
        }
        if args.dump_digraph:
            payload["digraph_dot"] = dump
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"seq={_seq_text(seq)} m={m}",
            f"formula: linear={f_linear} circular={f_circular}",
            f"oracle:  linear={stats.free_linear} circular={stats.circular}"
            f" circular_edges={stats.circular_edges} zero_linear={stats.zero_linear}",
            f"match: {_yesno(match)}",
        ]
        text = "\n".join(lines) + "\n"
        if args.dump_digraph:
            text += dump
        _emit(text, args.out)
    return 0 if match else 1


def _verify_sweep(args) -> int:
    _check_limits(args.override_limits, args.r_max, args.m_max)
    mismatches: list[dict] = []
    crystals = 0
    checks = 0
    for r in range(1, args.r_max + 1):
        for images in itertools.permutations(range(1, r + 1)):
            pi = Permutation(images)
            for slopes in itertools.product(range(args.slope_max + 1), repeat=r):
                crystal = FCyclicCrystal(pi, slopes)
                report = verify_formula_vs_oracle(crystal, args.m_max, args.vertex_budget)
                crystals += 1
                checks += len(report.checks)
                for c in report.mismatches:
                    mismatches.append(
                        {
                            "perm": cycle_string(pi),
                            "slopes": list(slopes),
                            "orbit": c.orbit_index,
                            "m": c.m,
                            "formula": [c.formula_linear, c.formula_circular],
                            "oracle": [c.oracle_linear, c.oracle_circular],
                        }
                    )

    rng = random.Random(args.seed)
    random_mismatches: list[dict] = []
    for _ in range(args.random):
        s = rng.randint(1, args.max_s)
        seq = tuple(rng.randint(-args.max_entry, args.max_entry) for _ in range(s))
        m = rng.randint(1, args.m_max)
        stats = oracle_counts(seq, m)
        if linear_count(seq, m) != stats.free_linear or circular_count(seq, m) != stats.circular:
            random_mismatches.append({"seq": list(seq), "m": m})
        checks += 1

    ok = not mismatches and not random_mismatches
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "mode": "sweep",
            "r_max": args.r_max,
            "slope_max": args.slope_max,
            "m_max": args.m_max,
            "crystals": crystals,
            "random": args.random,
            "seed": args.seed,
            "checks": checks,
            "mismatches": mismatches + random_mismatches,
            "ok": ok,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"sweep r<=%d slope<=%d m<=%d: crystals=%d checks=%d" % (args.r_max, args.slope_max, args.m_max, crystals, checks),
        ]
        if args.random:
            lines.append(f"random: n={args.random} seed={args.seed} max_s={args.max_s} max_entry={args.max_entry}")
        lines.append(f"mismatches: {len(mismatches) + len(random_mismatches)}")
        lines.append("ok" if ok else "FAIL")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.seq is not None:
        return _verify_sequence(args)
    return _verify_sweep(args)


# ---------------------------------------------------------------- scan


def cmd_scan(args) -> int:
    _check_limits(args.override_limits, args.r, args.m_max)
    checks = tuple(args.check) if args.check else CHECKS
    records = run_scan(args.family, args.r, args.m_max, args.slope_max, checks)
    summary = summarize(records)
    violations = sum(v for k, v in summary.items() if k.startswith("violations"))

    def _flag(value: Optional[bool]) -> str:
        if value is None:
            return ""
        return "true" if value else "false"

    if args.format == "csv":
        lines = [
            "r,perm,slopes,m_max,gamma,delta,b,stabilization,dieudonne,ordinary,minimal,"
            "nonincreasing,strict,increasing_to_stab,ratio,minimal_matches_stab"
        ]
        for rec in records:
            lines.append(
                ",".join(
                    [
                        str(rec.r),
                        '"' + rec.perm + '"',
                        ";".join(str(v) for v in rec.slopes),
                        str(rec.m_max),
                        ";".join(str(v) for v in rec.gamma),
                        ";".join(str(v) for v in rec.delta),
                        ";".join(str(v) for v in rec.b),
                        str(rec.stabilization),
                        _flag(rec.dieudonne),
                        _flag(rec.ordinary),
                        _flag(rec.minimal),
                        _flag(rec.nonincreasing),
                        _flag(rec.strict),
                        _flag(rec.increasing_to_stab),
                        _flag(rec.ratio),
                        _flag(rec.minimal_matches_stab),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
        summary_text = " ".join(f"{k}={v}" for k, v in summary.items()) + "\n"
        if args.out is not None:
            _emit(text, args.out)
            sys.stdout.write(summary_text)
        else:
            _emit(text, None)
            sys.stderr.write(summary_text)
        return 0 if violations == 0 else 1

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "scan",
            "family": args.family,
            "r": args.r,
            "slope_max": args.slope_max,
            "m_max": args.m_max,
            "checks": list(checks),
            "records": [
                {
                    "r": rec.r,
                    "perm": rec.perm,
                    "slopes": list(rec.slopes),
                    "gamma": list(rec.gamma),
                    "delta": list(rec.delta),
                    "b": list(rec.b),
                    "stabilization": rec.stabilization,
                    "dieudonne": rec.dieudonne,
                    "ordinary": rec.ordinary,
                    "minimal": rec.minimal,
                    "nonincreasing": rec.nonincreasing,
                    "strict": rec.strict,
                    "increasing_to_stab": rec.increasing_to_stab,
                    "ratio": rec.ratio,
                    "minimal_matches_stab": rec.minimal_matches_stab,
                }
                for rec in records
            ],
            "summary": summary,
        }
        _emit(_json_dumps(payload), args.out)
        return 0 if violations == 0 else 1

    lines = [f"scan family={args.family} r={args.r} slope_max={args.slope_max} m_max={args.m_max}"]
    lines.append(" ".join(f"{k}={v}" for k, v in summary.items()))
    if violations:
        for rec in records:
            if rec.violations:
                lines.append(f"VIOLATION perm={rec.perm} slopes={_seq_text(rec.slopes)}: {','.join(rec.violations)}")
    else:
        lines.append("all checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------- minimal


def cmd_minimal(args) -> int:
    spec = JobSpec.from_args("minimal", args)
    crystal = spec.crystal()
    _check_limits(spec.override_limits, spec.r, None)
    if not crystal.is_dieudonne:
        raise ValueError("minimality verdicts need 0/1 slopes")
    verdict = is_minimal(crystal)
    report = gamma_table(crystal, max(2, crystal.r))
    consistent = verdict == (report.stabilization <= 1)
    slopes = newton_slopes(crystal)

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "minimal",
            **_crystal_json(crystal),
            "newton_slopes": [str(s) for s in slopes],
            "minimal": verdict,
            "stabilization": report.stabilization,
            "consistent": consistent,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        newton = " ".join(str(s) for s in slopes)
        lines = [
            f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes={_seq_text(crystal.slopes)}",
            f"newton slopes: {newton}",
            f"minimal: {_yesno(verdict)}",
            f"stabilization: {report.stabilization} consistent={_yesno(consistent)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if consistent else 1


# ---------------------------------------------------------------- parser


def _add_crystal_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True, help="rank, the number of basis vectors")
    p.add_argument("--perm", required=True, help='permutation, cycle form "(1 2)" or one-line "2 1"')
    p.add_argument("--slopes", required=True, help='comma or space separated slopes, e.g. "0,1"')


def _add_common_output(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to this file (atomic replace)")
    p.add_argument("--override-limits", action="store_true", help="lift the default r and level caps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcrystal", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="automorphism dimension table")
    _add_crystal_args(p)
    p.add_argument("--m-max", type=int, required=True)
    _add_common_output(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("endo", help="endomorphism component exponent")
    _add_crystal_args(p)
    p.add_argument("--m", type=int)
    p.add_argument("--m-max", type=int)
    p.add_argument("--prime", type=int, help="also print p^b for this prime")
    _add_common_output(p)
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("verify", help="closed-form counts vs the digraph census")
    p.add_argument("--seq", help="verify one circular sequence, e.g. \"3,0,-1,-2\"")
    p.add_argument("--m", type=int, help="level for --seq mode")
    p.add_argument("--r-max", type=int, default=3, help="sweep mode: all permutations up to this rank")
    p.add_argument("--slope-max", type=int, default=1, help="sweep mode: slope entries range over 0..this")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--random", type=int, default=0, help="extra random sequences to verify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-s", type=int, default=10, help="random mode: longest sequence")
    p.add_argument("--max-entry", type=int, default=6, help="random mode: largest entry magnitude")
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("--dump-digraph", action="store_true", help="with --seq: dump the digraph in DOT format")
    _add_common_output(p, formats=("text", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="sweep a family and check the expected properties")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--slope-max", type=int, default=1, help="fcrystal families: slopes range over 0..this")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--check", action="append", choices=CHECKS, help="repeatable; default: all checks")
    p.add_argument(
        "--workers", type=int, default=0,
        help="accepted and ignored: scans run serially, once per isomorphism class",
    )
    _add_common_output(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("minimal", help="minimality verdict for 0/1 slopes")
    _add_crystal_args(p)
    _add_common_output(p, formats=("text", "json"))
    p.set_defaults(func=cmd_minimal)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {args.out or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
