"""Command line interface.

Subcommands:

* gamma    print the automorphism dimension table of one crystal
* endo     print the endomorphism component exponent b(m), optionally p^b
* verify   compare closed-form counts against the literal digraph census
* scan     sweep a crystal family and check the expected properties
* minimal  minimality verdict of a Dieudonne crystal, with its Newton slopes

Exit codes: 0 success, 1 a checked property failed, 2 invalid input (including
an --out file that cannot be written), 3 resource limit hit (a rank, level or
sweep crystal count past its default cap).  Machine formats (json, csv) are
byte deterministic for a given command line.

Output contract: each cmd_* function takes the parsed arguments and returns
(exit code, output), where output is the json payload without "schema" and
"command", or the text/csv lines.  A command builds only the format asked for
and writes nothing.  main adds the header, renders, and writes once: to stdout,
or to --out atomically via a temp file and rename.  json is rendered by
_json_text, byte-identical to json.dumps(indent=2).  scan renders from the
class-first walk's members and builds no per-crystal record: a class's csv
cells and json members are rendered once, a crystal adds its own r, perm and
slopes (json records reach main as _Rendered text from the same writer), and
the summary weights each class's verdicts by its member count.  main builds
its argument parser on its first call and reuses it.  The one other write is
the scan csv summary line, which main prints after the csv, to the stream the
csv does not use (stderr when the csv goes to stdout, stdout with --out); so a
failed --out write prints no summary.
"""

from __future__ import annotations

import argparse
import errno
import os
import random
import re
import sys
import tempfile
from dataclasses import fields
from decimal import Decimal
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

from .circseq import circular_level, normalize
from .crystal import (
    DEFAULT_VERTEX_BUDGET,
    FCyclicCrystal,
    OrbitData,
    ResourceLimitError,
    gamma_table,
    is_minimal,
    newton_slopes,
    verify_formula_vs_oracle,
    verify_sequence,
)
from .digraph import build_level_digraph, propagate_zeros, to_dot
from .permutation import ParseError, cycle_string, parse_permutation
from .scan import (
    CHECKS, FAMILIES, ScanRecord, enumerate_family, family_size, scan_members, slope_bound, summarize_members,
)

MAX_R = 8
MAX_M = 16
# Crystals per scan or verify sweep; admits every r <= MAX_R sweep at slope bound 1
# (all-dieudonne r=8 has 10,321,920 crystals, verify --r-max 8 sums to 11,017,402).
MAX_CRYSTALS = 2**24
SCHEMA = "fcrystal/1"

Output = tuple[int, Union[dict, list[str]]]  # see "Output contract" above

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
    """Refuse a rank or level past the default caps.  One crystal's slope size
    needs no cap: the closed forms cost one pass over the runs of each orbit,
    whatever the slopes, and the oracle's digraphs grow with r and m only."""
    if override_limits:
        return
    if r is not None and r > MAX_R:
        raise ResourceLimitError(f"r={r} exceeds the default cap {MAX_R}; pass --override-limits to proceed")
    if m is not None and m > MAX_M:
        raise ResourceLimitError(f"level {m} exceeds the default cap {MAX_M}; pass --override-limits to proceed")


def _check_family_size(override_limits: bool, family: str, ranks: Sequence[int], slope_max: int) -> None:
    """Refuse a sweep of more crystals than MAX_CRYSTALS; after _check_limits, so the ranks are small."""
    if override_limits:
        return
    count = sum(family_size(family, r, slope_max) for r in ranks)
    if count > MAX_CRYSTALS:
        raise ResourceLimitError(
            f"a sweep of {count} crystals exceeds the default cap {MAX_CRYSTALS}; pass --override-limits to proceed"
        )


def _at_least(args, flag: str, low: int) -> None:
    value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
    if value is not None and value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _crystal(args) -> FCyclicCrystal:
    """The crystal named by --r, --perm and --slopes; also checks --prime where the command has it."""
    _at_least(args, "--r", 1)
    slopes = _parse_ints(args.slopes, "--slopes")
    if len(slopes) != args.r:
        raise ValueError(f"--slopes needs exactly {args.r} entries, got {len(slopes)}")
    _at_least(args, "--prime", 2)
    return FCyclicCrystal(parse_permutation(args.perm, args.r), slopes)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    if not out:  # abspath("") is the working directory, whose parent would get the temp file
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if os.path.isdir(out):  # refused before a temp file is made beside it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
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


class _Rendered(str):
    """json text that _json_text already rendered at its place in the tree; written as it is."""


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for trees of dicts with str
    keys, lists, tuples, str, int, bool and None; anything else raises TypeError.
    A list of plain ints is one join, and a list of equal-length tuples of plain
    ints (orbit points) is one row template, repeated and filled by one %."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return value if type(value) is _Rendered else encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        return _json_object(_json_members(value, inner), indent)
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if kinds == {int}:
        return "[\n" + inner + sep.join(map(str, value)) + "\n" + indent + "]"
    if kinds == {tuple} and len(set(map(len, value))) == 1:
        flat = tuple(chain.from_iterable(value))
        if set(map(type, flat)) <= {int}:
            deeper = inner + "  "
            width = len(value[0])
            row = "[\n" + deeper + (",\n" + deeper).join(["%d"] * width) + "\n" + inner + "]" if width else "[]"
            return "[\n" + inner + sep.join([row] * len(value)) % flat + "\n" + indent + "]"
    return "[\n" + inner + sep.join([_json_text(item, inner) for item in value]) + "\n" + indent + "]"


def _json_members(mapping: dict, inner: str) -> list[str]:
    """A dict's members, '"key": value', as _json_text renders them inside an object whose members sit at inner."""
    # encode_basestring_ascii raises TypeError on a key that is not a str
    return [encode_basestring_ascii(key) + ": " + _json_text(item, inner) for key, item in mapping.items()]


def _json_object(members: list[str], indent: str) -> str:
    """An object at indent from its rendered members (see _json_members)."""
    if not members:
        return "{}"
    inner = indent + "  "
    return "{\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "}"


def _orbit_view(data: OrbitData, m_max: int) -> dict:
    """One orbit as gamma output shows it at level m_max, in text and json: the
    sign form clamped at m_max (see circseq.normalize) with its circular level,
    and the census up to m_max, which the clamp leaves as it is.  The sign form
    is spelled out only for entries past +-1, and the level taken from the
    clamped form only when the clamp cuts an entry; otherwise it is data.level."""
    eps = data.epsilon
    top = max(max(eps), -min(eps))
    level = data.level
    if top == 0:
        normalized = {"kind": "all-zero", "length": len(eps)}
    elif top == 1:
        normalized = {"kind": "signs", "entries": tuple(filter(None, eps))}
    else:
        norm = normalize(eps, m_max)
        normalized = {"kind": "signs", "entries": norm.entries}
        if top > m_max + 1:
            level = circular_level(norm)
    counts = [0] * (m_max + 1)
    for lo, hi in data.census:
        for n in range(lo, min(hi, m_max) + 1):
            counts[n] += 1
    return {
        "points": data.orbit.points,
        "epsilon": eps,
        "normalized": normalized,
        "census": {str(n): count for n, count in enumerate(counts) if count},
        "level": level,
    }


def _crystal_json(crystal: FCyclicCrystal) -> dict:
    return {
        "r": crystal.r,
        "perm": cycle_string(crystal.pi),
        "slopes": crystal.slopes,
        "dieudonne": crystal.is_dieudonne,
    }


_YESNO = {None: "n/a", True: "yes", False: "no"}
_FLAG = {None: "", True: "true", False: "false"}


def _csv_cell(value) -> str:
    """One scan csv cell: verdicts through _FLAG, tuples joined by ';', the rest str."""
    if value is None or value is True or value is False:
        return _FLAG[value]
    return ";".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _seq_text(values: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


# ---------------------------------------------------------------- gamma


def cmd_gamma(args) -> Output:
    crystal = _crystal(args)
    _check_limits(args.override_limits, args.r, args.m_max)
    report = gamma_table(crystal, args.m_max)

    if args.format == "json":
        return 0, {
            **_crystal_json(crystal),
            "m_max": report.m_max,
            "gamma": report.gamma,
            "delta": report.delta,
            "b": report.b,
            "stabilization": report.stabilization,
            "stabilization_is_isomorphism_number": report.stabilization_is_isomorphism_number,
            "ordinary": report.ordinary,
            "orbits": [_orbit_view(data, report.m_max) for data in report.orbits],
        }
    if args.format == "csv":
        lines = ["m,gamma,delta,b", f"0,{report.gamma[0]},,"]
        for n in range(1, report.m_max + 1):
            lines.append(f"{n},{report.gamma[n]},{report.delta[n - 1]},{report.b[n - 1]}")
        return 0, lines

    lines = [
        f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes={_seq_text(crystal.slopes)}"
        f" dieudonne={_YESNO[crystal.is_dieudonne]} ordinary={_YESNO[report.ordinary]}",
        "gamma: " + " ".join(str(v) for v in report.gamma) + f"   (m = 0..{report.m_max})",
        "delta: " + " ".join(str(v) for v in report.delta) + f"   (m = 1..{report.m_max})",
        "b:     " + " ".join(str(v) for v in report.b) + f"   (m = 1..{report.m_max})",
        f"stabilization: {report.stabilization}"
        + ("" if report.stabilization_is_isomorphism_number else " (level only; not an isomorphism number here)"),
    ]
    for k, data in enumerate(report.orbits, start=1):
        view = _orbit_view(data, report.m_max)
        census = ",".join(f"{level}:{count}" for level, count in view["census"].items())
        kind = " all-zero" if view["normalized"]["kind"] == "all-zero" else ""
        level = "none" if view["level"] is None else str(view["level"])
        lines.append(
            f"orbit {k}: len={len(data.orbit)} eps={_seq_text(data.epsilon)} level={level} census={{{census}}}{kind}"
        )
    return 0, lines


# ---------------------------------------------------------------- endo


def cmd_endo(args) -> Output:
    crystal = _crystal(args)
    if args.m is None and args.m_max is None:
        raise ValueError("endo needs --m or --m-max")
    if args.m is not None and args.m_max is not None:
        raise ValueError("pass only one of --m and --m-max")
    single = args.m is not None
    top = args.m if single else args.m_max
    _check_limits(args.override_limits, args.r, top)
    report = gamma_table(crystal, top)
    levels = [top] if single else range(1, top + 1)
    b = [report.b[n - 1] for n in levels]
    # p^b for the printed levels only; empty without --prime.  str(int) refuses
    # integers above sys.get_int_max_str_digits() digits (4,300 by default), and
    # p^b gets there within the default caps; Decimal converts exactly at any
    # size, without touching that process-wide limit.
    powers = [] if args.prime is None else [str(Decimal(args.prime**v)) for v in b]

    if args.format == "json":
        payload = _crystal_json(crystal)
        payload.update({"m": top, "b": b[0]} if single else {"m_max": top, "b": b})
        if powers:
            payload.update(prime=args.prime, components=powers[0] if single else powers)
        return 0, payload
    if single:
        return 0, [f"b({top}) = {b[0]}"] + [f"components({top}) = {args.prime}^{b[0]} = {p}" for p in powers]
    if args.format == "csv":
        lines = ["m,b,components" if powers else "m,b"]
        for n, v in zip(levels, b):
            lines.append(f"{n},{v},{powers[n - 1]}" if powers else f"{n},{v}")
        return 0, lines
    lines = ["b: " + " ".join(str(v) for v in b) + f"   (m = 1..{top})"]
    if powers:
        lines.append("components: " + " ".join(powers))
    return 0, lines


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> Output:
    _at_least(args, "--vertex-budget", 1)
    if args.seq is None:
        return _verify_sweep(args)
    seq = _parse_ints(args.seq, "--seq")
    m = args.m if args.m is not None else args.m_max
    _check_limits(args.override_limits, None, m)
    if m * len(seq) > args.vertex_budget:
        raise ResourceLimitError(f"digraph would need {m * len(seq)} vertices, budget is {args.vertex_budget}")

    check, stats = verify_sequence(seq, m)
    code = 0 if check.match else 1
    dump = to_dot(propagate_zeros(build_level_digraph(seq, m))) if args.dump_digraph else None

    if args.format == "json":
        payload = {
            "mode": "sequence",
            "seq": seq,
            "m": m,
            "formula": {"linear": check.formula_linear, "circular": check.formula_circular},
            "oracle": {
                "linear": stats.free_linear,
                "circular": stats.circular,
                "circular_edges": stats.circular_edges,
                "zero_linear": stats.zero_linear,
            },
            "match": check.match,
        }
        if dump is not None:
            payload["digraph_dot"] = dump
        return code, payload
    lines = [
        f"seq={_seq_text(seq)} m={m}",
        f"formula: linear={check.formula_linear} circular={check.formula_circular}",
        f"oracle:  linear={stats.free_linear} circular={stats.circular}"
        f" circular_edges={stats.circular_edges} zero_linear={stats.zero_linear}",
        f"match: {_YESNO[check.match]}",
    ]
    if dump is not None:
        lines += dump.splitlines()
    return code, lines


def _verify_sweep(args) -> Output:
    _at_least(args, "--r-max", 1)
    _at_least(args, "--slope-max", 0)
    _at_least(args, "--random", 0)
    _at_least(args, "--max-s", 1)
    _at_least(args, "--max-entry", 0)
    _check_limits(args.override_limits, args.r_max, args.m_max)
    _check_family_size(args.override_limits, "all-fcrystal", range(1, args.r_max + 1), args.slope_max)
    if args.random and args.max_s * args.m_max > args.vertex_budget:
        raise ResourceLimitError(
            f"digraph would need {args.max_s * args.m_max} vertices, budget is {args.vertex_budget}"
        )
    mismatches: list[dict] = []
    crystals = 0
    checks = 0
    for r in range(1, args.r_max + 1):
        for pi, slopes in enumerate_family("all-fcrystal", r, args.slope_max):
            report = verify_formula_vs_oracle(FCyclicCrystal(pi, slopes), args.m_max, args.vertex_budget)
            crystals += 1
            checks += len(report.checks)
            for c in report.mismatches:
                mismatches.append(
                    {
                        "perm": cycle_string(pi),
                        "slopes": slopes,
                        "orbit": c.orbit_index,
                        "m": c.m,
                        "formula": [c.formula_linear, c.formula_circular],
                        "oracle": [c.oracle_linear, c.oracle_circular],
                    }
                )

    rng = random.Random(args.seed)
    for _ in range(args.random):
        s = rng.randint(1, args.max_s)
        seq = tuple(rng.randint(-args.max_entry, args.max_entry) for _ in range(s))
        m = rng.randint(1, args.m_max)
        if not verify_sequence(seq, m)[0].match:
            mismatches.append({"seq": seq, "m": m})
        checks += 1

    ok = not mismatches
    if args.format == "json":
        return (0 if ok else 1), {
            "mode": "sweep",
            "r_max": args.r_max,
            "slope_max": args.slope_max,
            "m_max": args.m_max,
            "crystals": crystals,
            "random": args.random,
            "seed": args.seed,
            "checks": checks,
            "mismatches": mismatches,
            "ok": ok,
        }
    lines = [f"sweep r<={args.r_max} slope<={args.slope_max} m<={args.m_max}: crystals={crystals} checks={checks}"]
    if args.random:
        lines.append(f"random: n={args.random} seed={args.seed} max_s={args.max_s} max_entry={args.max_entry}")
    lines.append(f"mismatches: {len(mismatches)}")
    lines.append("ok" if ok else "FAIL")
    return (0 if ok else 1), lines


# ---------------------------------------------------------------- scan


def cmd_scan(args) -> Output:
    _at_least(args, "--r", 1)
    _at_least(args, "--slope-max", 0)
    _check_limits(args.override_limits, args.r, args.m_max)
    _check_family_size(args.override_limits, args.family, [args.r], args.slope_max)
    checks = tuple(args.check) if args.check else CHECKS
    slope_max = slope_bound(args.family, args.slope_max)
    members = scan_members(args.family, args.r, args.m_max, slope_max, checks)
    summary = summarize_members(members)
    violations = sum(v for k, v in summary.items() if k.startswith("violations"))
    code = 0 if violations == 0 else 1
    names = [field.name for field in fields(ScanRecord)]  # the record fields in order, the csv columns

    if args.format == "json":
        # A record is an object at depth 2 of the payload, its members at inner.
        # Its members render once per permutation (r, perm), per slope vector
        # (slopes) and per class (gamma onward); m_max is stated once in the payload.
        inner = "      "
        split = names.index("gamma")
        heads: dict[str, list[str]] = {}
        middles: dict[tuple[int, ...], list[str]] = {}
        tails: dict[int, list[str]] = {}  # keyed by id(class record)
        records = []
        for perm, slopes, record in members:
            head = heads.get(perm) or heads.setdefault(perm, _json_members({"r": args.r, "perm": perm}, inner))
            middle = middles.get(slopes) or middles.setdefault(slopes, _json_members({"slopes": slopes}, inner))
            tail = tails.get(id(record)) or tails.setdefault(
                id(record), _json_members(dict(list(vars(record).items())[split:]), inner)
            )
            records.append(_Rendered(_json_object(head + middle + tail, "    ")))
        return code, {
            "family": args.family,
            "r": args.r,
            "slope_max": slope_max,
            "m_max": args.m_max,
            "checks": checks,
            "records": records,
            "summary": summary,
        }
    summary_line = " ".join(f"{k}={v}" for k, v in summary.items())
    if args.format == "csv":
        split = names.index("m_max")  # the cells from m_max on are the class's, rendered once per class
        lines = [",".join(names)]
        middles: dict[tuple[int, ...], str] = {}
        tails: dict[int, str] = {}  # keyed by id(class record)
        for perm, slopes, record in members:
            middle = middles.get(slopes) or middles.setdefault(slopes, _csv_cell(slopes))
            tail = tails.get(id(record)) or tails.setdefault(
                id(record), ",".join(map(_csv_cell, list(vars(record).values())[split:]))
            )
            lines.append(f'{args.r},"{perm}",{middle},{tail}')
        lines.append(summary_line)  # main writes it after the csv, to the other stream
        return code, lines

    lines = [f"scan family={args.family} r={args.r} slope_max={slope_max} m_max={args.m_max}", summary_line]
    if violations:
        for perm, slopes, record in members:
            if record.violations:
                lines.append(f"VIOLATION perm={perm} slopes={_seq_text(slopes)}: {','.join(record.violations)}")
    else:
        lines.append("all checks passed")
    return code, lines


# ---------------------------------------------------------------- minimal


def cmd_minimal(args) -> Output:
    crystal = _crystal(args)
    _check_limits(args.override_limits, args.r, None)
    if not crystal.is_dieudonne:
        raise ValueError("minimality verdicts need 0/1 slopes")
    verdict = is_minimal(crystal)
    report = gamma_table(crystal, max(2, crystal.r))
    consistent = verdict == (report.stabilization <= 1)
    code = 0 if consistent else 1
    slopes = newton_slopes(crystal)

    if args.format == "json":
        return code, {
            **_crystal_json(crystal),
            "newton_slopes": [str(s) for s in slopes],
            "minimal": verdict,
            "stabilization": report.stabilization,
            "consistent": consistent,
        }
    return code, [
        f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes={_seq_text(crystal.slopes)}",
        "newton slopes: " + " ".join(str(s) for s in slopes),
        f"minimal: {_YESNO[verdict]}",
        f"stabilization: {report.stabilization} consistent={_YESNO[consistent]}",
    ]


# ---------------------------------------------------------------- parser


def _add_crystal_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True, help="rank, the number of basis vectors")
    p.add_argument("--perm", required=True, help='permutation, cycle form "(1 2)" or one-line "2 1"')
    p.add_argument("--slopes", required=True, help='comma or space separated slopes, e.g. "0,1"')


def _add_common_output(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to this file (atomic replace)")
    p.add_argument("--override-limits", action="store_true", help="lift the default r, level and crystal-count caps")


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


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call, then reused


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code, output = args.func(args)
        summary = output.pop() if args.command == "scan" and args.format == "csv" else None
        if isinstance(output, dict):
            text = _json_text({"schema": SCHEMA, "command": args.command, **output}) + "\n"
        else:
            text = "\n".join(output) + "\n"
        _emit(text, args.out)
        if summary is not None:
            (sys.stderr if args.out is None else sys.stdout).write(summary + "\n")
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {args.out or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
