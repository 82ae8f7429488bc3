"""Command line interface.

Subcommands:

* gamma    print the automorphism dimension table of one crystal
* endo     print the endomorphism component exponent b(m), optionally p^b
* verify   compare closed-form counts against the literal digraph census
* scan     sweep a crystal family and check the expected properties
* minimal  minimality verdict of a Dieudonne crystal, with its Newton slopes

Exit codes: 0 success, 1 a checked property failed, 2 invalid input (including
an --out file that cannot be written, and an integer not written [+-]?[0-9]+
in ASCII), 3 resource limit hit (a rank, level, sweep crystal count or
--random count past its default cap; a digraph past --vertex-budget, which a
crystal sweep checks per rank before any crystal; or, even with
--override-limits, a level past any per-level table, a sweep of more than
sys.maxsize crystals, a p^b with more digits than this process has bytes of
memory, or memory running out, which prints one line and writes no output).
Machine formats (json, csv) are byte deterministic for a given command line.
"""

# Output contract: each cmd_* function takes the parsed arguments and returns
# (exit code, output), where output is the json payload without "schema" and
# "command", the text/csv lines, or a _Streamed output.  A command builds only
# the format asked for and writes nothing.  main renders a payload with
# _document and hands _emit the text as chunks, which it writes as they come:
# to stdout, or to --out (see _emit); the last newline is a chunk of its own,
# so adding it copies nothing.  json is rendered by _json_text, byte-identical
# to json.dumps(indent=2), as one join of the pieces it appends down the tree,
# so no level copies the text below it.  It renders plain trees only: dicts,
# lists, tuples, str, int, bool and None.  A list of plain ints is one join of
# texts from a bounded int table.
# Only a command's whole output streams: a scan returns a _Streamed for its csv,
# its json and its text when it names violations, and gamma for its json.  A
# scan's csv or json is its rows streamed between a rendered head and tail (the
# json document is rendered once with "records": [] and cut there), and the
# rows are rendered only as they are written, after every step that can raise:
# argument checks, caps, scan.scan_table and the summary, which weights each
# class's verdicts by its count in the table.  scan.scan_table returns whole
# class records; cmd_scan is the one place that applies --check, blanking the
# verdicts not asked for once per class record, so the summary, the exit code
# and every format read the same records.  gamma json cuts its document at
# "orbits": [] the same way, and _orbits_write appends every orbit's record
# between the two parts straight from _orbit_fields, which gamma text's orbit
# lines read too, with no dict per orbit.  _orbits_write is the one place that
# writes orbit points, straight from each orbit's two columns.  The whole text
# is joined once, in the command.
# So a failed command writes nothing, and stdout never gets part of a document
# followed by an error.  A crystal's csv line or json record is three pieces,
# its permutation's head, its slope vector's cells and its class's cells, each
# rendered once, joined _SCAN_CHUNK crystals at a time (_scan_rows), so memory
# stays flat whatever the family's size.  A text scan reads the table's rows
# only to name violations, streamed a permutation at a time.  endo, minimal
# and gamma csv print no orbit and read crystal.class_tables over the cycle
# words, or endo_exponent for endo --m, which builds no level table.
# main builds its argument parser on its first call and reuses it.  Each flag
# rule is stated once, in one of two tables: _FLOORS, the lowest value of every
# bounded integer option, which main checks (with --m against --m-max) before
# any command runs; and _VERIFY_FLAGS, the flag each verify mode flag needs and
# the value it takes when not passed, which cmd_verify reads.
# The one other write is a _Streamed output's note, the scan csv summary line,
# which main prints after the output, to the stream it does not use (stderr
# when it goes to stdout, stdout with --out); so a failed --out write prints
# no note.

from __future__ import annotations

import argparse
import errno
import itertools
import math
import os
import random
import re
import stat
import sys
import tempfile
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence, Union

from .circseq import census_levels, circular_level, normalize
from .crystal import (
    FCyclicCrystal,
    OrbitData,
    ResourceLimitError,
    class_tables,
    cycle_words,
    endo_exponent,
    gamma_table,
    is_minimal_words,
    newton_slopes,
    verify_sequence,
    verify_sweep,
)
from .digraph import build_level_digraph, propagate_zeros, to_dot
from .permutation import ParseError, cycle_string, parse_permutation
from .scan import CHECKS, FAMILIES, ScanRecord, enumerate_family, family_size, scan_table, slope_bound, summarize

MAX_R = 8
MAX_M = 16
# Crystals per scan or verify sweep; admits every r <= MAX_R sweep at slope bound 1
# (all-dieudonne r=8 has 10,321,920 crystals, verify --r-max 8 sums to 11,017,402).
# Also the cap on verify's --random sequences.
MAX_CRYSTALS = 2**24
# Tables hold one 8-byte entry per level, so no level past this fits in the address space.
MAX_TABLE_LEVEL = sys.maxsize // 8
# Every rank past this has more than sys.maxsize permutations, r! or even (r-1)!.
MAX_COUNTED_RANK = next(n for n in itertools.count(1) if math.factorial(n) > sys.maxsize)
# verify's --vertex-budget: the most digraph vertices one --seq level, one
# --random draw at the top level, or one crystal of a sweep at all its levels may need.
DEFAULT_VERTEX_BUDGET = 10_000_000
SCHEMA = "fcrystal/1"
# Crystals per chunk of scan csv or json: a few hundred keep the writes few (one
# per permutation, 64 crystals, made the r=6 circular csv scan about 7% slower)
# and memory flat (a json chunk is about 170 KB).
_SCAN_CHUNK = 256

Output = tuple[int, Union[dict, list, "_Streamed"]]  # see "Output contract" above

_SPLIT = re.compile(r"[,\s]+")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer written [+-]?[0-9]+ in ASCII, of any length: int() alone also
    reads "1_0" as 10, takes non-ASCII digits and refuses more digits than
    sys.get_int_max_str_digits().  The argparse type of every integer option."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits(); Decimal reads them exactly
        return int(Decimal(text))


_integer.__name__ = "int"  # argparse names the type in its error: "invalid int value: '1_0'"


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    parts = [p for p in _SPLIT.split(text.strip()) if p]
    if not parts:
        raise ValueError(f"empty {what}")
    out = []
    for p in parts:
        try:
            out.append(_integer(p))
        except ValueError:
            raise ValueError(f"bad integer {p!r} in {what}") from None
    return tuple(out)


def _check_limits(override_limits: bool, r: Optional[int], m: Optional[int], table: bool = True) -> None:
    """Refuse a rank or level past the default caps.  One crystal's slope size
    needs no cap: the closed forms cost one pass over the runs of each orbit,
    whatever the slopes, and the oracle's digraphs grow with r and m only.
    Where the level sizes a per-level table or digraph (table), a level past
    MAX_TABLE_LEVEL is refused even with override_limits."""
    if table and m is not None and m > MAX_TABLE_LEVEL:
        raise ResourceLimitError(
            f"level {_exact(m)} needs a table of one entry per level, larger than this platform can address"
        )
    if override_limits:
        return
    if r is not None and r > MAX_R:
        raise _over_cap(f"r={_exact(r)} exceeds", MAX_R)
    if m is not None and m > MAX_M:
        raise _over_cap(f"level {_exact(m)} exceeds", MAX_M)


def _over_cap(subject: str, cap: int) -> ResourceLimitError:
    """The refusal of a size past a default cap, which --override-limits lifts."""
    return ResourceLimitError(f"{subject} the default cap {cap}; pass --override-limits to proceed")


def _check_family_size(override_limits: bool, family: str, ranks: Sequence[int], slope_max: int) -> None:
    """Refuse a sweep of more crystals than MAX_CRYSTALS, and, even with
    override_limits, of more than sys.maxsize, which no count or index of a
    sweep fits.  ranks ascend; past MAX_COUNTED_RANK a rank alone has more
    permutations than that, so the count is formed only for ranks up to it."""
    if ranks[-1] > MAX_COUNTED_RANK:
        count = None
    else:
        count = sum(family_size(family, r, slope_max) for r in ranks)
    if count is None or count > sys.maxsize:
        raise ResourceLimitError(f"a sweep of more than {sys.maxsize} crystals is larger than this platform can enumerate")
    if override_limits:
        return
    if count > MAX_CRYSTALS:
        raise _over_cap(f"a sweep of {count} crystals exceeds", MAX_CRYSTALS)


def _check_vertices(vertices: int, budget: int) -> None:
    """Refuse a digraph of more vertices than --vertex-budget allows."""
    if vertices > budget:
        raise ResourceLimitError(f"digraph would need {_exact(vertices)} vertices, budget is {_exact(budget)}")


# The lowest value of each bounded integer option, whichever command has it, in the
# order main checks them; --seed and --workers take any integer.
_FLOORS = {"--r": 1, "--vertex-budget": 1, "--r-max": 1, "--slope-max": 0, "--random": 0, "--max-s": 1,
           "--max-entry": 0, "--prime": 2, "--m": 1, "--m-max": 1}


def _check_flags(args) -> None:
    """Refuse an option below its floor in _FLOORS, then --m passed with --m-max,
    before the command reads any of its input."""
    values = vars(args)
    for flag, low in _FLOORS.items():
        value = values.get(flag[2:].replace("-", "_"))
        if value is not None and value < low:
            raise ValueError(f"{flag} must be at least {low}, got {_exact(value)}")
    if values.get("m") is not None and values.get("m_max") is not None:
        raise ValueError("pass only one of --m and --m-max")


def _crystal(args) -> FCyclicCrystal:
    """The crystal named by --r, --perm and --slopes."""
    slopes = _parse_ints(args.slopes, "--slopes")
    if len(slopes) != args.r:
        raise ValueError(f"--slopes needs exactly {_exact(args.r)} entries, got {len(slopes)}")
    return FCyclicCrystal(parse_permutation(args.perm, args.r), slopes)


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the text chunks in order, each as it comes, to stdout or to out:
    in place when out exists and is not a regular file (a FIFO or a device,
    which a rename would replace; a directory fails there), else through a
    temp file, given the target's mode or the umask's (mkstemp makes it 0600),
    renamed over out once the last chunk is written; a failed write removes
    it.  A symlink is followed (out is resolved first), so its target is
    replaced and the link stays."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    if not out:  # realpath("") is the working directory, whose parent would get the temp file
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    out = os.path.realpath(out)
    try:
        target = os.stat(out).st_mode
    except FileNotFoundError:
        umask = os.umask(0o077)  # reading the umask means setting it; restored at once
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(target):
            with open(out, "w") as handle:
                handle.writelines(chunks)
            return
        mode = stat.S_IMODE(target)
    directory = os.path.dirname(out)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fcrystal-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.chmod(tmp, mode)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Streamed:
    """A command's whole output as an iterable of chunks, written as they come,
    and an optional note line that main writes after it, to the other stream.
    Its chunks must not raise, since they are read only while the output is
    being written."""

    __slots__ = ("chunks", "note")

    def __init__(self, chunks: Iterable[str], note: Optional[str] = None) -> None:
        self.chunks = chunks
        self.note = note


class _IntTexts(dict):
    """int -> its json text, kept for the ints in -1024..1024 on first use (so
    import builds nothing) and made afresh for any other, so the table never
    holds more than 2049 texts."""

    __slots__ = ()

    def __missing__(self, value: int) -> str:
        text = _exact(value)
        if -1024 <= value <= 1024:
            self[value] = text
        return text


_INT_TEXT = _IntTexts().__getitem__


def _exact(value: int) -> str:
    """str(value) for an int of any length.  str() refuses ints above
    sys.get_int_max_str_digits() digits (4,300 by default), which p^b and a
    stabilization level can pass within the default caps; Decimal converts
    them exactly, without touching that process-wide limit."""
    try:
        return int.__repr__(value)
    except ValueError:
        return str(Decimal(value))


def _usable_memory() -> int:
    """Bytes this process may use: the physical memory, or the soft
    address-space limit when that is lower."""
    import resource  # read only for a power past str()'s limit

    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return memory if soft == resource.RLIM_INFINITY else min(memory, soft)


def _power(p: int, v: int) -> str:
    """_exact(p**v) without _exact's quadratic conversion of a huge int: past
    str()'s limit (4,300 digits where Python has none), a Decimal power at v
    times the digits of p, exact (Inexact trapped).  A power whose text alone
    would not fit in memory is refused before any of it is computed."""
    digits = v * len(_exact(p))
    if digits <= getattr(sys, "get_int_max_str_digits", lambda: 4300)():
        return int.__repr__(p**v)
    if digits > MAX_PREC:
        raise MemoryError(f"{_exact(p)}^{_exact(v)} has more digits than a Decimal can hold")
    length = int(v * math.log10(p)) + 1
    memory = _usable_memory()
    if length > memory:
        raise MemoryError(
            f"{_exact(p)}^{_exact(v)} has about {length} digits, more than the {memory} bytes this process may use"
        )
    with localcontext() as context:
        context.prec, context.Emax, context.traps[Inexact] = digits, MAX_EMAX, True
        return str(Decimal(p) ** v)


class _Labels(dict):
    """label -> head + label + tail, made on first lookup: the text pieces of
    one orbit column, kept for one _orbits_write call."""

    __slots__ = ("head", "tail")

    def __init__(self, head: str, tail: str) -> None:
        self.head = head
        self.tail = tail

    def __missing__(self, label: int) -> str:
        text = self[label] = self.head + int.__repr__(label) + self.tail
        return text


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for plain trees: dicts with
    str keys, lists, tuples, str, int, bool and None, where an int outside a
    list may have any length (see _exact); anything else, an Orbit or a record
    included, raises TypeError.  The text is one join of the pieces _json_write
    appends, so no part of it is copied on its way up the tree."""
    out: list[str] = []
    _json_write(value, indent, out)
    return "".join(out)


def _document(command: str, payload: dict) -> str:
    """The json document of a command's payload, headed by its schema and command."""
    return _json_text({"schema": SCHEMA, "command": command, **payload})


def _json_write(value, indent: str, out: list[str]) -> None:
    """Append the json of value at indent to out.  A list of plain ints is one
    join of texts from a bounded int table."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(_exact(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            # encode_basestring_ascii raises TypeError on a key that is not a str
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif type(value) is not list and type(value) is not tuple:  # a record is a tuple subclass: refused
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("[]")
    elif set(map(type, value)) == {int}:
        inner = indent + "  "
        out += "[\n" + inner, (",\n" + inner).join(map(_INT_TEXT, value)), "\n" + indent + "]"
    else:
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")


def _json_members(mapping: dict, inner: str) -> list[str]:
    """A dict's members, '"key": value', as _json_text renders them inside an object whose members sit at inner."""
    # encode_basestring_ascii raises TypeError on a key that is not a str
    return [encode_basestring_ascii(key) + ": " + _json_text(item, inner) for key, item in mapping.items()]


def _orbit_fields(
    data: OrbitData, m_max: int
) -> tuple[Optional[tuple[int, ...]], list[tuple[int, int]], Optional[int]]:
    """What gamma shows of one orbit at level m_max besides its points and
    epsilon, in text and json: the sign form clamped at m_max (see
    circseq.normalize), None when epsilon is all zero; the census up to m_max
    as (level, count) pairs with count > 0, which the clamp leaves as it is;
    and the circular level.  The sign form is spelled out only for entries
    past +-1, and the level taken from the clamped form only when the clamp
    cuts an entry; otherwise it is data.level.  The census is counted only up
    to its highest level, past which no count exists, so an orbit costs the
    same at any m_max.  A balanced orbit's highest level is its circular
    level: each dip of the running sums below their peak is a segment, and
    none is deeper than their spread."""
    eps = data.epsilon
    top = max(max(eps), -min(eps))
    level = data.level
    if top == 0:
        entries = None
    elif top == 1:
        entries = tuple(filter(None, eps))
    else:
        norm = normalize(eps, m_max)
        entries = norm.entries
        if top > m_max + 1:
            level = circular_level(norm)
    highest = data.level if data.level is not None else max([hi for _, hi in data.census], default=0)
    census = [(n, count) for n, count in enumerate(census_levels(data.census, min(m_max, highest))) if count]
    return entries, census, level


# The fixed text of gamma's json orbit records, objects at depth 2 of the
# document, between the values _orbits_write appends.
_POINTS = '{\n      "points": '
_EPSILON = '\n      ],\n      "epsilon": [\n        '
_ALL_ZERO = '\n      ],\n      "normalized": {\n        "kind": "all-zero",\n        "length": '
_SIGNS = '\n      ],\n      "normalized": {\n        "kind": "signs",\n        "entries": [\n          '
_CENSUS = '\n      },\n      "census": '
_LEVEL = ',\n      "level": '


def _orbits_write(orbits: Sequence[OrbitData], m_max: int, out: list[str]) -> None:
    """Append to out gamma's json "orbits" list, never empty, as a member value
    of the document: the text _json_text gives for each orbit's record
    {points, epsilon, normalized, census, level}, written straight from
    _orbit_fields with no dict per orbit.  It is the one writer of orbit
    points, each read from the orbit's two columns with no tuple and no %
    formatting per point: point (i, j) is a left piece of i (the separator,
    the open bracket and i) and a right piece of j (j and the close bracket),
    and the first point's separator ',' becomes the list's '['.  The two label
    tables are made once per call, and so are each first column's left pieces,
    kept by identity: product_orbits shares one first column among the orbits
    of a cycle pair."""
    left = _Labels(",\n        [\n          ", ",\n          ").__getitem__
    right = _Labels("", "\n        ]").__getitem__
    columns: dict = {}
    sep = "[\n    "
    for data in orbits:
        entries, census, level = _orbit_fields(data, m_max)
        first = data.orbit.first
        column = columns.get(id(first))
        if column is None:  # the column is kept with its pieces, so its id names no other object this call
            column = columns[id(first)] = (first, list(map(left, first)))
        points = [""] * (2 * len(first))  # a pair orbit has at least one point
        points[::2] = column[1]
        points[1::2] = map(right, data.orbit.second)
        points[0] = "[" + points[0][1:]
        out += sep, _POINTS
        out += points
        out += _EPSILON, ",\n        ".join(map(_INT_TEXT, data.epsilon))
        if entries is None:
            out += _ALL_ZERO, _INT_TEXT(len(data.epsilon)), _CENSUS
        else:
            out += _SIGNS, ",\n          ".join(map(_INT_TEXT, entries)), "\n        ]", _CENSUS
        if census:
            out += "{\n        ", ",\n        ".join([f'"{n}": {count}' for n, count in census]), "\n      }"
        else:
            out.append("{}")
        out += _LEVEL, "null" if level is None else _INT_TEXT(level), "\n    }"
        sep = ",\n    "
    out.append("\n  ]")


def _orbit_line(k: int, data: OrbitData, m_max: int) -> str:
    """gamma text's line for orbit k, read from _orbit_fields."""
    entries, census, level = _orbit_fields(data, m_max)
    return (
        f"orbit {k}: len={len(data.orbit)} eps={_seq_text(data.epsilon)} level={'none' if level is None else level}"
        f" census={{{','.join(f'{n}:{count}' for n, count in census)}}}{' all-zero' if entries is None else ''}"
    )


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
    return ";".join(map(str, value)) if type(value) is tuple else str(value)


def _seq_text(values: Sequence[int]) -> str:
    return "(" + ",".join(map(_exact, values)) + ")"


# ---------------------------------------------------------------- gamma


def cmd_gamma(args) -> Output:
    crystal = _crystal(args)
    _check_limits(args.override_limits, args.r, args.m_max)
    if args.format == "csv":
        gammas, delta, b, _ = class_tables(cycle_words(crystal), args.m_max, {})
        lines = ["m,gamma,delta,b", f"0,{gammas[0]},,"]
        for n in range(1, args.m_max + 1):
            lines.append(f"{n},{gammas[n]},{delta[n - 1]},{b[n - 1]}")
        return 0, lines
    report = gamma_table(crystal, args.m_max)

    if args.format == "json":
        # The document is rendered once with no orbits and cut at its list, the last member.
        payload = {
            **_crystal_json(crystal),
            "m_max": report.m_max,
            "gamma": report.gamma,
            "delta": report.delta,
            "b": report.b,
            "stabilization": report.stabilization,
            "stabilization_is_isomorphism_number": report.stabilization_is_isomorphism_number,
            "ordinary": report.ordinary,
            "orbits": [],
        }
        before, after = _document("gamma", payload).split('"orbits": []', 1)
        out = [before + '"orbits": ']
        _orbits_write(report.orbits, report.m_max, out)
        out.append(after)
        return 0, _Streamed(("".join(out),))
    lines = [
        f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes={_seq_text(crystal.slopes)}"
        f" dieudonne={_YESNO[crystal.is_dieudonne]} ordinary={_YESNO[report.ordinary]}",
        "gamma: " + " ".join(str(v) for v in report.gamma) + f"   (m = 0..{report.m_max})",
        "delta: " + " ".join(str(v) for v in report.delta) + f"   (m = 1..{report.m_max})",
        "b:     " + " ".join(str(v) for v in report.b) + f"   (m = 1..{report.m_max})",
        f"stabilization: {_exact(report.stabilization)}"
        + ("" if report.stabilization_is_isomorphism_number else " (level only; not an isomorphism number here)"),
    ]
    for k, data in enumerate(report.orbits, start=1):
        lines.append(_orbit_line(k, data, report.m_max))
    return 0, lines


# ---------------------------------------------------------------- endo


def cmd_endo(args) -> Output:
    crystal = _crystal(args)
    if args.m is None and args.m_max is None:
        raise ValueError("endo needs --m or --m-max")
    single = args.m is not None
    top = args.m if single else args.m_max
    _check_limits(args.override_limits, args.r, top, table=not single)  # endo_exponent builds no table
    b = [endo_exponent(crystal, top)] if single else class_tables(cycle_words(crystal), top, {})[2]
    # p^b for the printed levels only; empty without --prime
    powers = [] if args.prime is None else [_power(args.prime, v) for v in b]

    if args.format == "json":
        payload = _crystal_json(crystal)
        payload.update({"m": top, "b": b[0]} if single else {"m_max": top, "b": b})
        if powers:
            payload.update(prime=args.prime, components=powers[0] if single else powers)
        return 0, payload
    if single:
        level, exponent = _exact(top), _exact(b[0])
        lines = [f"components({level}) = {_exact(args.prime)}^{exponent} = {p}" for p in powers]
        return 0, [f"b({level}) = {exponent}", *lines]
    if args.format == "csv":
        lines = ["m,b,components" if powers else "m,b"]
        for n, v in enumerate(b, start=1):
            lines.append(f"{n},{v},{powers[n - 1]}" if powers else f"{n},{v}")
        return 0, lines
    lines = ["b: " + " ".join(str(v) for v in b) + f"   (m = 1..{top})"]
    if powers:
        lines.append("components: " + " ".join(powers))
    return 0, lines


# ---------------------------------------------------------------- verify


# verify's mode flags in the order they are checked, each with the flag it needs
# (None for a sweep flag, which --seq refuses) and the value it takes when not passed.
_VERIFY_FLAGS = {
    "--dump-digraph": ("--seq", False), "--m": ("--seq", None),
    "--random": (None, 0), "--r-max": (None, 3), "--slope-max": (None, 1),
    "--seed": ("--random", 0), "--max-s": ("--random", 10), "--max-entry": ("--random", 6),
}


def cmd_verify(args) -> Output:
    values = vars(args)
    # The modes.  A mode flag counts as passed only when its mode is on: --random 0
    # draws nothing, so --seq accepts it.
    on = {"--seq": args.seq is not None, "--random": bool(args.random)}
    for flag, (need, absent) in _VERIFY_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if not on.get(flag, values[dest] is not None):
            values[dest] = absent
        elif on["--seq"] and need != "--seq":
            raise ValueError(f"pass only one of --seq and {flag}")
        elif need is not None and not on[need]:
            raise ValueError(f"{flag} needs {need}")
    if args.m_max is None:  # the sweep's top level, and --seq's level without --m
        args.m_max = 4
    if args.seq is None:
        return _verify_sweep(args)
    seq = _parse_ints(args.seq, "--seq")
    m = args.m if args.m is not None else args.m_max
    _check_limits(args.override_limits, None, m)
    _check_vertices(m * len(seq), args.vertex_budget)

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


def _random_draws(seed: int, n: int, max_s: int, max_entry: int, m_max: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The n (seq, m) pairs of a random sweep, each a length s in 1..max_s, then s
    entries in -max_entry..max_entry, then a level in 1..m_max: the very draws
    random.Random(seed).randint makes, from the same stream, without its layers."""
    getrandbits = random.Random(seed).getrandbits

    def below(bound: int) -> int:
        # Random._randbelow: as many bits as bound has, drawn again while past it
        k = bound.bit_length()
        value = getrandbits(k)
        while value >= bound:
            value = getrandbits(k)
        return value

    width = 2 * max_entry + 1
    for _ in range(n):
        s = 1 + below(max_s)
        seq = tuple([below(width) - max_entry for _ in range(s)])
        yield seq, 1 + below(m_max)


def _verify_sweep(args) -> Output:
    _check_limits(args.override_limits, args.r_max, args.m_max)
    ranks = range(1, args.r_max + 1)
    _check_family_size(args.override_limits, "all-fcrystal", ranks, args.slope_max)
    if args.random > MAX_CRYSTALS and not args.override_limits:
        raise _over_cap(f"{_exact(args.random)} random sequences exceed", MAX_CRYSTALS)
    if args.random:
        _check_vertices(args.max_s * args.m_max, args.vertex_budget)
    for r in ranks:  # a rank-r crystal's orbits hold r * r positions, each with m vertices at level m
        vertices = r * r * args.m_max * (args.m_max + 1) // 2
        if vertices > args.vertex_budget:
            raise ResourceLimitError(
                f"verification needs about {vertices} digraph vertices, budget is {args.vertex_budget}"
            )
    crystals, checks, failed = verify_sweep(
        (pair for r in ranks for pair in enumerate_family("all-fcrystal", r, args.slope_max)), args.m_max
    )
    mismatches = [
        {
            "perm": cycle_string(pi),
            "slopes": slopes,
            "orbit": c.orbit_index,
            "m": c.m,
            "formula": [c.formula_linear, c.formula_circular],
            "oracle": [c.oracle_linear, c.oracle_circular],
        }
        for pi, slopes, c in failed
    ]

    for seq, m in _random_draws(args.seed, args.random, args.max_s, args.max_entry, args.m_max):
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
        lines.append(
            f"random: n={args.random} seed={_exact(args.seed)}"
            f" max_s={_exact(args.max_s)} max_entry={_exact(args.max_entry)}"
        )
    lines.append(f"mismatches: {len(mismatches)}")
    lines.append("ok" if ok else "FAIL")
    return (0 if ok else 1), lines


# ---------------------------------------------------------------- scan


def _scan_rows(
    before: str, heads: Iterable[str], cells: list[str], tails: list[str], rows: Iterable[Iterable[int]], sep: str,
    after: str,
) -> Iterator[str]:
    """A scan's csv lines or json records as chunks of _SCAN_CHUNK crystals:
    their text is before, then for each crystal (perms[p], slopes[s]) of class
    c in enumeration order heads[p] + cells[s] + tails[c], with sep between
    crystals, then after, which the last chunk holds with the last crystals.
    The pieces, sep + head, cells and tail per crystal (before + head for the
    first), are filled a permutation at a time by slice assignment into a
    block whose cells stay in place, and each chunk's pieces are joined once."""
    n = len(cells)
    size = 3 * _SCAN_CHUNK
    block = [""] * (3 * n)
    block[1::3] = cells
    pieces: list[str] = []
    first: Optional[str] = before
    for head, row in zip(heads, rows):
        block[::3] = [sep + head] * n
        block[2::3] = map(tails.__getitem__, row)
        if first is not None:
            block[0] = first + head
            first = None
        pieces += block
        if len(pieces) > size:  # whole chunks, and at least one crystal held back for after
            cut = (len(pieces) - 1) // size * size
            for start in range(0, cut, size):
                yield "".join(pieces[start : start + size])
            del pieces[:cut]
    pieces.append(after)  # a scan has at least one crystal, so the last chunk holds one
    yield "".join(pieces)


def cmd_scan(args) -> Output:
    _check_limits(args.override_limits, args.r, args.m_max)
    _check_family_size(args.override_limits, args.family, [args.r], args.slope_max)
    names = ScanRecord._fields  # the record fields in order, the csv columns
    checks = tuple(dict.fromkeys(args.check or CHECKS))  # each named once, in first-seen order
    slope_max = slope_bound(args.family, args.slope_max)
    perms, slopes, classes, counts, rows = scan_table(args.family, args.r, args.m_max, slope_max)
    # --check applies here and nowhere else: every output below reads these class records
    blank = {field: None for name, field in zip(CHECKS, names[-len(CHECKS) :]) if name not in checks}
    classes = [record._replace(**blank) for record in classes]
    summary = summarize(classes, counts)
    violations = sum(v for k, v in summary.items() if k.startswith("violations"))
    code = 0 if violations == 0 else 1

    if args.format == "json":
        # A record is an object at depth 2 of the payload, its members at inner: its head (r, perm) is rendered
        # once per permutation, its slopes once per slope vector and its tail (gamma onward) once per class; m_max
        # is stated once in the payload.  The document is rendered once with no records and cut at its list,
        # which precedes "summary" (whose own records member is an int), so its two parts are the first and
        # last chunk's.
        inner = "      "
        sep = ",\n" + inner
        split = names.index("gamma")
        heads = ("{\n" + inner + sep.join(_json_members({"r": args.r, "perm": perm}, inner)) + sep for perm in perms)
        cells = [sep.join(_json_members({"slopes": vector}, inner)) + sep for vector in slopes]
        tails = [
            sep.join(_json_members(dict(zip(names[split:], record[split:])), inner)) + "\n    }" for record in classes
        ]
        payload = {"family": args.family, "r": args.r, "slope_max": slope_max, "m_max": args.m_max, "checks": checks}
        before, after = _document("scan", {**payload, "records": [], "summary": summary}).split('"records": []', 1)
        records = _scan_rows(before + '"records": [\n    ', heads, cells, tails, rows, ",\n    ", "\n  ]" + after)
        return code, _Streamed(records)
    summary_line = " ".join(f"{k}={v}" for k, v in summary.items())
    if args.format == "csv":
        split = names.index("m_max")  # the cells from m_max on are the class's, rendered once per class
        heads = (f'{args.r},"{perm}",' for perm in perms)
        cells = [_csv_cell(vector) + "," for vector in slopes]
        tails = [",".join(map(_csv_cell, record[split:])) for record in classes]
        csv = _scan_rows(",".join(names) + "\n", heads, cells, tails, rows, "\n", "")
        return code, _Streamed(csv, summary_line)  # main writes the summary after the csv, to the other stream

    head = f"scan family={args.family} r={args.r} slope_max={slope_max} m_max={args.m_max}\n{summary_line}"
    if not violations:
        return code, [head, "all checks passed"]
    named = [",".join(record.violations) for record in classes]
    cells = [" slopes=" + _seq_text(vector) + ": " for vector in slopes]
    lines = (  # a chunk per permutation: its crystals' VIOLATION lines, each after a newline
        "".join(["\nVIOLATION perm=" + perm + cells[s] + named[c] for s, c in enumerate(row) if named[c]])
        for perm, row in zip(perms, rows)
    )
    return code, _Streamed(itertools.chain((head,), lines))


# ---------------------------------------------------------------- minimal


def cmd_minimal(args) -> Output:
    crystal = _crystal(args)
    _check_limits(args.override_limits, args.r, None)
    if not crystal.is_dieudonne:
        raise ValueError("minimality verdicts need 0/1 slopes")
    words = cycle_words(crystal)
    verdict = is_minimal_words(words)
    stabilization = class_tables(words, 1, {})[3]  # the largest census level, whatever the table's length
    consistent = verdict == (stabilization <= 1)
    code = 0 if consistent else 1
    slopes = newton_slopes(crystal)

    if args.format == "json":
        return code, {
            **_crystal_json(crystal),
            "newton_slopes": [str(s) for s in slopes],
            "minimal": verdict,
            "stabilization": stabilization,
            "consistent": consistent,
        }
    return code, [
        f"crystal r={crystal.r} perm={cycle_string(crystal.pi)} slopes={_seq_text(crystal.slopes)}",
        "newton slopes: " + " ".join(str(s) for s in slopes),
        f"minimal: {_YESNO[verdict]}",
        f"stabilization: {stabilization} consistent={_YESNO[consistent]}",
    ]


# ---------------------------------------------------------------- parser


def _add_crystal_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=_integer, required=True, help="rank, the number of basis vectors")
    p.add_argument("--perm", required=True, help='permutation, cycle form "(1 2)" or one-line "2 1"')
    p.add_argument("--slopes", required=True, help='comma or space separated slopes, e.g. "0,1"')


def _add_common_output(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument(
        "--out",
        help="write output to this file (atomic replace of a symlink's target; FIFOs and devices are written in place)",
    )
    p.add_argument("--override-limits", action="store_true", help="lift the default r, level, crystal and --random caps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcrystal", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="automorphism dimension table")
    _add_crystal_args(p)
    p.add_argument("--m-max", type=_integer, required=True)
    _add_common_output(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("endo", help="endomorphism component exponent")
    _add_crystal_args(p)
    p.add_argument("--m", type=_integer)
    p.add_argument("--m-max", type=_integer)
    p.add_argument("--prime", type=_integer, help="also print p^b for this prime")
    _add_common_output(p)
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("verify", help="closed-form counts vs the digraph census")
    p.add_argument("--seq", help="verify one circular sequence, e.g. \"3,0,-1,-2\"")
    p.add_argument("--m", type=_integer, help="level for --seq mode")
    p.add_argument("--r-max", type=_integer, help="sweep mode: all permutations up to this rank (default 3)")
    p.add_argument("--slope-max", type=_integer, help="sweep mode: slope entries range over 0..this (default 1)")
    p.add_argument("--m-max", type=_integer, help="sweep: levels 1..this; --seq: the level without --m (default 4)")
    p.add_argument("--random", type=_integer, help="extra random sequences to verify")
    p.add_argument("--seed", type=_integer, help="random mode: the seed (default 0)")
    p.add_argument("--max-s", type=_integer, help="random mode: longest sequence (default 10)")
    p.add_argument("--max-entry", type=_integer, help="random mode: largest entry magnitude (default 6)")
    p.add_argument("--vertex-budget", type=_integer, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("--dump-digraph", action="store_true", default=None, help="with --seq: dump the digraph in DOT format")
    _add_common_output(p, formats=("text", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="sweep a family and check the expected properties")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--slope-max", type=_integer, default=1, help="fcrystal families: slopes range over 0..this")
    p.add_argument("--m-max", type=_integer, required=True)
    p.add_argument("--check", action="append", choices=CHECKS, help="repeatable; default: all checks")
    p.add_argument(
        "--workers", type=_integer, default=0,
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
        _check_flags(args)
        code, output = args.func(args)
        note = None
        if isinstance(output, dict):
            chunks = (_document(args.command, output),)
        elif type(output) is _Streamed:
            chunks, note = output.chunks, output.note
        else:
            chunks = ("\n".join(output),)
        _emit(itertools.chain(chunks, ("\n",)), args.out)
        if note is not None:
            (sys.stderr if args.out is None else sys.stdout).write(note + "\n")
    except (ResourceLimitError, MemoryError) as exc:  # a MemoryError's text is usually empty
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
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
