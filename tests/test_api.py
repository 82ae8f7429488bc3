"""The public names: everything in fcrystal.__all__ resolves, and the names the
benchmark harness in perfbench/ imports or wraps still exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import fcrystal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The one traced name with no function behind it: checks_ms still lists the
# removed crystal.delta_monotonicity_report, and a missing name reads as 0 there.
TRACED_BUT_REMOVED = {("fcrystal.crystal", "delta_monotonicity_report")}


def perfbench_traced() -> list[tuple[str, str]]:
    """(module, name) for every function spans.py sums spans of, read from its
    TIMED_GROUPS and CALL_GROUPS."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    groups = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TIMED_GROUPS", "CALL_GROUPS"):
                groups[node.targets[0].id] = ast.literal_eval(node.value)
    names = [name for group in groups["TIMED_GROUPS"].values() for name in group]
    names += groups["CALL_GROUPS"].values()
    return [tuple(f"fcrystal.{name}".rsplit(".", 1)) for name in names]


def perfbench_imports() -> list[tuple[str, str]]:
    """(module, name) for every ``from fcrystal... import name`` in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fcrystal":
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_all_names_resolve():
    assert [name for name in fcrystal.__all__ if not hasattr(fcrystal, name)] == []


def test_perfbench_names_exist():
    names = perfbench_imports()
    traced = perfbench_traced()
    assert ("fcrystal.digraph", "oracle_counts") in names  # the scans above found the imports
    assert ("fcrystal.circseq", "segment_census") in traced
    for module, name in names + traced:
        if (module, name) not in TRACED_BUT_REMOVED:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # child.py calls fcrystal.cli.main through the module, and spans.py reads
    # pair_edges' lru_cache statistics.
    assert callable(importlib.import_module("fcrystal.cli").main)
    assert callable(fcrystal.digraph.pair_edges.cache_info)


def test_oracle_imports_nothing_from_closed_forms():
    # the digraph oracle is the independent check of circseq, so it must not reuse its code
    source = Path(fcrystal.digraph.__file__).read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported and not [name for name in imported if "circseq" in name.split(".")]


def test_cli_imports_no_closed_form_or_oracle_count():
    # the formula-vs-oracle comparison lives in fcrystal.crystal (verify_sequence
    # and verify_formula_vs_oracle); the cli only reports its checks
    source = Path(importlib.import_module("fcrystal.cli").__file__).read_text()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "verify_sequence" in imported
    assert not {"run_census", "linear_at", "circular_at", "oracle_counts"} & set(imported)
