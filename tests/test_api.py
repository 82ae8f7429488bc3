"""The public names: everything in fcrystal.__all__ resolves, and the names the
benchmark harness in perfbench/ imports or wraps still exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import fcrystal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Looked up by the harness other than through an import statement: spans.py
# traces these by module and name, and reads pair_edges' lru_cache statistics.
WRAPPED = [
    ("fcrystal", "normalize"),
    ("fcrystal", "normalize_full"),
    ("fcrystal", "orbit_epsilon"),
    ("fcrystal", "product_orbits"),
    ("fcrystal.circseq", "segment_census"),
    ("fcrystal.crystal", "gamma_table"),
    ("fcrystal.scan", "enumerate_family"),
    ("fcrystal.scan", "scan_record"),
    ("fcrystal.digraph", "oracle_counts"),
    ("fcrystal.digraph", "build_level_digraph"),
    ("fcrystal.cli", "main"),
]


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
    assert ("fcrystal.digraph", "oracle_counts") in names  # the scan above found the imports
    for module, name in names + WRAPPED:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert callable(fcrystal.digraph.pair_edges.cache_info)
