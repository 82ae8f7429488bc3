"""The public names: everything in fcrystal.__all__ resolves, the names the
benchmark harness in perfbench/ imports or wraps still exist, and the names the
README's library quick start mentions exist, and the README's command line
examples run, and the benchmark's traced pass runs.  Also what importing the
cli costs: it loads no dataclasses machinery; that only the cli refuses for
size; that only a command's whole output streams; and that one gather reads
the labelled orbits' columns."""

from __future__ import annotations

import ast
import builtins
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fcrystal
from fcrystal.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Traced names with no function behind them, each of which reads as 0 in its
# span: checks_ms still lists the removed crystal.delta_monotonicity_report,
# verify_ms the removed crystal.verify_formula_vs_oracle (now in
# tests/reference_verify.py), and census_ms and census_calls the removed
# circseq.segment_census (now in tests/reference_census.py).
TRACED_BUT_REMOVED = {
    ("fcrystal.crystal", "delta_monotonicity_report"),
    ("fcrystal.crystal", "verify_formula_vs_oracle"),
    ("fcrystal.circseq", "segment_census"),
}


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


@pytest.mark.parametrize("workload", ["scan", "verify", "query"])
def test_perfbench_traced_pass_runs(workload):
    # the traced pass wraps every public function and its hooks read library
    # internals (scan_record's permutation images, product_orbits' points,
    # build_level_digraph's vertex_count and edges), which the name checks
    # above do not reach
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1"]
    result = subprocess.run(argv + ["--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True


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
    # and verify_sweep); the cli only reports its checks
    source = Path(importlib.import_module("fcrystal.cli").__file__).read_text()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "verify_sequence" in imported
    assert not {"run_census", "linear_at", "circular_at", "oracle_counts"} & set(imported)


def test_labelled_orbit_walk_serves_only_labelled_output():
    # Inside src/, the labelled pair orbits (product_orbits) are read only by
    # orbit_data, for gamma's per-orbit records, and by verify_sweep, for its
    # exact sequences; orbit_data only by gamma_table.  Every number that
    # prints no orbit reads the label-free pair core (cycle_words, pair_table).
    # Any use counts, called or passed on, in any function of any module.
    users = {"product_orbits": set(), "orbit_data": set()}

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in users:
            users[name].add(f"{module}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(fcrystal.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    assert users == {
        "product_orbits": {"crystal.orbit_data", "crystal.verify_sweep"},
        "orbit_data": {"crystal.gamma_table"},
    }


def test_one_gather_reads_the_orbit_columns():
    # inside crystal.py only _orbit_sequences reads an Orbit's two columns:
    # orbit_data, orbit_epsilon and verify_sweep take their slope differences
    # from it
    readers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("first", "second"):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(Path(fcrystal.crystal.__file__).read_text()), "<module>")
    assert readers == {"_orbit_sequences"}


def test_only_the_cli_refuses_for_size():
    # every resource refusal is decided in the cli, before any work; the
    # library defines and exports ResourceLimitError but raises it nowhere
    raisers = set()
    for path in sorted(Path(fcrystal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else exc.attr if isinstance(exc, ast.Attribute) else None
                if name == "ResourceLimitError":
                    raisers.add(path.stem)
    assert raisers == {"cli"}
    assert fcrystal.ResourceLimitError is fcrystal.crystal.ResourceLimitError


def test_only_a_whole_output_streams():
    # the json writer renders whole trees, with no streamed value inside one,
    # and main treats every command and format alike: a command's output is a
    # payload, lines, or one _Streamed carrying any note for the other stream
    source = Path(importlib.import_module("fcrystal.cli").__file__).read_text()
    functions = {node.name: node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    writer = [node.id for node in ast.walk(functions["_json_write"]) if isinstance(node, ast.Name)]
    assert "Orbit" not in writer and "_Streamed" not in writer
    constants = {node.value for node in ast.walk(functions["main"]) if isinstance(node, ast.Constant)}
    assert constants & {"gamma", "endo", "verify", "scan", "minimal", "text", "json", "csv"} == set()


def quick_start_names() -> list[str]:
    """The names the README's "Library quick start" section mentions: every
    backticked span that is a name or a call, `name` or `name(...)`, and every
    name its code block imports from fcrystal."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = [
        match.group(1)
        for span in re.findall(r"`([^`]+)`", prose)
        if (match := re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span, re.S))
    ]
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module == "fcrystal":
            names.extend(alias.name for alias in node.names)
    return names


def test_readme_quick_start_names_resolve():
    # a name resolves as a public name of fcrystal or of a fcrystal.<module>, as
    # a field or attribute of a class they export (OrbitData's census, a named
    # tuple field, is a class attribute), or as a builtin (len); so the docs
    # cannot name a retired function
    modules = [fcrystal] + [
        importlib.import_module(f"fcrystal.{info.name}") for info in pkgutil.iter_modules(fcrystal.__path__)
    ]
    classes = [obj for module in modules for obj in vars(module).values() if isinstance(obj, type)]
    members = {name for cls in classes for name in dir(cls)}
    names = quick_start_names()
    assert {"gamma_table", "verify_sweep", "run_census", "OrbitData"} <= set(names)  # the scan found the section
    missing = [
        name
        for name in names
        if not any(hasattr(module, name) for module in modules) and name not in members and not hasattr(builtins, name)
    ]
    assert missing == []


def readme_commands() -> list[list[str]]:
    """The arguments of every `fcrystal ...` line in the fenced block of the
    README's "Command line" section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fcrystal ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["gamma", "endo", "verify", "verify", "scan", "minimal"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
    assert (tmp_path / "scan.csv").read_text()


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; this is the offline
    # guard of that floor for syntax (it cannot see a library call that 3.10
    # lacks).  A 3.11-only form is refused, so the check has teeth.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted(path for folder in ("src", "tests", "demos", "perfbench") for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 40
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_cli_import_loads_no_dataclasses():
    # import dataclasses pulls in inspect, ast, dis and tokenize, and each
    # dataclass execs its generated methods at every import: together about half
    # of a command's start-up, for records that named tuples hold as well
    code = "import sys; before = set(sys.modules); import fcrystal.cli; print(sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(ast.literal_eval(result.stdout))
    assert "fcrystal.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()
