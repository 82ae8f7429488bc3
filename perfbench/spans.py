"""Spans around the public functions of every fcrystal module, installed from outside.

``Tracer.install`` replaces each public function of the six package modules
with a wrapper that records a span (name, parent, start, end), and rebinds
every module global that refers to the original, so calls that go through the
names other modules imported are traced too.  Generator functions get one
span per resumption.  Spans live in flat arrays while the pass runs; self time
per layer and the per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("permutation", "circseq", "digraph", "crystal", "scan", "cli")

# Inclusive-time metrics: metric name -> the functions whose spans it sums.
TIMED_GROUPS = {
    "permutation.product_orbits_ms": ("permutation.product_orbits",),
    "permutation.parse_ms": ("permutation.parse_permutation",),
    "crystal.gamma_table_ms": ("crystal.gamma_table",),
    "crystal.checks_ms": ("crystal.delta_monotonicity_report", "crystal.is_minimal", "crystal.newton_slopes"),
    "crystal.verify_ms": ("crystal.verify_formula_vs_oracle",),
    "circseq.normalize_ms": ("circseq.normalize", "circseq.normalize_full"),
    "circseq.census_ms": ("circseq.segment_census",),
    "circseq.circular_level_ms": ("circseq.circular_level",),
    "circseq.closed_form_ms": ("circseq.linear_count", "circseq.circular_count"),
    "digraph.build_ms": ("digraph.build_level_digraph",),
    "digraph.propagate_ms": ("digraph.propagate_zeros",),
    "digraph.classify_ms": ("digraph.classify_components",),
    "scan.enumerate_ms": ("scan.enumerate_family",),
    "scan.record_ms": ("scan.scan_record",),
}
CALL_GROUPS = {
    "permutation.product_orbits_calls": "permutation.product_orbits",
    "crystal.gamma_table_calls": "crystal.gamma_table",
    "circseq.census_calls": "circseq.segment_census",
    "digraph.oracle_calls": "digraph.oracle_counts",
}


def class_key(images: tuple[int, ...], slopes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Isomorphism class of a crystal: its cycles' slope words, each rotated to
    its least rotation, sorted.  Relabeling the basis conjugates pi, which keeps
    exactly this data."""
    seen = [False] * len(images)
    words = []
    for start in range(len(images)):
        if seen[start]:
            continue
        word = []
        i = start
        while not seen[i]:
            seen[i] = True
            word.append(slopes[i])
            i = images[i] - 1
        words.append(min(tuple(word[k:] + word[:k]) for k in range(len(word))))
    return tuple(sorted(words))


class Tracer:
    """Span recorder.  One instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = {
            "permutation.orbit_points": 0,
            "circseq.census_sign_entries": 0,
            "digraph.vertices": 0,
            "digraph.arcs": 0,
        }
        self.classes: set = set()
        self.records = 0
        self._pair_edges = None

    # ---------------------------------------------------------- wrapping

    def _hook(self, name: str) -> Optional[Callable]:
        counts = self.counts
        if name == "permutation.product_orbits":
            def hook(args, result):
                counts["permutation.orbit_points"] += sum(len(o.points) for o in result)
        elif name == "circseq.segment_census":
            def hook(args, result):
                counts["circseq.census_sign_entries"] += len(args[0].entries)
        elif name == "digraph.build_level_digraph":
            def hook(args, result):
                counts["digraph.vertices"] += result.vertex_count
                counts["digraph.arcs"] += len(result.edges)
        elif name == "scan.scan_record":
            def hook(args, result):
                self.records += 1
                self.classes.add(class_key(args[0].images, tuple(args[1])))
        else:
            return None
        return hook

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self.names.append(name)
        nid = len(self.names) - 1
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        hook = self._hook(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the package modules, wherever it is bound."""
        package = importlib.import_module("fcrystal")
        modules = [importlib.import_module(f"fcrystal.{layer}") for layer in LAYERS]
        wrapped: dict[int, Callable] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                if attr == "pair_edges":
                    self._pair_edges = obj
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    setattr(module, attr, wrapped[id(obj)])

    # ---------------------------------------------------------- results

    def write(self, path_stem: Path) -> None:
        """Write the spans: a JSON header with the name table and a binary body
        of four arrays (name id int32, parent int32, start float64, end float64)."""
        path_stem.parent.mkdir(parents=True, exist_ok=True)
        with open(path_stem.with_suffix(".bin"), "wb") as handle:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)
        header = {"names": self.names, "spans": len(self.span_name),
                  "columns": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"]}
        path_stem.with_suffix(".json").write_text(json.dumps(header) + "\n")

    def layer_metrics(self, crystals: int) -> dict[str, float]:
        """Per-layer metrics of the traced pass; ``crystals`` is the number of
        crystals its ops asked about."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        incl = [0.0] * k
        self_t = [0.0] * k
        calls = [0] * k
        names = self.span_name
        for i in range(n):
            nid = names[i]
            incl[nid] += dur[i]
            self_t[nid] += dur[i] - child[i]
            calls[nid] += 1
        by_name = {name: (incl[i], self_t[i], calls[i]) for i, name in enumerate(self.names)}

        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = 1000 * sum(
                v[1] for name, v in by_name.items() if name.split(".")[0] == layer
            )
        for metric, group in TIMED_GROUPS.items():
            metrics[metric] = 1000 * sum(by_name.get(name, (0.0, 0.0, 0))[0] for name in group)
        for metric, name in CALL_GROUPS.items():
            metrics[metric] = by_name.get(name, (0.0, 0.0, 0))[2]
        metrics.update(self.counts)
        metrics["crystal.orbit_walks_per_crystal"] = (
            metrics["permutation.product_orbits_calls"] / crystals if crystals else 0.0
        )
        info = self._pair_edges.cache_info()
        lookups = info.hits + info.misses
        metrics["digraph.pair_edges_hit_ratio"] = info.hits / lookups if lookups else 0.0
        metrics["scan.class_share"] = (
            (self.records - len(self.classes)) / self.records if self.records else 0.0
        )
        return metrics
