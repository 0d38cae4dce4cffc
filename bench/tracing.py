"""Spans around the library's public calls, for the per-layer metrics.

`Tracer.install` replaces each public function at the name its caller looks
it up by (a module global of the calling module, or a class attribute for
methods) with a wrapper that records one span: name, job id, parent span,
start, end and a few facts read off the arguments and the result.  Spans
stay in memory; `uninstall` puts every original object back and checks that
it did.  Private helpers (`_heavy_sets`, `_cover_search`) are not wrapped
because planned refactors remove them, nor are per-edge functions (`weight`,
`clique_weight`), which run millions of times per job.

A layer's self time is the duration of its spans minus the parts covered by
their direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from itertools import combinations
from math import comb

from check import Graph

# (module, attribute, span name); the layer is the span name's prefix
TARGETS = (
    ("heavyfactors.cli", "main", "cli.main"),
    ("heavyfactors.core", "WeightedCompleteGraph.__init__", "core.graph"),
    ("heavyfactors.core", "WeightedCompleteGraph.from_flat", "core.graph"),
    ("heavyfactors.core", "WeightedCompleteGraph.with_weight", "core.graph.with_weight"),
    ("heavyfactors.core", "WeightedCompleteGraph.induced", "core.graph"),
    ("heavyfactors.core", "WeightedCompleteGraph.scale", "core.graph"),
    ("heavyfactors.cli", "load_graph", "core.io"),
    ("heavyfactors.cli", "save_graph", "core.io"),
    ("heavyfactors.cli", "dumps_canonical", "core.io"),
    ("heavyfactors.core", "dumps_canonical", "core.io"),
    ("heavyfactors.cli", "build", "constructions.build"),
    ("heavyfactors.lab", "prop2_construction", "constructions.build"),
    ("heavyfactors.cli", "find_heavy_factor", "solver.solve"),
    ("heavyfactors.lab", "find_heavy_factor", "solver.solve.lab"),
    ("heavyfactors.schemes", "find_heavy_factor", "solver.solve.fallback"),
    ("heavyfactors.cli", "scheme2_factor", "schemes.scheme2"),
    ("heavyfactors.schemes", "scheme2_factor", "schemes.scheme2"),
    ("heavyfactors.schemes", "scheme2_partition", "schemes.split"),
    ("heavyfactors.schemes", "build_bipartite_average", "schemes.average"),
    ("heavyfactors.schemes", "perfect_matching", "matching.blossom"),
    ("heavyfactors.schemes", "bipartite_maximum_matching", "matching.kuhn"),
    ("heavyfactors.cli", "adversarial_search", "lab.adversary"),
    ("heavyfactors.lab", "evaluate_lower_bounds", "lab.lower_bound"),
    ("heavyfactors.cli", "verify_theorem3_empirically", "lab.verify"),
)


def _facts(name: str, signature, args, kwargs, result) -> dict:
    """What the per-layer counters need from one call that returned."""
    if name.startswith("solver.solve"):
        bound = signature.bind(*args, **kwargs)
        graph, params = bound.arguments["graph"], bound.arguments["params"]
        return {"sets": comb(graph.n, params.r), "nodes": result.nodes_explored,
                "found": result.factor is not None, "graph": graph}
    if name == "matching.blossom":
        return {"unmatched": result is None}
    if name == "matching.kuhn":
        return {"unmatched": -1 in result}
    if name == "lab.adversary":
        return {"trials": signature.bind(*args, **kwargs).arguments["budget"]}
    if name == "lab.verify":
        return {"trials": signature.bind(*args, **kwargs).arguments["trials"]}
    return {}


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent index, start, end, facts]
        self.job = "setup"
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, signature):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, self.job, parent, 0.0, 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = time.perf_counter()
                self._open.pop()
                span[5] = {"raised": True}
                raise
            span[4] = time.perf_counter()
            self._open.pop()
            span[5] = _facts(name, signature, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attribute, name in TARGETS:
            owner, attr = _resolve(module, attribute)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                fn = original.__func__
                replacement = classmethod(self._wrap(name, fn, inspect.signature(fn)))
            else:
                replacement = self._wrap(name, original, inspect.signature(original))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> bool:
        """Restore every original; True when each name holds its original again."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in saved)


def twin_classes(graph) -> int:
    pairs = combinations(range(graph.n), 2)
    return Graph(graph.n, {(i, j): graph.weight(i, j) for i, j in pairs}).twin_classes()


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and self times of a list of spans.

    Solver spans carry the graph they solved; it is measured for twin
    classes here and then dropped, so the spans can be written as JSON.
    """
    child_time = [0.0] * len(spans)
    for name, job, parent, start, end, facts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, (name, job, parent, start, end, facts) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        count[name] = count.get(name, 0) + 1

    def total(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    solves = [s for s in spans if s[0].startswith("solver.solve") and not s[5].get("raised")]
    splits = [s for s in spans if s[0] == "schemes.split"]
    matchings = [s for s in spans if s[0].startswith("matching.")]
    # candidate graphs of the adversary: one with_weight rebuild each, solved right after
    candidates = [s for s in spans if s[0] == "core.graph.with_weight"
                  and s[2] >= 0 and spans[s[2]][0] == "lab.adversary"]
    rejected = [s for s in solves if s[0] == "solver.solve.lab" and s[2] >= 0
                and spans[s[2]][0] == "lab.adversary" and s[5]["found"]]
    top_builds = [s for s in spans if s[0].startswith("core.graph")
                  and (s[2] < 0 or not spans[s[2]][0].startswith("core.graph"))]
    solve_s = total("solver.solve")
    nodes = sum(s[5]["nodes"] for s in solves)
    exhausted = sum(1 for s in solves if not s[5]["found"])
    split_ok = sum(1 for s in splits if not s[5].get("raised"))
    graphs = [s[5].pop("graph") for s in solves]
    per_vertex = [twin_classes(g) / g.n for g in graphs]

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    return {
        "core.graph_builds": (len(top_builds), "count"),
        "core.graph_build_s": (total("core.graph"), "s"),
        "core.io_s": (total("core.io"), "s"),
        "constructions.s": (total("constructions"), "s"),
        "solver.solves": (len(solves), "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "solver.sets_scanned": (sum(s[5]["sets"] for s in solves), "count"),
        "solver.exhausted_share": (share(exhausted, len(solves)), "ratio"),
        "schemes.split_calls": (len(splits), "count"),
        "schemes.split_s": (total("schemes.split"), "s"),
        "schemes.split_ok_ratio": (share(split_ok, len(splits)), "ratio"),
        "schemes.scheme2_calls": (count.get("schemes.scheme2", 0), "count"),
        "schemes.self_s": (total("schemes.scheme2"), "s"),
        "schemes.average_s": (total("schemes.average"), "s"),
        "schemes.fallback_solves": (count.get("solver.solve.fallback", 0), "count"),
        "matching.blossom_calls": (count.get("matching.blossom", 0), "count"),
        "matching.blossom_s": (total("matching.blossom"), "s"),
        "matching.kuhn_calls": (count.get("matching.kuhn", 0), "count"),
        "matching.kuhn_s": (total("matching.kuhn"), "s"),
        "matching.unmatched_share": (
            share(sum(1 for s in matchings if s[5].get("unmatched")), len(matchings)), "ratio"),
        "lab.self_s": (total("lab"), "s"),
        "lab.trials": (sum(s[5].get("trials", 0) for s in spans if s[0].startswith("lab.")),
                       "count"),
        "lab.candidate_solves": (len(candidates), "count"),
        "lab.rejected_share": (share(len(rejected), len(candidates)), "ratio"),
        "cli.self_s": (total("cli"), "s"),
        "input.feasible_solve_share": (share(len(solves) - exhausted, len(solves)), "ratio"),
        "input.split_exhausted_share": (share(len(splits) - split_ok, len(splits)), "ratio"),
        "input.twin_rich_share": (share(sum(x <= 0.5 for x in per_vertex), len(graphs)), "ratio"),
        "input.twin_classes_per_vertex": (share(sum(per_vertex), len(graphs)), "ratio"),
        "trace.spans": (len(spans), "count"),
    }
