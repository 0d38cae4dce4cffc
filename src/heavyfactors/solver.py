"""Exact decision procedures for heavy clique factors.

Everything here is complete search over exact rationals: a backtracking
cover search over the heavy r-sets, a brute-force enumerator of all block
partitions used as its oracle, the per-vertex heavy-clique counting bound,
the Daykin-Haggkvist degree test on the family of heavy r-sets (a factor is
a perfect matching of that family, so the one cover search decides both
views), and exhaustive enumeration of maximum heavy collections together
with the structural checks a maximum must satisfy.

A heavy collection is a family of disjoint heavy r-blocks, compared first by
size and then by the number of overweight edges lying inside a block.  At a
maximum of that order an exchange argument pins down a lot of structure
around any r uncovered vertices; `check_facts_at_maximum` verifies all of it
and returns witnesses for anything that fails.  A failure on a genuine
maximum means a strictly better collection exists, so it is always a bug
witness, never an expected outcome.

The heavy r-sets of an instance are listed once per call, in integers: the
graph's integer weight rows are summed against the bar t * C(r, 2) put over
the graph's denominator, and the r-sets are walked in lexicographic order,
each prefix carrying its integer weight and a gain row (the weight from the
prefix to every later vertex), so adding a vertex costs one addition and one
comparison.  Each set comes with its bitmask, built from its prefix's mask.  Fractions stay at the edges:
input graphs, certificates and block weights.

The backtracking search anchors the uncovered vertex with the fewest live
candidate blocks (ties to the smallest index) and tries that vertex's
candidates in lexicographic order.  The scan that picks the anchor doubles as
the fail-fast prune: any uncovered vertex with no live candidate kills the
node immediately.  Counts of explored nodes are recorded so certificates can
say how hard an instance was.

The search from a node reads nothing but the set of covered vertices, so a
covered set that failed once fails again.  Failed sets are cached by their
exact bitmask; a revisit adds the node count recorded for that subtree and
returns at once.  The reported count is therefore the size of the uncached
search tree, the same number the plain search would have counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator

from .core import (
    CapExceededError,
    CliqueFactor,
    FactorParams,
    WeightedCompleteGraph,
    _exact,
    format_rational,
    is_heavy,
    is_overweight_edge,
)

DEFAULT_SOLVER_CAP = 12
DEFAULT_ENUMERATION_CAP = 10


@dataclass(frozen=True)
class SolveCertificate:
    """Outcome of a complete search: a factor, or a proof of exhaustion.

    `nodes_explored` counts the nodes of the uncached search tree (root
    included): a failed state the search meets again adds the node count of
    its recorded subtree instead of exploring it.  Re-running the solver on
    the same input reproduces the certificate exactly.
    """

    params: FactorParams
    strict: bool
    factor: CliqueFactor | None
    nodes_explored: int

    @property
    def outcome(self) -> str:
        return "factor" if self.factor is not None else "exhausted"

    def to_json(self) -> dict:
        doc = {
            "outcome": self.outcome,
            "strict": self.strict,
            "nodes_explored": self.nodes_explored,
            "method": "backtrack",
            "r": self.params.r,
            "t": format_rational(self.params.t),
        }
        doc["factor"] = (
            None if self.factor is None else [sorted(b) for b in self.factor.blocks]
        )
        return doc


def enumerate_all_factors(n: int, r: int, cap: int = DEFAULT_SOLVER_CAP) -> Iterator[tuple]:
    """Stream every partition of {0..n-1} into blocks of size r, exactly once.

    Canonical form: each block is a sorted tuple led by the smallest vertex
    not in any earlier block.  This is the independent oracle the backtracking
    search is tested against, so it deliberately shares no code with it.
    The count for n, r is (n)! / ((r!)^(n/r) (n/r)!); n above `cap` raises
    instead of silently enumerating forever.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}")
    return _partitions(tuple(range(n)), r)


def _partitions(remaining: tuple, r: int) -> Iterator[tuple]:
    if not remaining:
        yield ()
        return
    anchor = remaining[0]
    pool = remaining[1:]
    for rest in combinations(pool, r - 1):
        block = (anchor,) + rest
        tail = tuple(v for v in pool if v not in rest)
        for rest_blocks in _partitions(tail, r):
            yield (block,) + rest_blocks


def _heavy_family(graph: WeightedCompleteGraph, params: FactorParams,
                  strict: bool) -> tuple[list[tuple], list[int]]:
    """Every heavy r-set as a sorted tuple, in lexicographic order, with its bitmask.

    Sums of the graph's integer rows meet the bar put over its denominator, so
    each comparison is between integers and decides exactly what
    `params.admits(graph.clique_weight(s), strict)` decides.  Each prefix of
    r - 2 vertices carries its weight and its gain row (`gain[v]` is the
    prefix's weight to v); adding a vertex a and then v costs one sum each.
    """
    n, r = graph.n, params.r
    rows = graph.rows
    need = graph.least_numerator(params.heavy_threshold, strict)
    sets: list[tuple] = []
    masks: list[int] = []
    for prefix in combinations(range(n - 2), r - 2):
        total = sum(rows[u][v] for u, v in combinations(prefix, 2))
        gain = [0] * n
        mask = 0
        for u in prefix:
            gain = [g + w for g, w in zip(gain, rows[u])]
            mask |= 1 << u
        for a in range(prefix[-1] + 1 if prefix else 0, n - 1):
            row = rows[a]
            short = need - total - gain[a]
            hits = [v for v in range(a + 1, n) if gain[v] + row[v] >= short]
            if hits:
                head = prefix + (a,)
                head_mask = mask | 1 << a
                sets.extend([head + (v,) for v in hits])
                masks.extend([head_mask | 1 << v for v in hits])
    return sets, masks


def _cover_search(n: int, sets: list[tuple], masks: list[int]) -> tuple[list[tuple] | None, int]:
    """Exact cover of {0..n-1} by disjoint sets drawn from `sets` (bitmasks `masks`).

    Fewest-live-candidates vertex is branched on; candidate order within a
    vertex follows the (lexicographic) order of `sets`.  Returns the chosen
    sets and the number of nodes of the uncached search tree.  A covered
    mask whose subtree failed is cached with that subtree's node count; a
    later visit adds the count and returns False without searching again.
    """
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for idx, s in enumerate(sets):
        for v in s:
            by_vertex[v].append(idx)
    chosen: list[int] = []
    found, nodes = _search(0, (1 << n) - 1, by_vertex, masks, chosen, {})
    return ([sets[i] for i in chosen] if found else None, nodes)


def _search(covered: int, full: int, by_vertex: list[list[int]], masks: list[int],
            chosen: list[int], failed: dict[int, int]) -> tuple[bool, int]:
    """One search node: (cover found, node count of its uncached subtree)."""
    if covered in failed:
        return False, failed[covered]
    if covered == full:
        return True, 1
    best_live = None
    rem = full & ~covered
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        live = [i for i in by_vertex[v] if not masks[i] & covered]
        if not live:
            failed[covered] = 1
            return False, 1
        if best_live is None or len(live) < len(best_live):
            best_live = live
    nodes = 1
    for i in best_live:
        chosen.append(i)
        found, sub = _search(covered | masks[i], full, by_vertex, masks, chosen, failed)
        nodes += sub
        if found:
            return True, nodes
        chosen.pop()
    failed[covered] = nodes
    return False, nodes


def find_heavy_factor(graph: WeightedCompleteGraph, params: FactorParams,
                      strict: bool = False) -> SolveCertificate:
    """Complete backtracking search for a factor of heavy r-blocks.

    The returned certificate either carries a factor whose every block meets
    the (strictness-dependent) bar, or proves none exists.
    """
    n, r = graph.n, params.r
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")
    blocks, nodes = _cover_search(n, *_heavy_family(graph, params, strict))
    factor = None
    if blocks is not None:
        factor = CliqueFactor.from_blocks(blocks)
        factor.validate(n, r)
    return SolveCertificate(params=params, strict=strict, factor=factor,
                            nodes_explored=nodes)


def heavy_cliques_containing(graph: WeightedCompleteGraph, v: int,
                             params: FactorParams, strict: bool = False) -> int:
    """Count of heavy r-sets through v (the quantity the counting bound floors)."""
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range for n={graph.n}")
    _, masks = _heavy_family(graph, params, strict)
    bit = 1 << v
    return sum(1 for m in masks if m & bit)


def lemma1_bound(delta, t, r: int, n: int) -> Fraction:
    """Counting floor ((delta - t) / (1 - t)) * C(n-1, r-1) on heavy r-sets per vertex.

    Valid whenever the graph's minimum weighted degree is at least delta * n;
    t = 1 would divide by zero and is rejected.
    """
    if r < 3:
        raise ValueError(f"the counting bound needs r >= 3, got r={r}")
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    dd = _exact(delta, "delta")
    tt = _exact(t, "t")
    if not 0 <= dd <= 1:
        raise ValueError(f"delta={dd} outside [0, 1]")
    if not 0 <= tt < 1:
        raise ValueError(f"need 0 <= t < 1, got t={tt}")
    return (dd - tt) / (1 - tt) * comb(n - 1, r - 1)


def daykin_haggkvist_check(graph: WeightedCompleteGraph, params: FactorParams,
                           strict: bool = False) -> bool:
    """Degree test sufficient for a perfect matching of the heavy r-sets.

    True when every vertex lies in at least (1 - 1/r)(C(n-1, r-1) - 1) heavy
    r-sets, counted in one pass over them.  Sufficiency holds when r divides
    n; the test itself is just the degree comparison.
    """
    n, r = graph.n, params.r
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    bound = Fraction(r - 1, r) * (comb(n - 1, r - 1) - 1)
    degree = [0] * n
    sets, _ = _heavy_family(graph, params, strict)
    for s in sets:
        for v in s:
            degree[v] += 1
    return all(d >= bound for d in degree)


@dataclass(frozen=True)
class HeavyCollection:
    """Disjoint heavy r-blocks plus the count of overweight edges inside them.

    The count is the secondary objective: among collections of maximum size,
    the maxima additionally maximize how many overweight edges (single edges
    already meeting the r-block bar) sit inside a block.
    """

    blocks: tuple[frozenset, ...]
    overweight_count: int

    @classmethod
    def from_blocks(cls, blocks, overweight_count: int) -> "HeavyCollection":
        canon = tuple(sorted((frozenset(b) for b in blocks), key=lambda b: sorted(b)))
        return cls(canon, overweight_count)

    @property
    def covered(self) -> frozenset:
        out = frozenset()
        for b in self.blocks:
            out |= b
        return out

    @property
    def size(self) -> int:
        return len(self.blocks)


def _block_overweight_count(graph: WeightedCompleteGraph, params: FactorParams,
                            block) -> int:
    return sum(1 for e in combinations(sorted(block), 2) if is_overweight_edge(graph, e, params))


def enumerate_maximum_heavy_collections(graph: WeightedCompleteGraph, params: FactorParams,
                                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[HeavyCollection]:
    """All collections maximizing (size, within-block overweight edges).

    Complete enumeration over subsets of disjoint heavy blocks; n above `cap`
    raises rather than starting an infeasible enumeration.  When no heavy
    block exists at all, the unique maximum is the empty collection.
    """
    n = graph.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}")
    sets, masks = _heavy_family(graph, params, strict=False)
    owc = [_block_overweight_count(graph, params, s) for s in sets]
    best_key, best = _maximum_collections(0, 0, (0, 0), (), masks, owc)
    out = [
        HeavyCollection.from_blocks([sets[i] for i in chosen], best_key[1])
        for chosen in best
    ]
    out.sort(key=lambda c: tuple(sorted(b) for b in c.blocks))
    return out


def _maximum_collections(start: int, covered: int, key: tuple[int, int], chosen: tuple,
                         masks: list[int], owc: list[int]) -> tuple[tuple[int, int], list[tuple]]:
    """The best (size, overweight count) key from here on, and every index tuple attaining it."""
    best_key, best = key, [chosen]
    for idx in range(start, len(masks)):
        if masks[idx] & covered:
            continue
        sub_key, sub = _maximum_collections(idx + 1, covered | masks[idx],
                                            (key[0] + 1, key[1] + owc[idx]),
                                            chosen + (idx,), masks, owc)
        if sub_key > best_key:
            best_key, best = sub_key, sub
        elif sub_key == best_key:
            best.extend(sub)
    return best_key, best


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    detail: str
    witness: tuple


@dataclass(frozen=True)
class StructureReport:
    """Result of the maximum-collection structure checks.

    `saturated_blocks` are the blocks with at least r-1 overweight edges into
    the designated uncovered r-set L; each has a unique `anchor` vertex that
    all its overweight edges meet.  `spare_vertices` are the non-anchor
    vertices of saturated blocks.  An empty violation list is the expected
    outcome on any true maximum.
    """

    violations: tuple
    saturated_blocks: tuple
    anchors: tuple  # (block, anchor) pairs aligned with saturated_blocks
    spare_vertices: frozenset

    @property
    def ok(self) -> bool:
        return not self.violations


def check_facts_at_maximum(graph: WeightedCompleteGraph, params: FactorParams,
                           collection: HeavyCollection, designated) -> StructureReport:
    """Verify the exchange-argument structure at a maximum heavy collection.

    `designated` is an r-set L of uncovered vertices.  Checks, with witnesses
    on failure:

    * no overweight edge joins two uncovered vertices;
    * in any block, all overweight edges into L share one block endpoint;
    * in a saturated block, every overweight edge inside the block or into L
      meets the anchor, and all r-1 anchor edges inside the block are
      themselves overweight;
    * a spare vertex sends at most one overweight edge into any unsaturated
      block;
    * no L-vertex forms a heavy r-set with r-1 spare vertices.
    """
    n, r = graph.n, params.r
    covered = set()
    for block in collection.blocks:
        if len(block) != r:
            raise ValueError(f"block {sorted(block)} does not have size {r}")
        if covered & block:
            raise ValueError(f"block {sorted(block)} overlaps another block")
        if not is_heavy(graph, block, params):
            raise ValueError(f"block {sorted(block)} is not heavy")
        covered |= block
    uncovered = set(range(n)) - covered
    if len(uncovered) < r:
        raise ValueError(
            f"need at least r={r} uncovered vertices, got {len(uncovered)}"
        )
    dset = sorted(designated)
    if len(dset) != r or len(set(dset)) != r:
        raise ValueError(f"designated set must contain r={r} distinct vertices")
    if not set(dset) <= uncovered:
        raise ValueError("designated set must consist of uncovered vertices")

    def overweight(a: int, b: int) -> bool:
        return is_overweight_edge(graph, (a, b), params)

    violations = []

    for a, b in combinations(sorted(uncovered), 2):
        if overweight(a, b):
            violations.append(StructureViolation(
                kind="uncovered-overweight-edge",
                detail=f"edge ({a}, {b}) of weight {format_rational(graph.weight(a, b))} "
                       "joins two uncovered vertices",
                witness=(a, b),
            ))

    saturated = []
    anchors = []
    spare = set()
    for block in collection.blocks:
        cross = [(u, w) for u in sorted(block) for w in dset if overweight(u, w)]
        if not cross:
            continue
        endpoints = {u for u, _ in cross}
        if len(endpoints) > 1:
            violations.append(StructureViolation(
                kind="attachment-not-unique",
                detail=f"block {sorted(block)} has overweight edges into the designated "
                       f"set from multiple vertices {sorted(endpoints)}",
                witness=(tuple(sorted(block)), tuple(sorted(endpoints))),
            ))
            continue
        anchor = endpoints.pop()
        if len(cross) >= r - 1:
            saturated.append(block)
            anchors.append((block, anchor))
            spare |= block - {anchor}
            for a, b in combinations(sorted(block), 2):
                if overweight(a, b) and anchor not in (a, b):
                    violations.append(StructureViolation(
                        kind="saturated-anchor-misses-overweight-edge",
                        detail=f"overweight edge ({a}, {b}) inside saturated block "
                               f"{sorted(block)} avoids the anchor {anchor}",
                        witness=(a, b, anchor),
                    ))
            for u in sorted(block - {anchor}):
                if not overweight(anchor, u):
                    violations.append(StructureViolation(
                        kind="saturated-anchor-edge-not-overweight",
                        detail=f"anchor edge ({anchor}, {u}) in saturated block "
                               f"{sorted(block)} weighs only "
                               f"{format_rational(graph.weight(anchor, u))}",
                        witness=(anchor, u),
                    ))

    saturated_set = {frozenset(b) for b in saturated}
    for y in sorted(spare):
        for block in collection.blocks:
            if frozenset(block) in saturated_set:
                continue
            hits = [u for u in sorted(block) if overweight(y, u)]
            if len(hits) >= 2:
                violations.append(StructureViolation(
                    kind="spare-double-overweight",
                    detail=f"spare vertex {y} sends {len(hits)} overweight edges into "
                           f"unsaturated block {sorted(block)}",
                    witness=(y, tuple(sorted(block)), tuple(hits)),
                ))

    spare_sorted = sorted(spare)
    for v in dset:
        for rest in combinations(spare_sorted, r - 1):
            if is_heavy(graph, (v,) + rest, params):
                violations.append(StructureViolation(
                    kind="heavy-block-on-spares",
                    detail=f"designated vertex {v} forms a heavy block with spare "
                           f"vertices {list(rest)}",
                    witness=(v,) + rest,
                ))

    return StructureReport(
        violations=tuple(violations),
        saturated_blocks=tuple(tuple(sorted(b)) for b in saturated),
        anchors=tuple((tuple(sorted(b)), a) for b, a in anchors),
        spare_vertices=frozenset(spare),
    )


def t_r_threshold(r: int) -> Fraction:
    """Level below which the counting floor already beats the matching bound.

    Closed form 4 / (C(r, 2) (r^3 - r^2 - 2r + 4)); defined for r >= 3.
    """
    if r < 3:
        raise ValueError(f"need r >= 3, got r={r}")
    return Fraction(4, comb(r, 2) * (r ** 3 - r ** 2 - 2 * r + 4))
