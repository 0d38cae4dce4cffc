"""Constructive routes to heavy factors: recursion, lifting, local search.

Three ways to build factors without exhaustive search:

* the pair base case: a perfect matching on the threshold subgraph at level t
  is exactly a heavy 2-block factor, and enough weighted minimum degree
  ((1+t)/2 of n) forces one;
* a product scheme: contract the blocks of a factor into a quotient weighting
  (pairwise averaged cross weights), factor the quotient, and lift; the lift
  identity is checked exactly on every run;
* a split scheme: randomly split off an n/r-vertex side B with degree targets
  on both sides, factor the other side into (r-1)-blocks recursively, then
  marry blocks to B-vertices through a bipartite graph of averaged weights
  thresholded at t. A clique that is heavy at level t for r-1 vertices plus a
  partner of averaged weight at least t is heavy at level t for r vertices,
  with no slack; the merge checks it.

Plus a seeded hill-climb over heavy collections (add a block, add a block
around an overweight edge, or swap one vertex to raise the within-block
overweight count), used to probe instances too big for exhaustive
enumeration.  All random choices flow from one seed.  A failed check raises
CertificationError, so the checks hold under `python -O` as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .core import (
    BudgetExceededError,
    CertificationError,
    CliqueFactor,
    FactorParams,
    WeightedCompleteGraph,
    _exact,
    is_overweight_edge,
)
from .matching import bipartite_maximum_matching, perfect_matching
from .solver import (
    DEFAULT_SOLVER_CAP,
    HeavyCollection,
    _block_overweight_count,
    _heavy_family,
    find_heavy_factor,
)

# scheme2 budgets: random splits per `scheme2_partition` call, split retries per recursion level
SPLIT_ATTEMPTS = 1000
DEFAULT_RETRY_BUDGET = 16


def _require(ok: bool, what: str) -> None:
    """Raise CertificationError unless `ok` (a check that `python -O` keeps)."""
    if not ok:
        raise CertificationError(what)


def matching_base_case(graph: WeightedCompleteGraph, t) -> CliqueFactor | None:
    """Heavy 2-block factor via a perfect matching on the level-t threshold graph."""
    if graph.n % 2 != 0:
        raise ValueError(f"need an even vertex count, got n={graph.n}")
    tt = _exact(t, "t")
    threshold_graph = graph.threshold_subgraph(tt)
    pairs = perfect_matching(graph.n, threshold_graph.edges)
    if pairs is None:
        return None
    _require(all(graph.weight(a, b) >= tt for a, b in pairs),
             "matching base case paired an edge below level t")
    return CliqueFactor.from_blocks(pairs)


@dataclass(frozen=True)
class QuotientGraph:
    """Averaged contraction of a base factor: one vertex per block.

    Quotient weight between blocks is the average of the p*p cross weights,
    so it lands in [0, 1] again.  Block order is the canonical factor order
    (sorted by smallest member), which fixes the vertex numbering.
    """

    base: CliqueFactor
    graph: WeightedCompleteGraph


def scheme1_quotient(graph: WeightedCompleteGraph, base: CliqueFactor) -> QuotientGraph:
    """Contract the blocks of `base` into an averaged quotient weighting."""
    if not base.blocks:
        raise ValueError("base factor has no blocks")
    p = len(base.blocks[0])
    if p < 2:
        raise ValueError("blocks must have at least two vertices")
    base.validate(graph.n, p)
    blocks = base.blocks
    q_n = len(blocks)
    weights = {}
    for a in range(q_n):
        for b in range(a + 1, q_n):
            cross = sum(graph.rows[u][v] for u in blocks[a] for v in blocks[b])
            weights[(a, b)] = Fraction(cross, p * p * graph.den)
    quotient = WeightedCompleteGraph(q_n, weights)
    if q_n >= 2:
        # averaged contraction can lose at most (p-1)/p of the degree
        floor = (graph.min_weighted_degree() - (p - 1)) / p
        _require(quotient.min_weighted_degree() >= floor,
                 "quotient min degree fell below (min degree - (p - 1)) / p")
    return QuotientGraph(base=base, graph=quotient)


def scheme1_lift(graph: WeightedCompleteGraph, base: CliqueFactor,
                 quotient_factor: CliqueFactor) -> CliqueFactor:
    """Lift a factor of the quotient to (p*q)-blocks of the original graph.

    Each lifted block is the union of the base blocks named by one quotient
    block.  Two exact statements are checked per block: the weight identity
    (internal base weights plus p^2 times the quotient pair weights) and the
    lower bound t_q C(q,2) p^2 + t_p C(p,2) q, where t_p and t_q are the
    minimum average block weights of the base and quotient factors.
    """
    contraction = scheme1_quotient(graph, base)
    blocks = base.blocks
    p = len(blocks[0])
    quotient = contraction.graph
    if not quotient_factor.blocks:
        raise ValueError("quotient factor has no blocks")
    q = len(quotient_factor.blocks[0])
    quotient_factor.validate(quotient.n, q)

    t_p = min(graph.clique_weight(b) for b in blocks) / comb(p, 2)
    t_q = min(quotient.clique_weight(b) for b in quotient_factor.blocks) / comb(q, 2)

    lifted = []
    for qblock in quotient_factor.blocks:
        members = frozenset().union(*(blocks[i] for i in qblock))
        total = graph.clique_weight(members)
        internal = sum((graph.clique_weight(blocks[i]) for i in qblock), Fraction(0))
        across = quotient.clique_weight(qblock)
        _require(total == internal + p * p * across,
                 "lifted block weight differs from the lift identity")
        _require(total >= t_q * comb(q, 2) * p * p + t_p * comb(p, 2) * q,
                 "lifted block weight fell below the lift lower bound")
        lifted.append(members)
    factor = CliqueFactor.from_blocks(lifted)
    factor.validate(graph.n, p * q)
    return factor


@dataclass(frozen=True)
class BipartiteAverageGraph:
    """Cliques on the left, single vertices on the right, averaged weights.

    weights[i][j] is the average weight from clique i to vertex j, so a
    matched pair at average >= t merges into a block heavy at level t one
    size up.
    """

    cliques: tuple
    vertices: tuple
    weights: tuple  # weights[i][j]


def build_bipartite_average(graph: WeightedCompleteGraph, cliques,
                            vertices) -> BipartiteAverageGraph:
    cliques = tuple(frozenset(c) for c in cliques)
    vertices = tuple(sorted(vertices))
    if not cliques:
        raise ValueError("need at least one clique")
    p = len(cliques[0])
    taken = set()
    for c in cliques:
        if len(c) != p:
            raise ValueError("cliques must share one size")
        if taken & c:
            raise ValueError("cliques must be pairwise disjoint")
        taken |= c
    if taken & set(vertices):
        raise ValueError("right-side vertices must avoid the cliques")
    averages = tuple(
        tuple(Fraction(sum(graph.rows[u][v] for u in c), p * graph.den) for v in vertices)
        for c in cliques
    )
    return BipartiteAverageGraph(cliques=cliques, vertices=vertices, weights=averages)


def bipartite_threshold_matching(avg: BipartiteAverageGraph, t) -> tuple | None:
    """Perfect matching keeping only averaged weights >= t; None when impossible.

    Returns match[i] = index into avg.vertices for clique i.
    """
    k = len(avg.cliques)
    if k != len(avg.vertices):
        raise ValueError(
            f"need equal sides, got {k} cliques and {len(avg.vertices)} vertices"
        )
    tt = _exact(t, "t")
    adjacency = [
        [j for j in range(k) if avg.weights[i][j] >= tt] for i in range(k)
    ]
    match = bipartite_maximum_matching(k, k, adjacency)
    if any(m == -1 for m in match):
        return None
    return tuple(match)


def scheme2_partition(graph: WeightedCompleteGraph, r: int, seed: int,
                      target_a, target_b) -> tuple[tuple, tuple]:
    """Random split into |A| = (r-1)n/r and |B| = n/r meeting degree targets.

    Every vertex (on either side) must send weighted degree at least target_a
    into A and target_b into B.  Resampling past SPLIT_ATTEMPTS raises.
    """
    n = graph.n
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")
    need_a = graph.least_numerator(target_a)
    need_b = graph.least_numerator(target_b)
    rows, degrees = graph.rows, graph.degrees
    size_a = (r - 1) * n // r
    rng = random.Random(seed)
    for _ in range(SPLIT_ATTEMPTS):
        a_side = sorted(rng.sample(range(n), size_a))
        b_side = sorted(set(range(n)).difference(a_side))
        for v in range(n):
            row = rows[v]
            into_b = sum([row[u] for u in b_side])
            # A and B partition the other vertices, so the rest of v's degree goes into A
            if into_b < need_b or degrees[v] - into_b < need_a:
                break
        else:
            return tuple(a_side), tuple(b_side)
    raise BudgetExceededError(
        f"no split met the degree targets after {SPLIT_ATTEMPTS} attempts"
    )


def scheme2_factor(graph: WeightedCompleteGraph, params: FactorParams, seed: int,
                   epsilon=Fraction(1, 10), *,
                   retries: int = DEFAULT_RETRY_BUDGET) -> CliqueFactor | None:
    """Randomized recursive factor search; None after the retry budget.

    Splits off B, factors A at size r-1 (recursively, with an exact-search
    fallback on sides of at most DEFAULT_SOLVER_CAP vertices), then matches
    blocks to B-vertices at averaged weight >= t.  A returned factor is
    always verified heavy block by block.
    A None is only a failure of this randomized strategy, never a proof that
    no factor exists.  A negative retry budget or epsilon is rejected at any r.
    """
    n, r, t = graph.n, params.r, params.t
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")
    if retries < 0:
        raise ValueError(f"retries must be nonnegative, got {retries}")
    eps = _exact(epsilon, "epsilon")
    if eps < 0:
        raise ValueError(f"epsilon must be nonnegative, got {eps}")
    if r == 2:
        return matching_base_case(graph, t)
    delta_prime = (1 + t) / 2
    target_a = (delta_prime + eps / 2) * Fraction(r - 1, r) * n
    target_b = delta_prime * Fraction(n, r)
    rng = random.Random(seed)
    for _ in range(retries):
        split_seed = rng.getrandbits(32)
        try:
            a_side, b_side = scheme2_partition(graph, r, split_seed, target_a, target_b)
        except BudgetExceededError:
            continue
        sub_graph, vmap = graph.induced(a_side)
        sub_params = FactorParams(r - 1, t)
        sub = scheme2_factor(sub_graph, sub_params, rng.getrandbits(32), eps, retries=retries)
        if sub is None and sub_graph.n <= DEFAULT_SOLVER_CAP:
            sub = find_heavy_factor(sub_graph, sub_params, strict=False).factor
        if sub is None:
            continue
        cliques = [frozenset(vmap[v] for v in block) for block in sub.blocks]
        _require(all(sub_params.admits(graph.clique_weight(c)) for c in cliques),
                 f"scheme2 sub-factor has a block below the bar at r={r - 1}")
        avg = build_bipartite_average(graph, cliques, b_side)
        match = bipartite_threshold_matching(avg, t)
        if match is None:
            continue
        blocks = [
            avg.cliques[i] | {avg.vertices[match[i]]} for i in range(len(cliques))
        ]
        # heavy at r-1 plus an averaged-t partner is heavy at r, with no slack
        _require(all(params.admits(graph.clique_weight(b)) for b in blocks),
                 f"scheme2 merge made a block below the bar at r={r}")
        factor = CliqueFactor.from_blocks(blocks)
        factor.validate(n, r)
        return factor
    return None


def local_search_heavy_collection(graph: WeightedCompleteGraph, params: FactorParams,
                                  seed: int, restarts: int = 4) -> HeavyCollection:
    """Seeded hill-climb maximizing (size, within-block overweight edges).

    Moves, tried in order until none applies: add the first fully uncovered
    heavy block; add a block built around the first uncovered overweight edge
    padded with the smallest uncovered vertices; swap one block vertex for an
    uncovered vertex when the block stays heavy and its internal overweight
    count strictly rises.  Both objectives are bounded and every move raises
    the pair lexicographically, so each climb terminates.  Restart 0 climbs
    from the empty collection; later restarts climb from a greedy pass over a
    shuffled block order, and the best (ties to earliest) wins.
    """
    n, r = graph.n, params.r
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    sets, _ = _heavy_family(graph, params, strict=False)

    def block_owc(block) -> int:
        return _block_overweight_count(graph, params, block)

    def climb(blocks: list) -> list:
        while True:
            covered = set()
            for b in blocks:
                covered |= b
            uncovered = [v for v in range(n) if v not in covered]
            uncset = set(uncovered)
            added = False
            for s in sets:
                if all(v in uncset for v in s):
                    blocks.append(frozenset(s))
                    added = True
                    break
            if added:
                continue
            if len(uncovered) >= r:
                edge = next(
                    (e for e in combinations(uncovered, 2)
                     if is_overweight_edge(graph, e, params)),
                    None,
                )
                if edge is not None:
                    fill = [v for v in uncovered if v not in edge][: r - 2]
                    block = frozenset(edge) | frozenset(fill)
                    _require(params.admits(graph.clique_weight(block)),
                             "padded overweight-edge block fell below the bar")
                    blocks.append(block)
                    continue
            swapped = False
            order = sorted(range(len(blocks)), key=lambda i: sorted(blocks[i]))
            for bi in order:
                old = blocks[bi]
                old_count = block_owc(old)
                for u in sorted(old):
                    for w in uncovered:
                        candidate = (old - {u}) | {w}
                        if not params.admits(graph.clique_weight(candidate)):
                            continue
                        if block_owc(candidate) > old_count:
                            blocks[bi] = candidate
                            swapped = True
                            break
                    if swapped:
                        break
                if swapped:
                    break
            if not swapped:
                return blocks

    def objective(blocks) -> tuple:
        return (len(blocks), sum(block_owc(b) for b in blocks))

    rng = random.Random(seed)
    best_blocks: list = []
    best_key = (-1, -1)
    for restart in range(restarts):
        if restart == 0:
            start: list = []
        else:
            shuffled = list(sets)
            rng.shuffle(shuffled)
            start = []
            taken: set = set()
            for s in shuffled:
                if not taken & set(s):
                    start.append(frozenset(s))
                    taken |= set(s)
        blocks = climb(start)
        key = objective(blocks)
        if key > best_key:
            best_key = key
            best_blocks = blocks
    return HeavyCollection.from_blocks(best_blocks, best_key[1])
