"""Constructive routes to heavy factors: recursion and lifting.

Three ways to build factors without exhaustive search:

* the pair base case: a perfect matching on the threshold graph at level t
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
  with no slack; the merge checks it.  When there are at most SPLIT_ATTEMPTS
  B sides, all of them are checked before any draw, so a split that does
  not exist is reported at once instead of after the whole draw budget.

All random choices flow from one seed.  A failed check raises
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
    _check_block_shape,
    _exact,
)
from .matching import bipartite_maximum_matching, perfect_matching
from .solver import DEFAULT_SOLVER_CAP, find_heavy_factor

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
    masks = graph.threshold_masks(tt)
    pairs = perfect_matching(graph.n, [(i, j) for i, j in graph.pairs() if masks[i] >> j & 1])
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
    rows = [[0] * q_n for _ in range(q_n)]
    for a, b in combinations(range(q_n), 2):
        rows[a][b] = rows[b][a] = sum(graph.rows[u][v] for u in blocks[a] for v in blocks[b])
    quotient = WeightedCompleteGraph._from_rows(q_n, rows, p * p * graph.den)
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


class _NoSplit(BudgetExceededError):
    """Every B side was checked and none meets the degree targets."""


def _meets_targets(rows, degrees, b_side, need_a: int, need_b: int) -> bool:
    """Every vertex sends at least need_b into `b_side` and need_a into the rest (numerators)."""
    for row, degree in zip(rows, degrees):
        into_b = sum([row[u] for u in b_side])
        # A and B partition the other vertices, so the rest of v's degree goes into A
        if into_b < need_b or degree - into_b < need_a:
            return False
    return True


def scheme2_partition(graph: WeightedCompleteGraph, r: int, seed: int,
                      target_a, target_b) -> tuple[tuple, tuple]:
    """Random split into |A| = (r-1)n/r and |B| = n/r meeting degree targets.

    Every vertex (on either side) must send weighted degree at least target_a
    into A and target_b into B.  When there are at most SPLIT_ATTEMPTS B
    sides, every one is checked first, and if none meets the targets the
    call raises at once; a returned split is still the first random draw
    that meets them.  Resampling past SPLIT_ATTEMPTS raises.
    """
    n = graph.n
    _check_block_shape(r, n)
    need_a = graph.least_numerator(target_a)
    need_b = graph.least_numerator(target_b)
    rows, degrees = graph.rows, graph.degrees
    sides = comb(n, n // r)
    if sides <= SPLIT_ATTEMPTS and not any(
            _meets_targets(rows, degrees, b_side, need_a, need_b)
            for b_side in combinations(range(n), n // r)):
        raise _NoSplit(f"none of the {sides} B sides meets the degree targets")
    size_a = (r - 1) * n // r
    rng = random.Random(seed)
    for _ in range(SPLIT_ATTEMPTS):
        a_side = sorted(rng.sample(range(n), size_a))
        b_side = sorted(set(range(n)).difference(a_side))
        if _meets_targets(rows, degrees, b_side, need_a, need_b):
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
    no factor exists.  Every retry splits at the same targets, so once the
    partition proves that no split exists the remaining retries are skipped.
    A negative retry budget or epsilon is rejected at any r.
    """
    n, r, t = graph.n, params.r, params.t
    _check_block_shape(r, n)
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
        except _NoSplit:
            # no split exists for this graph and these targets, so no retry can find one
            return None
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
