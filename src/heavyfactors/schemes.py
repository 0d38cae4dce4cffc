"""Constructive routes to heavy factors: recursion and lifting.

Three ways to build factors without exhaustive search:

* the pair base case: a perfect matching on the threshold graph at level t
  is exactly a heavy 2-block factor, and enough weighted minimum degree
  ((1+t)/2 of n) forces one; it is exact, so no search runs after it;
* a product scheme: contract the blocks of a factor into a quotient weighting
  (pairwise averaged cross weights), factor the quotient, and lift; the lift
  identity is checked exactly on every run;
* a split scheme: randomly split off an n/r-vertex side B with degree targets
  on both sides, factor the other side into (r-1)-blocks recursively (from
  r - 1 >= 3, by the exact search on a side of at most DEFAULT_SOLVER_CAP
  vertices that the recursion left unfactored), then marry blocks to
  B-vertices through a bipartite graph of averaged weights thresholded at
  t. A clique that is heavy at level t for r-1 vertices plus a
  partner of averaged weight at least t is heavy at level t for r vertices,
  with no slack; the merge checks it.  Each draw is the split that
  `Random.sample` would draw, made with the same `getrandbits` calls.  When
  there are at most SPLIT_ATTEMPTS B sides, the feasible ones are collected
  as bitmasks before any draw: a split that does not exist is reported at
  once instead of after the whole draw budget, and each draw is one lookup.

All random choices flow from one seed.  Every check goes through
`core._require`, which raises CertificationError, so the checks hold under
`python -O` as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Iterator

from .core import (
    BudgetExceededError,
    CliqueFactor,
    FactorParams,
    WeightedCompleteGraph,
    _check_block_shape,
    _disjoint_blocks,
    _exact,
    _integer,
    _least_numerator,
    _nonnegative,
    _require,
    _unit,
    _vertex_set,
    is_heavy,
)
from .matching import bipartite_maximum_matching, perfect_matching
from .solver import DEFAULT_SOLVER_CAP, _vertices, find_heavy_factor

# scheme2 budgets: random splits per `scheme2_partition` call, split retries per recursion level
SPLIT_ATTEMPTS = 1000
DEFAULT_RETRY_BUDGET = 16


def matching_base_case(graph: WeightedCompleteGraph, t) -> CliqueFactor | None:
    """Heavy 2-block factor via a perfect matching on the level-t threshold graph.

    t is read as `FactorParams` reads it, and an odd n is refused by
    `perfect_matching`.
    """
    n = graph.n
    params = FactorParams(2, t)
    masks = graph.threshold_masks(params.t)
    pairs = perfect_matching(n, [(i, j) for i, mask in enumerate(masks)
                                 for j in range(i + 1, n) if mask >> j & 1])
    if pairs is None:
        return None
    _require(all(is_heavy(graph, pair, params) for pair in pairs),
             "matching base case paired an edge below level t")
    return CliqueFactor.from_blocks(pairs)


def scheme1_quotient(graph: WeightedCompleteGraph, base: CliqueFactor) -> WeightedCompleteGraph:
    """Contract the blocks of `base` into an averaged quotient weighting: one vertex per block.

    Quotient weight between blocks is the average of the p*p cross weights,
    so it lands in [0, 1] again.  Block order is the canonical factor order
    (sorted by smallest member), which fixes the vertex numbering.
    """
    if not base.blocks:
        raise ValueError("base factor has no blocks")
    p = len(base.blocks[0])
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
    return quotient


def scheme1_lift(graph: WeightedCompleteGraph, base: CliqueFactor,
                 quotient_factor: CliqueFactor) -> CliqueFactor:
    """Lift a factor of the quotient to (p*q)-blocks of the original graph.

    Each lifted block is the union of the base blocks named by one quotient
    block.  Two exact statements are checked per block: the weight identity
    (internal base weights plus p^2 times the quotient pair weights) and the
    lower bound t_q C(q,2) p^2 + t_p C(p,2) q, where t_p and t_q are the
    minimum average block weights of the base and quotient factors.
    """
    quotient = scheme1_quotient(graph, base)
    blocks = base.blocks
    p = len(blocks[0])
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

    Fraction(numerators[i][j], den) is the average weight from clique i to
    vertex j, so a matched pair at average >= t merges into a block heavy at
    level t one size up: numerators[i][j] is the integer sum of the clique's
    rows at vertex j, and den is p times the graph's denominator.
    """

    cliques: tuple
    vertices: tuple
    numerators: tuple  # numerators[i][j]
    den: int


def build_bipartite_average(graph: WeightedCompleteGraph, cliques,
                            vertices) -> BipartiteAverageGraph:
    cliques = tuple(frozenset(c) for c in cliques)
    vertices = tuple(sorted(vertices))
    if not cliques:
        raise ValueError("need at least one clique")
    p = len(cliques[0])
    if p < 1:
        raise ValueError("cliques must have at least one vertex")
    _vertex_set(chain(_disjoint_blocks(cliques, p), vertices), graph.n, "cliques and right side")
    rows = graph.rows
    numerators = []
    for c in cliques:
        column = list(map(sum, zip(*(rows[u] for u in c))))
        numerators.append(tuple(map(column.__getitem__, vertices)))
    return BipartiteAverageGraph(cliques=cliques, vertices=vertices,
                                 numerators=tuple(numerators), den=p * graph.den)


def bipartite_threshold_matching(avg: BipartiteAverageGraph, t) -> tuple | None:
    """Perfect matching keeping only averaged weights >= t; None when impossible.

    Returns match[i] = index into avg.vertices for clique i.
    """
    k = len(avg.cliques)
    if k != len(avg.vertices):
        raise ValueError(
            f"need equal sides, got {k} cliques and {len(avg.vertices)} vertices"
        )
    cut = _least_numerator(_unit(t, "level t"), avg.den)
    adjacency = [[j for j, x in enumerate(row) if x >= cut] for row in avg.numerators]
    match = bipartite_maximum_matching(k, k, adjacency)
    if any(m == -1 for m in match):
        return None
    return tuple(match)


class _NoSplit(BudgetExceededError):
    """Every B side was checked and none meets the degree targets."""


def _meets_targets(rows, degrees, b_side, need_a: int, need_b: int) -> bool:
    """Every vertex sends at least need_b into `b_side` and need_a into the rest (numerators).

    The degree-target predicate, one side at a time: draws at large n call
    it, and `_feasible_b_sides` decides it for every side of a small n at once.
    A draw does not use the packed fields, because packing all n columns
    costs more than this loop over the one side that is usually accepted.
    """
    for row, degree in zip(rows, degrees):
        into_b = sum([row[u] for u in b_side])
        # A and B partition the other vertices, so the rest of v's degree goes into A
        if into_b < need_b or degree - into_b < need_a:
            return False
    return True


def _feasible_b_sides(rows, degrees, size_b: int, need_a: int, need_b: int) -> set[int]:
    """Bitmasks of the `size_b`-vertex B sides that `_meets_targets` accepts.

    Field v of one int (`width` bits from bit width * v) holds a sum for
    vertex v.  Vertex u's packed column has rows[u][v] in field v, so the
    sum of B's columns holds every vertex's weight into B, and one side is
    decided by two additions: with H = 2^(width - 1) above every degree, the
    top bit of field v in (sum + Σ (H - need_b)) and in (Σ (H + degree_v -
    need_a) - sum) is set exactly when v meets its target on that side.
    No field carries into the next, as each stays in [0, 2H).
    """
    if any(need_b > d or need_a > d for d in degrees):
        return set()  # v's weight into either side lies between 0 and its degree
    need_a, need_b = max(need_a, 0), max(need_b, 0)
    width = max(degrees).bit_length() + 1
    half = 1 << (width - 1)
    columns = [sum(x << (width * v) for v, x in enumerate(row)) for row in rows]
    low = high = tops = 0
    for v, degree in enumerate(degrees):
        low |= (half - need_b) << (width * v)
        high |= (half + degree - need_a) << (width * v)
        tops |= half << (width * v)
    bits = [1 << u for u in range(len(rows))]
    return {sum(side) for side, into_b in zip(combinations(bits, size_b),
                                              map(sum, combinations(columns, size_b)))
            if (into_b + low) & (high - into_b) & tops == tops}


def _a_side_masks(rng: random.Random, n: int, size_a: int) -> Iterator[int]:
    """The A side of each successive `rng.sample(range(n), size_a)`, as a bitmask.

    Draws as `Random.sample` does in its pool branch, the one it takes
    because size_a >= n/2 keeps n within its set size: for m = n, n - 1, ...
    one `getrandbits(m.bit_length())` per try until an index j < m comes,
    then pool[j] is taken and the pool's last live item moves into its
    place.  The pool holds 1 << v for v, and the rng's state after each
    yield is its state after that `sample` call.
    """
    draw = rng.getrandbits
    tries = [(m, m.bit_length()) for m in range(n, n - size_a, -1)]
    bits = [1 << v for v in range(n)]
    while True:
        pool = bits.copy()
        a_mask = 0
        for m, width in tries:
            j = draw(width)
            while j >= m:
                j = draw(width)
            a_mask |= pool[j]
            pool[j] = pool[m - 1]
        yield a_mask


def scheme2_partition(graph: WeightedCompleteGraph, r: int, seed: int,
                      target_a, target_b) -> tuple[tuple, tuple]:
    """Random split into |A| = (r-1)n/r and |B| = n/r meeting degree targets.

    Every vertex (on either side) must send weighted degree at least target_a
    into A and target_b into B.  The split is the first of the draws
    `Random(seed).sample(range(n), |A|)` makes that meets the targets.  When
    there are at most SPLIT_ATTEMPTS B sides, the feasible ones are
    collected first, and if there are none the call raises at once.
    Resampling past SPLIT_ATTEMPTS raises.
    """
    n = graph.n
    _check_block_shape(r, n)
    _integer(seed, "seed")
    need_a = _least_numerator(target_a, graph.den)
    need_b = _least_numerator(target_b, graph.den)
    rows, degrees = graph.rows, graph.degrees
    size_b = n // r
    sides = comb(n, size_b)
    if sides <= SPLIT_ATTEMPTS:
        feasible = _feasible_b_sides(rows, degrees, size_b, need_a, need_b)
        if not feasible:
            raise _NoSplit(f"none of the {sides} B sides meets the degree targets")
        accept = feasible.__contains__
    else:
        def accept(b_mask: int) -> bool:
            return _meets_targets(rows, degrees, _vertices(b_mask), need_a, need_b)
    everyone = (1 << n) - 1
    draws = _a_side_masks(random.Random(seed), n, n - size_b)
    for _, a_mask in zip(range(SPLIT_ATTEMPTS), draws):
        if accept(everyone ^ a_mask):
            return _vertices(a_mask), _vertices(everyone ^ a_mask)
    raise BudgetExceededError(
        f"no split met the degree targets after {SPLIT_ATTEMPTS} attempts"
    )


def scheme2_factor(graph: WeightedCompleteGraph, params: FactorParams, seed: int,
                   epsilon=Fraction(1, 10), *,
                   retries: int = DEFAULT_RETRY_BUDGET) -> CliqueFactor | None:
    """Randomized recursive factor search; None after the retry budget.

    Splits off B, factors A at size r-1 (recursively, with an exact-search
    fallback on sides of at most DEFAULT_SOLVER_CAP vertices when r - 1 >= 3;
    at r - 1 = 2 the exact pair base case has decided), then matches blocks
    to B-vertices at averaged weight >= t.  A returned factor is
    always verified heavy block by block.
    A None is only a failure of this randomized strategy, never a proof that
    no factor exists.  Every retry splits at the same targets, so once the
    partition proves that no split exists the remaining retries are skipped.
    A seed or retry budget that is not an integer, a negative retry budget
    and a negative epsilon are rejected at any r.
    """
    n, r, t = graph.n, params.r, params.t
    _check_block_shape(r, n)
    _integer(seed, "seed")
    _nonnegative(_integer(retries, "retries"), "retries")
    eps = _nonnegative(_exact(epsilon, "epsilon"), "epsilon")
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
        # the pair base case is exact, so only a side of (r-1)-blocks with r - 1 >= 3 falls back
        if sub is None and r > 3 and sub_graph.n <= DEFAULT_SOLVER_CAP:
            sub = find_heavy_factor(sub_graph, sub_params, strict=False).factor
        if sub is None:
            continue
        cliques = [frozenset(vmap[v] for v in block) for block in sub.blocks]
        _require(all(is_heavy(graph, c, sub_params) for c in cliques),
                 f"scheme2 sub-factor has a block below the bar at r={r - 1}")
        avg = build_bipartite_average(graph, cliques, b_side)
        match = bipartite_threshold_matching(avg, t)
        if match is None:
            continue
        blocks = [
            avg.cliques[i] | {avg.vertices[match[i]]} for i in range(len(cliques))
        ]
        # heavy at r-1 plus an averaged-t partner is heavy at r, with no slack
        _require(all(is_heavy(graph, b, params) for b in blocks),
                 f"scheme2 merge made a block below the bar at r={r}")
        factor = CliqueFactor.from_blocks(blocks)
        factor.validate(n, r)
        return factor
    return None
