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
witness, never an expected outcome.  Overweight edges are read off the
graph's threshold masks at the bar t * C(r, 2), a mask per vertex of its
overweight neighbours; the structure checks keep the Fraction predicates, so
they stay independent of the enumerator whose output they check.

Beside the exhaustive enumerator sits a seeded hill-climb over heavy
collections (add a block, or swap one vertex to raise the within-block
overweight count), used to probe instances too big for exhaustive
enumeration.  It climbs on the same masks; all random choices flow from one
seed.

Every r-set of range(n) is numbered once per (n, r), by its place in
lexicographic order, and the index is cached: `masks[i]` is the bitmask of
set i, and bit i of `through[v]` is set when v lies in set i.  It is built
by Pascal's rule, the k-sets of range(lo, n) being lo joined to each
(k-1)-set of range(lo+1, n) followed by the k-sets of range(lo+1, n), so
each vertex's bitmap is two bitmaps of the level above, one shifted past the
other.  A graph only marks which of those sets are heavy, in integers: its
integer weight rows are summed against the bar t * C(r, 2) put over its
denominator, and the r-sets are walked in the same order, each prefix
carrying its integer weight and a gain row (the weight from the prefix to
every later vertex).  The sets that extend a prefix are one interval of the
index, and the lightest and heaviest gains and edges left bound all their
weights.  The walk builds `heavy`, the bitmap of the heavy sets over the
index: when the bar lies outside a prefix's bounds, its whole interval is
one run of set bits or none, shifted to its offset and ORed in, and
otherwise the walk descends, each set of a pair-level prefix then costing
one addition, one comparison and, when heavy, one OR.  The search and the
per-vertex counts read the bitmaps; the collection enumerator and the
hill-climb read the masks of the set bits of `heavy`.  Sorted vertex tuples
are decoded only where a block leaves the solver.  Fractions stay at the
edges: input graphs, certificates and block weights.

The backtracking search carries `alive`, the bitmap of the heavy sets
disjoint from the covered vertices; it starts as `heavy`.  The live
candidates of an uncovered vertex v are `through[v] & alive`, counted by one
popcount.  The search anchors the uncovered vertex with the fewest live
candidates (ties to the smallest index) and tries them lowest number first,
which is lexicographic order.  The scan that picks the anchor doubles as the
fail-fast prune: any uncovered vertex with no live candidate kills the node
immediately.  A child's bitmap is `alive` without the sets through any
vertex of the chosen block.  Counts of explored nodes are recorded so
certificates can say how hard an instance was.

The search from a node reads nothing but the set of covered vertices, so a
covered set that failed once fails again.  Failed sets are cached, and each
child is looked up before the search descends into it: a hit adds the node
count recorded for that subtree and moves on to the next candidate.  The
reported count is therefore the size of the uncached search tree, the same
number the plain search would have counted.

The cache is keyed by runs of adjacent twins.  u and v are twins when
w(u, x) = w(v, x) for every other x; a run is a maximal block of
consecutive vertices, each a twin of the one before it.  Every vertex of a
run is then a twin of every other, and the edges inside a run all weigh the
same.
The key of a covered set is the number of covered vertices in each run,
the count of the run starting at vertex p held in bits p onwards; a run of
z vertices needs at most z bits, so no count carries into the next run.
Each r-set's key step is the sum of its vertices' units, 1 << (start of the
vertex's run), and a child's key is its parent's plus the step.  Two
covered sets with the same key leave the same number of uncovered vertices
in each run, and `_search` explains why their subtrees then fail alike with
the same node count.  On a twin-free graph every run is one vertex, the
steps are the masks themselves and the key is the covered mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

from .core import (
    CapExceededError,
    CliqueFactor,
    FactorParams,
    WeightedCompleteGraph,
    _check_block_shape,
    _disjoint_blocks,
    _integer,
    _least_numerator,
    _unit,
    _vertex_set,
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
    included): a failed state the search meets again, or a twin swap of one,
    adds the node count of its recorded subtree instead of exploring it.  Re-running the solver on
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


def enumerate_all_factors(n: int, r: int) -> Iterator[tuple]:
    """Stream every partition of {0..n-1} into blocks of size r, exactly once.

    Canonical form: each block is a sorted tuple led by the smallest vertex
    not in any earlier block.  This is the independent oracle the backtracking
    search is tested against, so it deliberately shares no code with it.
    The count for n, r is (n)! / ((r!)^(n/r) (n/r)!), so `_enumeration_cap`
    raises for n above DEFAULT_SOLVER_CAP instead of silently enumerating forever.
    """
    _check_block_shape(r, n)
    _enumeration_cap(n, DEFAULT_SOLVER_CAP)
    return _partitions(tuple(range(n)), r)


def _enumeration_cap(n: int, cap: int) -> None:
    """Raise CapExceededError for n above `cap`: the one cap check of both enumerations."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}")


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


@lru_cache(maxsize=16)
def _r_sets(n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every r-set of range(n) as a bitmask in lexicographic order, and each vertex's bitmap over them.

    Bit i of `through[v]` is set when v lies in `masks[i]`.  Built by
    Pascal's rule from the top vertex down: the k-sets of range(lo, n) are
    lo joined to each (k-1)-set of range(lo+1, n), followed by the k-sets of
    range(lo+1, n), so lo's bitmap is one run of low bits and every other
    vertex's is its two bitmaps from the level above, the second shifted
    past the first.  Only the levels the r-sets of range(n) need are made.
    """
    level = [([0], [0] * n)] + [([], [0] * n)] * r
    for lo in range(n - 1, -1, -1):
        bit = 1 << lo
        for k in range(min(r, n - lo), max(r - lo, 1) - 1, -1):
            (heads, head_through), (tails, tail_through) = level[k - 1], level[k]
            shift = len(heads)
            through = [h | t << shift for h, t in zip(head_through, tail_through)]
            through[lo] = (1 << shift) - 1
            level[k] = ([bit | m for m in heads] + tails, through)
    masks, through = level[r]
    return tuple(masks), tuple(through)


def _heavy_family(graph: WeightedCompleteGraph, params: FactorParams,
                  strict: bool) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The fixed index of the graph's r-sets, and the bitmap of its heavy ones over it.

    `masks` and `through` are `_r_sets(n, r)`, built once by Pascal's rule
    and shared by every graph of that size, so no mask or per-vertex bitmap
    is made per graph.  Bit i of `heavy` is set when `masks[i]` is heavy.
    Sums of the graph's integer rows meet `_least_numerator`'s cut of the
    bar over its denominator, so each comparison is between integers and
    decides exactly what `is_heavy(graph, s, params, strict)` decides.
    `heavy` is the root bitmap of `_prefix_bits`, whose walk ORs in a whole
    index interval at once when its weight bounds lie on one side of the bar.
    `lightest[s]` and `heaviest[s]` are the extreme edge weights inside
    range(s, n), built once from the top vertex down.
    """
    n, r = graph.n, params.r
    masks, through = _r_sets(n, r)
    need = _least_numerator(params.heavy_threshold, graph.den, strict)
    if n < r:
        return masks, through, 0
    rows = graph.rows
    lightest = [0] * (n - 1)
    heaviest = [0] * (n - 1)
    low = high = rows[n - 2][n - 1]
    for s in range(n - 2, -1, -1):
        tail = rows[s][s + 1:]
        low, high = min(low, *tail), max(high, *tail)
        lightest[s], heaviest[s] = low, high
    return masks, through, _prefix_bits(rows, need, lightest, heaviest, 0, r, 0, [0] * n)


def _prefix_bits(rows, need: int, lightest: list[int], heaviest: list[int],
                 start: int, k: int, total: int, gain: list[int]) -> int:
    """The bitmap of the heavy sets made of a prefix and k more vertices of range(start, n).

    The prefix weighs `total`, and `gain[v]` is its weight to v.  In
    lexicographic order its sets are the next C(n - start, k) indices, and
    bit j of the result stands for the j-th of them.  Each weighs at least
    total + k * min(gain[start:]) + C(k, 2) * lightest[start], at most the
    same with the maxima; when the bar lies outside those bounds they are
    all heavy or all light, one run of set bits or none.  Otherwise each
    next vertex a extends the prefix.  Its sets come after those of the
    next vertices before a, so at k = 2 each pair (a, v) sets the bit after
    the previous pair's, at the cost of one sum and one comparison, and
    above, the longer prefix's bitmap is shifted past the earlier sets and
    ORed in.
    """
    n = len(gain)
    tail = gain[start:]
    pairs = k * (k - 1) // 2
    if total + k * min(tail) + pairs * lightest[start] >= need:
        return (1 << comb(n - start, k)) - 1
    if total + k * max(tail) + pairs * heaviest[start] < need:
        return 0
    bits = 0
    if k == 2:
        bit = 1
        for a in range(start, n - 1):
            row = rows[a]
            short = need - total - gain[a]
            for v in range(a + 1, n):
                if gain[v] + row[v] >= short:
                    bits |= bit
                bit <<= 1
        return bits
    offset = 0
    for a in range(start, n - k + 1):
        bits |= _prefix_bits(rows, need, lightest, heaviest, a + 1, k - 1, total + gain[a],
                             [g + w for g, w in zip(gain, rows[a])]) << offset
        offset += comb(n - a - 1, k - 1)
    return bits


def _heavy_masks(masks: tuple[int, ...], heavy: int) -> list[int]:
    """The masks whose index is a set bit of `heavy`, in index order.

    The binary numeral of `heavy` is read lowest bit first, one character
    per set, in time linear in the index.
    """
    return [m for m, bit in zip(masks, bin(heavy)[:1:-1]) if bit == "1"]


def _key_steps(graph: WeightedCompleteGraph, masks: tuple[int, ...], r: int) -> tuple[int, ...] | list[int]:
    """Each r-set's step of the failed-state key, in index order.

    Vertex v's unit is 1 << (start of its run of adjacent twins), and a set's
    step is the sum of its vertices' units.  v - 1 and v are twins when their
    integer rows agree outside positions v - 1 and v; twins have equal
    degrees, so the degrees are compared first.  The steps are built by the
    Pascal's rule of `_r_sets`.  With no twins every unit is 1 << v, and
    `masks` itself is returned.
    """
    n, rows, degrees = graph.n, graph.rows, graph.degrees
    units = [1]
    for v in range(1, n):
        a, b = rows[v - 1], rows[v]
        twins = degrees[v - 1] == degrees[v] and a[:v - 1] == b[:v - 1] and a[v + 1:] == b[v + 1:]
        units.append(units[-1] if twins else 1 << v)
    if len(set(units)) == n:
        return masks
    level = [[0]] + [[]] * r
    for lo in range(n - 1, -1, -1):
        unit = units[lo]
        for k in range(min(r, n - lo), max(r - lo, 1) - 1, -1):
            level[k] = [unit + step for step in level[k - 1]] + level[k]
    return level[r]


def _vertices(mask: int) -> tuple:
    """The vertices of `mask` as a sorted tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _search(covered: int, key: int, full: int, masks: list[int], steps: list[int],
            through: list[int], alive: int, chosen: list[int],
            failed: dict[int, int]) -> tuple[bool, int]:
    """One search node: (cover found, node count of its uncached subtree).

    `alive` has bit i set when `masks[i]` is heavy and misses `covered`, and
    bit i of `through[v]` is set when v lies in `masks[i]`.  `key` is the
    count of covered vertices in each run of adjacent twins, and choosing
    set i adds `steps[i]` to it.  The masks of a cover found are appended to
    `chosen`, and every failed state is kept in `failed` under its key with
    its subtree's node count; a child whose key is found there is not
    entered.

    This is sound.  The weight of an edge depends only on the runs of its
    ends, since run-mates are twins and the edges inside a run weigh alike.
    Two covered sets with one key leave the same number of uncovered
    vertices in each run, so their uncovered vertices read the same sequence
    of runs in index order, and the order-preserving bijection between them
    keeps every weight.  It maps heavy sets to heavy sets, live candidates
    to live candidates and so anchors to anchors (ties break by index, which
    it keeps), candidate order to candidate order, and children to children
    with one key.  So the two uncached subtrees are isomorphic: the same
    outcome and the same node count.  Only failed states are kept, so the
    first cover found, and with it the factor, is the one an exact-mask
    memo would find.
    """
    if covered == full:
        return True, 1
    best = best_count = 0
    rem = full & ~covered
    while rem:
        low = rem & -rem
        rem ^= low
        live = through[low.bit_length() - 1] & alive
        count = live.bit_count()
        if not count:
            failed[key] = 1
            return False, 1
        if not best or count < best_count:
            best, best_count = live, count
    nodes = 1
    while best:
        low = best & -best
        best ^= low
        i = low.bit_length() - 1
        child = key + steps[i]
        sub = failed.get(child)
        if sub is None:
            m = masks[i]
            hit, block = 0, m
            while block:
                u = block & -block
                block ^= u
                hit |= through[u.bit_length() - 1]
            chosen.append(m)
            found, sub = _search(covered | m, child, full, masks, steps, through, alive & ~hit,
                                 chosen, failed)
            if found:
                return True, nodes + sub
            chosen.pop()
        nodes += sub
    failed[key] = nodes
    return False, nodes


def find_heavy_factor(graph: WeightedCompleteGraph, params: FactorParams,
                      strict: bool = False) -> SolveCertificate:
    """Complete backtracking search for a factor of heavy r-blocks.

    The returned certificate either carries a factor whose every block meets
    the (strictness-dependent) bar, or proves none exists.
    """
    n, r = graph.n, params.r
    _check_block_shape(r, n)
    masks, through, heavy = _heavy_family(graph, params, strict)
    steps = _key_steps(graph, masks, r)
    chosen: list[int] = []
    found, nodes = _search(0, 0, (1 << n) - 1, masks, steps, through, heavy, chosen, {})
    factor = None
    if found:
        factor = CliqueFactor.from_blocks([_vertices(m) for m in chosen])
        factor.validate(n, r)
    return SolveCertificate(params=params, strict=strict, factor=factor,
                            nodes_explored=nodes)


def heavy_cliques_containing(graph: WeightedCompleteGraph, v: int,
                             params: FactorParams, strict: bool = False) -> int:
    """Count of heavy r-sets through v (the quantity the counting bound floors)."""
    _vertex_set((v,), graph.n, "heavy cliques containing")
    _, through, heavy = _heavy_family(graph, params, strict)
    return (through[v] & heavy).bit_count()


def lemma1_bound(delta, t, r: int, n: int) -> Fraction:
    """Counting floor ((delta - t) / (1 - t)) * C(n-1, r-1) on heavy r-sets per vertex.

    Valid whenever the graph's minimum weighted degree is at least delta * n;
    t = 1 would divide by zero and is rejected.
    """
    t_r_threshold(r)  # refuses a non-integer r and r < 3
    if _integer(n, "vertex count") < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    dd = _unit(delta, "delta")
    tt = _unit(t, "t")
    if tt == 1:
        raise ValueError(f"need 0 <= t < 1, got t={tt}")
    return (dd - tt) / (1 - tt) * comb(n - 1, r - 1)


def daykin_haggkvist_check(graph: WeightedCompleteGraph, params: FactorParams,
                           strict: bool = False) -> bool:
    """Degree test sufficient for a perfect matching of the heavy r-sets.

    True when every vertex lies in at least (1 - 1/r)(C(n-1, r-1) - 1) heavy
    r-sets, read off the popcounts of the per-vertex bitmaps.  A perfect
    matching needs r to divide n, so any other r is refused.
    """
    n, r = graph.n, params.r
    _check_block_shape(r, n)
    bound = Fraction(r - 1, r) * (comb(n - 1, r - 1) - 1)
    _, through, heavy = _heavy_family(graph, params, strict)
    return all((sets & heavy).bit_count() >= bound for sets in through)


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
    def size(self) -> int:
        return len(self.blocks)


def _overweight_count(over: tuple[int, ...], block: int) -> int:
    """Overweight edges inside the mask `block`, each counted once."""
    return sum((over[v] & block).bit_count() for v in _vertices(block)) // 2


def enumerate_maximum_heavy_collections(graph: WeightedCompleteGraph,
                                        params: FactorParams) -> list[HeavyCollection]:
    """All collections maximizing (size, within-block overweight edges).

    Complete enumeration over subsets of disjoint heavy blocks, refused by
    `_enumeration_cap` for n above DEFAULT_ENUMERATION_CAP.  When no heavy
    block exists at all, the unique maximum is the empty collection.
    """
    _enumeration_cap(graph.n, DEFAULT_ENUMERATION_CAP)
    index, _, heavy = _heavy_family(graph, params, strict=False)
    masks = _heavy_masks(index, heavy)
    over = graph.threshold_masks(params.heavy_threshold)
    owc = [_overweight_count(over, m) for m in masks]
    best_key, best = _maximum_collections(0, 0, (0, 0), (), masks, owc)
    out = [
        HeavyCollection.from_blocks([_vertices(masks[i]) for i in chosen], best_key[1])
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


def local_search_heavy_collection(graph: WeightedCompleteGraph, params: FactorParams,
                                  seed: int, restarts: int = 4) -> HeavyCollection:
    """Seeded hill-climb maximizing (size, within-block overweight edges).

    Moves, tried in order until none applies: add the first fully uncovered
    heavy block; swap one block vertex for an uncovered vertex when the block
    stays heavy and its internal overweight count strictly rises.  Both
    objectives are bounded and every move raises the pair lexicographically,
    so each climb terminates.  Restart 0 climbs from the empty collection;
    later restarts climb from a greedy pass over a shuffled block order, and
    the best (ties to earliest) wins.
    """
    n = graph.n
    _integer(seed, "seed")
    if _integer(restarts, "restarts") < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    index, _, heavy = _heavy_family(graph, params, strict=False)
    masks = _heavy_masks(index, heavy)
    heavy_set = set(masks)
    over = graph.threshold_masks(params.heavy_threshold)

    def improving_swap(blocks: list[int], free: int) -> tuple[int, int] | None:
        """The first (index, swapped block) that stays heavy and gains overweight edges."""
        incoming = _vertices(free)
        for i in sorted(range(len(blocks)), key=lambda j: _vertices(blocks[j])):
            old = blocks[i]
            old_count = _overweight_count(over, old)
            for u in _vertices(old):
                for w in incoming:
                    candidate = old ^ 1 << u | 1 << w
                    if candidate in heavy_set and _overweight_count(over, candidate) > old_count:
                        return i, candidate
        return None

    def climb(blocks: list[int]) -> list[int]:
        while True:
            free = (1 << n) - 1
            for b in blocks:
                free &= ~b
            fit = next((m for m in masks if m & free == m), None)
            if fit is not None:
                blocks.append(fit)
                continue
            swap = improving_swap(blocks, free)
            if swap is None:
                return blocks
            blocks[swap[0]] = swap[1]

    rng = random.Random(seed)
    best_blocks: list[int] = []
    best_key = (-1, -1)
    for restart in range(restarts):
        start: list[int] = []
        if restart > 0:
            shuffled = list(masks)
            rng.shuffle(shuffled)
            taken = 0
            for m in shuffled:
                if not taken & m:
                    start.append(m)
                    taken |= m
        blocks = climb(start)
        key = (len(blocks), sum(_overweight_count(over, b) for b in blocks))
        if key > best_key:
            best_key = key
            best_blocks = blocks
    return HeavyCollection.from_blocks([_vertices(b) for b in best_blocks], best_key[1])


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    detail: str
    witness: tuple


@dataclass(frozen=True)
class StructureReport:
    """Result of the maximum-collection structure checks.

    `anchors` holds a (block, anchor) pair for each saturated block, one with
    at least r-1 overweight edges into the designated uncovered r-set L: the
    block as a sorted tuple, and the unique vertex that all its overweight
    edges into L meet.  `spare_vertices` are the non-anchor vertices of
    saturated blocks.  An empty violation list is the expected outcome on
    any true maximum.
    """

    violations: tuple
    anchors: tuple
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
    covered = _disjoint_blocks(collection.blocks, r)
    for block in collection.blocks:
        if not is_heavy(graph, block, params):
            raise ValueError(f"block {sorted(block)} is not heavy")
    uncovered = set(range(n)) - covered
    if len(uncovered) < r:
        raise ValueError(
            f"need at least r={r} uncovered vertices, got {len(uncovered)}"
        )
    dset = _vertex_set(designated, n, "designated set")
    if len(dset) != r:
        raise ValueError(f"designated set must contain r={r} vertices")
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

    saturated = {frozenset(b) for b, _ in anchors}
    for y in sorted(spare):
        for block in collection.blocks:
            if frozenset(block) in saturated:
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
        anchors=tuple((tuple(sorted(b)), a) for b, a in anchors),
        spare_vertices=frozenset(spare),
    )


def t_r_threshold(r: int) -> Fraction:
    """Level below which the counting floor already beats the matching bound.

    Closed form 4 / (C(r, 2) (r^3 - r^2 - 2r + 4)); defined for r >= 3.
    """
    if _integer(r, "r") < 3:
        raise ValueError(f"the counting bound needs r >= 3, got r={r}")
    return Fraction(4, comb(r, 2) * (r ** 3 - r ** 2 - 2 * r + 4))
