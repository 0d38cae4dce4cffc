"""Complete search, counting bounds, degree test, maximum collections."""

import gc
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from heavyfactors import (
    CapExceededError,
    FactorParams,
    WeightedCompleteGraph,
    bipartite_maximum_matching,
    check_facts_at_maximum,
    daykin_haggkvist_check,
    enumerate_all_factors,
    enumerate_maximum_heavy_collections,
    find_heavy_factor,
    heavy_cliques_containing,
    hs_sharpness_construction,
    is_heavy,
    is_overweight_edge,
    is_strictly_heavy,
    lemma1_bound,
    prop2_construction,
    random_weighting,
    t_r_threshold,
)
from heavyfactors.solver import (
    HeavyCollection,
    _heavy_family,
    _overweight_count,
    _r_sets,
    _search,
    _vertices,
)

from conftest import (
    pair_table,
    random_grid_graph,
    random_grid_weights,
    sparse_grid_graph,
    sparse_grid_weights,
)


def partition_count(n, r):
    return factorial(n) // (factorial(r) ** (n // r) * factorial(n // r))


# ------------------------------------------------------------ oracle stream


@pytest.mark.parametrize("n,r,expected", [(6, 3, 10), (6, 2, 15), (9, 3, 280), (8, 2, 105), (8, 4, 35), (12, 3, 15400)])
def test_enumerate_all_factors_counts(n, r, expected):
    assert expected == partition_count(n, r)
    seen = set()
    for blocks in enumerate_all_factors(n, r):
        assert blocks[0][0] == 0, "first block is anchored at vertex 0"
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(n))
        for b in blocks:
            assert b == tuple(sorted(b))
        seen.add(blocks)
    assert len(seen) == expected


def test_enumerate_all_factors_caps_and_validates():
    with pytest.raises(CapExceededError):
        list(enumerate_all_factors(14, 2))
    with pytest.raises(CapExceededError):
        list(enumerate_all_factors(8, 2, cap=6))
    with pytest.raises(ValueError):
        list(enumerate_all_factors(6, 1))
    with pytest.raises(ValueError):
        list(enumerate_all_factors(7, 3))


# -------------------------------------------------------------- full search


def test_find_heavy_factor_on_the_all_ones_graph():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    cert = find_heavy_factor(g, FactorParams(r=3, t=Fraction(1)))
    assert cert.outcome == "factor"
    cert.factor.validate(6, 3)
    assert cert.nodes_explored >= 1
    assert cert.to_json()["method"] == "backtrack"


def test_find_heavy_factor_exhausts_the_zero_graph():
    g = WeightedCompleteGraph.constant(6, Fraction(0))
    cert = find_heavy_factor(g, FactorParams(r=3, t=Fraction(1, 2)))
    assert cert.outcome == "exhausted" and cert.factor is None
    # at level zero every block qualifies
    relaxed = find_heavy_factor(g, FactorParams(r=3, t=Fraction(0)))
    assert relaxed.outcome == "factor"


def test_two_class_weighting_separates_strict_from_non_strict():
    """Boundary blocks rescue the non-strict search and doom the strict one."""
    g, _ = prop2_construction(3, Fraction(2, 3), 9)
    params = FactorParams(r=3, t=Fraction(2, 3))
    loose = find_heavy_factor(g, params, strict=False)
    assert loose.outcome == "factor"
    assert all(is_heavy(g, b, params) for b in loose.factor.blocks)
    tight = find_heavy_factor(g, params, strict=True)
    assert tight.outcome == "exhausted"


def test_scaled_two_class_weighting_defeats_both_variants():
    g, _ = prop2_construction(3, Fraction(2, 3), 9)
    s = g.scale(Fraction(999, 1000))
    params = FactorParams(r=3, t=Fraction(2, 3))
    assert find_heavy_factor(s, params, strict=False).outcome == "exhausted"
    assert find_heavy_factor(s, params, strict=True).outcome == "exhausted"


def test_solver_certificates_are_deterministic():
    rng = Random(41)
    g = random_grid_graph(rng, 9, denominator=4)
    params = FactorParams(r=3, t=Fraction(1, 2))
    a = find_heavy_factor(g, params)
    b = find_heavy_factor(g, params)
    assert a == b
    assert a.to_json() == b.to_json()


def test_solver_validates_divisibility():
    g = WeightedCompleteGraph.constant(7, Fraction(1))
    with pytest.raises(ValueError):
        find_heavy_factor(g, FactorParams(r=3, t=Fraction(1, 2)))


def test_certificate_json_shape():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    doc = find_heavy_factor(g, FactorParams(r=2, t=Fraction(1, 2))).to_json()
    assert doc["outcome"] == "factor" and doc["strict"] is False
    assert doc["r"] == 2 and doc["t"] == "1/2"
    assert sorted(v for b in doc["factor"] for v in b) == list(range(6))


def test_search_agrees_with_the_oracle_on_random_sweeps():
    """Existence must match brute-force partition enumeration exactly."""
    rng = Random(20250813)
    boxes = [(6, 3), (9, 3), (6, 2), (8, 2), (8, 4)]
    levels = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    checked = 0
    for trial in range(40):
        n, r = boxes[trial % len(boxes)]
        g = random_grid_graph(rng, n, denominator=4)
        t = levels[trial % len(levels)]
        params = FactorParams(r=r, t=t)
        for strict in (False, True):
            pred = is_strictly_heavy if strict else is_heavy
            oracle = any(
                all(pred(g, b, params) for b in blocks)
                for blocks in enumerate_all_factors(n, r)
            )
            cert = find_heavy_factor(g, params, strict=strict)
            assert (cert.factor is not None) == oracle, (
                f"trial {trial}: n={n} r={r} t={t} strict={strict}"
            )
            if cert.factor is not None:
                assert all(pred(g, b, params) for b in cert.factor.blocks)
            checked += 1
    assert checked == 80


# ------------------------------------------- reference heavy sets and search


def bitmask(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def plain_heavy_sets(n, table, params, strict):
    """The Fraction heavy-set comprehension over the test's own weights, kept as the reference."""
    return [
        vs for vs in combinations(range(n), params.r)
        if params.admits(sum((table[p] for p in combinations(vs, 2)), Fraction(0)), strict)
    ]


def prop2_table(r, t, n):
    """The two-class weighting, written out here: 1 at the first n/r - 1 vertices, t elsewhere."""
    k = n // r
    return {(i, j): Fraction(1) if i < k - 1 else t for i, j in combinations(range(n), 2)}


def plain_cover_search(n, sets):
    """The cover search without its failed-state cache, kept as the reference."""
    masks = [bitmask(s) for s in sets]
    by_vertex = [[] for _ in range(n)]
    for idx, s in enumerate(sets):
        for v in s:
            by_vertex[v].append(idx)
    full = (1 << n) - 1
    chosen = []
    nodes = 0

    def search(covered):
        nonlocal nodes
        nodes += 1
        if covered == full:
            return True
        best_live = None
        rem = full & ~covered
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            live = [i for i in by_vertex[v] if not masks[i] & covered]
            if not live:
                return False
            if best_live is None or len(live) < len(best_live):
                best_live = live
        for i in best_live:
            chosen.append(i)
            if search(covered | masks[i]):
                return True
            chosen.pop()
        return False

    found = search(0)
    return ([sets[i] for i in chosen] if found else None, nodes)


def list_cached_search(n, masks):
    """The cached search over per-vertex lists of masks, kept as a second reference.

    It is fast enough for the sizes the uncached reference cannot reach.
    """
    by_vertex = [[m for m in masks if m >> v & 1] for v in range(n)]
    full = (1 << n) - 1
    chosen = []
    failed = {}

    def search(covered):
        if covered in failed:
            return False, failed[covered]
        if covered == full:
            return True, 1
        best_live = None
        rem = full & ~covered
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            live = [m for m in by_vertex[v] if not m & covered]
            if not live:
                failed[covered] = 1
                return False, 1
            if best_live is None or len(live) < len(best_live):
                best_live = live
        nodes = 1
        for m in best_live:
            chosen.append(m)
            found, sub = search(covered | m)
            nodes += sub
            if found:
                return True, nodes
            chosen.pop()
        failed[covered] = nodes
        return False, nodes

    found, nodes = search(0)
    return (list(chosen) if found else None, nodes, failed)


def heavy_masks(masks, heavy):
    """The masks whose index is a set bit of `heavy`, in index order."""
    return [m for i, m in enumerate(masks) if heavy >> i & 1]


def bitmap_search(graph, params, strict):
    """The solver's search on the solver's family: (heavy masks, chosen masks or None, node count, failed states)."""
    masks, through, heavy = _heavy_family(graph, params, strict)
    chosen, failed = [], {}
    found, nodes = _search(0, (1 << graph.n) - 1, masks, through, heavy, chosen, failed)
    return heavy_masks(masks, heavy), (chosen if found else None), nodes, failed


def assert_cache_is_invisible(graph, params, strict):
    """Same blocks and node count as the plain search over the per-vertex index, each mask decoded both ways."""
    n = graph.n

    def members(mask):
        return tuple(v for v in range(n) if mask >> v & 1)

    masks, chosen, nodes, _ = bitmap_search(graph, params, strict)
    assert all(_vertices(m) == members(m) for m in masks)
    blocks = None if chosen is None else [members(m) for m in chosen]
    assert (blocks, nodes) == plain_cover_search(n, [members(m) for m in masks])


def scaled_prop2(r, t, n):
    g, _ = prop2_construction(r, t, n)
    return g.scale(Fraction(999, 1000))


def lower_edges(graph, rng, count):
    """`graph` with `count` random edges scaled by a random tenth in 0..9/10."""
    for i, j in rng.sample(list(graph.pairs()), count):
        graph = graph.with_weight(i, j, graph.weight(i, j) * Fraction(rng.randint(0, 9), 10))
    return graph


LEVELS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


# ----------------------------------------------------------- heavy-set build


def test_r_set_index_is_the_plain_combinations():
    """Every (n, r) up to 12 and 6, n < r included: the masks of `combinations`, and a per-set OR loop's bitmaps."""
    for n in range(13):
        for r in range(2, 7):
            sets = list(combinations(range(n), r))
            through = [0] * n
            for i, s in enumerate(sets):
                for v in s:
                    through[v] |= 1 << i
            assert _r_sets(n, r) == (tuple(bitmask(s) for s in sets), tuple(through)), (n, r)


def solve_all(cases, before=lambda: None):
    """Each case's certificate document, `before` run ahead of every solve."""
    out = []
    for graph, params, strict in cases:
        before()
        out.append(find_heavy_factor(graph, params, strict=strict).to_json())
    return out


def test_r_set_cache_is_invisible():
    """Certificates are the same with the index built afresh for every solve, and with entries evicted.

    The cases span more (n, r) pairs than the cache holds and are solved in
    turn, twice over, so every pair is evicted before it comes back.
    """
    rng = Random(16)
    pairs = [(n, r) for n in range(2, 13) for r in range(2, n + 1) if n % r == 0]
    assert len(pairs) > _r_sets.cache_info().maxsize
    cases = [(random_grid_graph(rng, n), FactorParams(r, t), strict)
             for n, r in pairs for t in (Fraction(1, 2), Fraction(3, 4)) for strict in (False, True)]
    fresh = solve_all(cases, _r_sets.cache_clear)
    assert any(doc["outcome"] == "factor" for doc in fresh)
    assert any(doc["outcome"] == "exhausted" for doc in fresh)
    _r_sets.cache_clear()
    assert solve_all(cases + cases) == fresh + fresh
    info = _r_sets.cache_info()
    assert info.currsize == info.maxsize and info.misses == 2 * len(pairs)


def assert_family_is_the_plain_one(graph, table, params):
    """The set bits of the heavy bitmap are the Fraction build's sets on `table`, in the same order."""
    n, r = graph.n, params.r
    for strict in (False, True):
        plain = plain_heavy_sets(n, table, params, strict)
        masks, through, heavy = _heavy_family(graph, params, strict)
        assert (masks, through) == _r_sets(n, r)
        assert heavy >> len(masks) == 0
        assert heavy_masks(masks, heavy) == [bitmask(s) for s in plain]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 12), r=st.integers(2, 5),
       t=st.sampled_from([Fraction(0), Fraction(1, 5)] + LEVELS), sparse=st.booleans(),
       denominator=st.sampled_from([1, 3, 4, 7, 12]))
def test_heavy_family_matches_the_plain_build_on_grid_graphs(seed, n, r, t, sparse, denominator):
    rng = Random(seed)
    if sparse:
        flat = sparse_grid_weights(rng, n, denominator=denominator, zero_prob=0.3)
    else:
        flat = random_grid_weights(rng, n, denominator=denominator)
    g = WeightedCompleteGraph.from_flat(n, flat)
    assert_family_is_the_plain_one(g, pair_table(n, flat), FactorParams(r=r, t=t))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(3, 9), (3, 12), (4, 12), (5, 10), (2, 10)]),
       t=st.sampled_from(LEVELS[:-1]), lowered=st.integers(0, 6))
def test_heavy_family_matches_the_plain_build_on_lowered_prop2(seed, box, t, lowered):
    r, n = box
    rng = Random(seed)
    g, _ = prop2_construction(r, t, n)
    table = prop2_table(r, t, n)
    for i, j in rng.sample(list(g.pairs()), lowered):
        table[i, j] *= Fraction(rng.randint(0, 9), 10)
        g = g.with_weight(i, j, table[i, j])
    assert_family_is_the_plain_one(g, table, FactorParams(r=r, t=t))


@pytest.mark.parametrize("r,t,n", [(3, Fraction(2, 3), 15), (5, Fraction(2, 3), 15), (3, Fraction(2, 3), 12),
                                   (4, Fraction(2, 3), 12), (5, Fraction(2, 3), 10), (3, Fraction(1, 4), 9),
                                   (2, Fraction(1, 2), 10)])
def test_heavy_family_matches_the_plain_build_on_scaled_prop2(r, t, n):
    table = {p: w * Fraction(999, 1000) for p, w in prop2_table(r, t, n).items()}
    assert_family_is_the_plain_one(scaled_prop2(r, t, n), table, FactorParams(r=r, t=t))


@pytest.mark.parametrize("r,t,nudge", [(4, Fraction(2, 3), Fraction(1, 30)), (5, Fraction(2, 3), Fraction(1, 30)),
                                       (3, Fraction(1, 4), Fraction(1, 1000))])
def test_heavy_family_at_the_bar(r, t, nudge):
    """Every set of the constant-t graph weighs the bar exactly; one nudged edge decides.

    The bar t * C(r, 2) is 4 for (4, 2/3), and 20/3 and 3/4 for the other two.
    """
    n = 8
    params = FactorParams(r=r, t=t)

    def family(graph, strict):
        masks, _, heavy = _heavy_family(graph, params, strict)
        return heavy_masks(masks, heavy)

    flat = WeightedCompleteGraph.constant(n, t)
    assert family(flat, False) == [bitmask(s) for s in combinations(range(n), r)]
    assert family(flat, True) == []
    through_edge = comb(n - 2, r - 2)
    raised = flat.with_weight(0, 1, t + nudge)
    lowered = flat.with_weight(0, 1, t - nudge)
    assert len(family(raised, False)) == comb(n, r)
    assert len(family(raised, True)) == through_edge
    assert len(family(lowered, False)) == comb(n, r) - through_edge
    assert family(lowered, True) == []
    table = {p: t for p in combinations(range(n), 2)}
    for g, w01 in ((flat, t), (raised, t + nudge), (lowered, t - nudge)):
        assert_family_is_the_plain_one(g, {**table, (0, 1): w01}, params)


# ------------------------------------------------------- overweight relation


def assert_overweight_rows_are_the_plain_ones(graph, params):
    """Each mask row against the Fraction predicate; each r-set's count against a pair loop."""
    n = graph.n
    over = graph.threshold_masks(params.heavy_threshold)
    for v in range(n):
        plain = [u for u in range(n) if u != v and is_overweight_edge(graph, (v, u), params)]
        assert over[v] == bitmask(plain)
    for block in combinations(range(n), params.r):
        plain = sum(1 for e in combinations(block, 2) if is_overweight_edge(graph, e, params))
        assert _overweight_count(over, bitmask(block)) == plain


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 10), r=st.integers(2, 5),
       t=st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 6)] + LEVELS), sparse=st.booleans(),
       denominator=st.sampled_from([1, 2, 3, 4, 6, 12]))
def test_overweight_rows_match_the_fraction_predicate_on_grid_graphs(seed, n, r, t, sparse, denominator):
    rng = Random(seed)
    if sparse:
        g = sparse_grid_graph(rng, n, denominator=denominator, zero_prob=0.3)
    else:
        g = random_grid_graph(rng, n, denominator=denominator)
    assert_overweight_rows_are_the_plain_ones(g, FactorParams(r=min(r, n), t=t))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(3, 9), (4, 8), (5, 10), (2, 10)]),
       t=st.sampled_from([Fraction(0)] + LEVELS[:-1]), lowered=st.integers(0, 6))
def test_overweight_rows_match_the_fraction_predicate_on_lowered_prop2(seed, box, t, lowered):
    r, n = box
    g = lower_edges(prop2_construction(r, t, n)[0], Random(seed), lowered)
    assert_overweight_rows_are_the_plain_ones(g, FactorParams(r=r, t=t))


@pytest.mark.parametrize("r,t,w", [(2, Fraction(0), Fraction(0)), (3, Fraction(0), Fraction(0)),
                                   (2, Fraction(1, 2), Fraction(1, 2)), (2, Fraction(1), Fraction(1)),
                                   (3, Fraction(1, 3), Fraction(1))])
def test_overweight_rows_at_the_bar(r, t, w):
    """Edges weighing exactly the bar t * C(r, 2) are overweight; one nudged below is not.

    At t = 0 every edge is overweight, and the diagonal still never counts.
    """
    n = 7
    params = FactorParams(r=r, t=t)
    at_bar = WeightedCompleteGraph.constant(n, w)
    full = (1 << n) - 1
    over = at_bar.threshold_masks(params.heavy_threshold)
    assert over == tuple(full ^ 1 << v for v in range(n))
    assert _overweight_count(over, full) == comb(n, 2)
    assert_overweight_rows_are_the_plain_ones(at_bar, params)
    if w > 0:
        lowered = at_bar.with_weight(0, 1, w - Fraction(1, 100))
        over = lowered.threshold_masks(params.heavy_threshold)
        assert over[0] == full ^ 0b11 and over[1] == full ^ 0b11
        assert_overweight_rows_are_the_plain_ones(lowered, params)


# ------------------------------------------------------ failed-state cache


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(6, 3), (9, 3), (12, 3), (8, 2), (10, 2), (8, 4), (12, 4)]),
       t=st.sampled_from(LEVELS), sparse=st.booleans(), strict=st.booleans())
def test_cached_search_matches_the_plain_search_on_grid_graphs(seed, box, t, sparse, strict):
    n, r = box
    rng = Random(seed)
    g = sparse_grid_graph(rng, n, zero_prob=0.3) if sparse else random_grid_graph(rng, n)
    assert_cache_is_invisible(g, FactorParams(r=r, t=t), strict)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(3, 9), (3, 12), (4, 12), (2, 10)]),
       t=st.sampled_from(LEVELS[:-1]), lowered=st.integers(0, 6), strict=st.booleans())
def test_cached_search_matches_the_plain_search_on_lowered_prop2(seed, box, t, lowered, strict):
    r, n = box
    g = lower_edges(prop2_construction(r, t, n)[0], Random(seed), lowered)
    assert_cache_is_invisible(g, FactorParams(r=r, t=t), strict)


@pytest.mark.parametrize("r,t,n", [(3, Fraction(2, 3), 9), (3, Fraction(2, 3), 12), (3, Fraction(1, 2), 15),
                                   (4, Fraction(2, 3), 12), (2, Fraction(1, 2), 10)])
def test_cached_search_matches_the_plain_search_on_scaled_prop2(r, t, n):
    for strict in (False, True):
        assert_cache_is_invisible(scaled_prop2(r, t, n), FactorParams(r=r, t=t), strict)


@pytest.mark.parametrize("r,n", [(3, 9), (3, 12), (3, 15), (4, 12), (2, 8)])
def test_cached_search_matches_the_plain_search_on_hs_sharpness(r, n):
    g, _ = hs_sharpness_construction(r, n)
    for t in (Fraction(1), Fraction(1, 2)):
        for strict in (False, True):
            assert_cache_is_invisible(g, FactorParams(r=r, t=t), strict)


def assert_bitmaps_are_the_lists(graph, params, strict):
    """Same blocks, node count and failed states as the list-based cached search."""
    masks, chosen, nodes, failed = bitmap_search(graph, params, strict)
    assert (chosen, nodes, failed) == list_cached_search(graph.n, masks)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32),
       case=st.sampled_from([("prop2", 3, 15), ("prop2", 5, 15), ("prop2", 4, 16), ("hs", 3, 18)]),
       count=st.integers(0, 6), strict=st.booleans())
def test_bitmap_search_matches_the_list_search_on_lowered_extremal_inputs(seed, case, count, strict):
    """Scaled prop2 and hs-sharpness at n = 15-18, a few edges lowered: too big for the uncached reference."""
    family, r, n = case
    if family == "prop2":
        g, t = scaled_prop2(r, Fraction(2, 3), n), Fraction(2, 3)
    else:
        g, t = hs_sharpness_construction(r, n)[0], Fraction(1)
    assert_bitmaps_are_the_lists(lower_edges(g, Random(seed), count), FactorParams(r=r, t=t), strict)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(14, 2), (15, 3), (15, 5), (16, 4), (18, 3), (18, 6)]),
       t=st.sampled_from(LEVELS), sparse=st.booleans(), strict=st.booleans())
def test_bitmap_search_matches_the_list_search_on_larger_grid_graphs(seed, box, t, sparse, strict):
    n, r = box
    rng = Random(seed)
    g = sparse_grid_graph(rng, n, zero_prob=0.3) if sparse else random_grid_graph(rng, n)
    assert_bitmaps_are_the_lists(g, FactorParams(r=r, t=t), strict)


@pytest.mark.parametrize("r,n", [(3, 15), (5, 15), (3, 18)])
def test_bitmap_search_matches_the_list_search_on_scaled_prop2(r, n):
    for strict in (False, True):
        assert_bitmaps_are_the_lists(scaled_prop2(r, Fraction(2, 3), n), FactorParams(r=r, t=Fraction(2, 3)), strict)


@pytest.mark.parametrize("graph,params,strict,nodes", [
    (scaled_prop2(3, Fraction(2, 3), 18), FactorParams(3, Fraction(2, 3)), True, 3_732_341),
    (scaled_prop2(4, Fraction(2, 3), 16), FactorParams(4, Fraction(2, 3)), True, 231_734),
    (hs_sharpness_construction(3, 18)[0], FactorParams(3, Fraction(1)), False, 137_431),
], ids=["prop2-r3-n18-strict", "prop2-r4-n16-strict", "hs-r3-n18"])
def test_node_counts_of_large_exhaustions_are_pinned(graph, params, strict, nodes):
    """Counts of the plain search tree, recorded before the cache existed."""
    cert = find_heavy_factor(graph, params, strict=strict)
    assert cert.outcome == "exhausted"
    assert cert.nodes_explored == nodes


# ------------------------------------------------------------ memory release


def test_recursive_searches_leave_no_reference_cycles():
    """Each search frees what it allocated on return, with the cyclic GC off.

    A self-recursive closure is a reference cycle: it and everything it holds
    (masks, failed states, candidate lists) would stay alive until the GC ran.
    """
    params = FactorParams(3, Fraction(2, 3))
    calls = {
        "cover search": lambda: find_heavy_factor(scaled_prop2(3, Fraction(2, 3), 9), params, strict=True),
        "augmenting path": lambda: bipartite_maximum_matching(3, 3, [[0, 1], [0], [2]]),
        "maximum collections": lambda: enumerate_maximum_heavy_collections(
            WeightedCompleteGraph.constant(6, Fraction(1)), params),
        "partition stream": lambda: list(enumerate_all_factors(6, 3)),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


# --------------------------------------------------------- per-vertex counts


def test_heavy_clique_counts_on_reference_weightings():
    ones = WeightedCompleteGraph.constant(6, Fraction(1))
    p = FactorParams(r=3, t=Fraction(1))
    assert heavy_cliques_containing(ones, 0, p) == comb(5, 2)
    assert heavy_cliques_containing(ones, 0, p, strict=True) == 0

    g, _ = prop2_construction(3, Fraction(2, 3), 9)
    q = FactorParams(r=3, t=Fraction(2, 3))
    assert heavy_cliques_containing(g, 0, q) == comb(8, 2)
    # B-vertex: the 15 all-B triples sit exactly on the bar
    assert heavy_cliques_containing(g, 8, q) == 28
    assert heavy_cliques_containing(g, 8, q, strict=True) == 28 - comb(6, 2)

    with pytest.raises(ValueError):
        heavy_cliques_containing(ones, 6, p)


def test_lemma1_bound_reference_values():
    assert lemma1_bound(Fraction(7, 9), Fraction(2, 3), 3, 36) == Fraction(595, 3)
    assert lemma1_bound(1, Fraction(1, 2), 3, 10) == comb(9, 2)
    assert lemma1_bound(Fraction(1, 2), Fraction(1, 2), 3, 10) == 0


@pytest.mark.parametrize(
    "delta,t,r,n",
    [
        (Fraction(1, 2), Fraction(1), 3, 9),
        (Fraction(1, 2), Fraction(1, 4), 2, 9),
        (Fraction(3, 2), Fraction(1, 4), 3, 9),
        (Fraction(1, 2), Fraction(1, 4), 4, 3),
    ],
)
def test_lemma1_bound_rejects_bad_parameters(delta, t, r, n):
    with pytest.raises(ValueError):
        lemma1_bound(delta, t, r, n)


def test_counting_floor_holds_on_seeded_weightings():
    """Whenever the scaled min degree clears t, every vertex clears the floor."""
    t = Fraction(1, 2)
    params = FactorParams(r=3, t=t)
    checked = 0
    for seed in range(40):
        n = 8 if seed % 2 else 9
        g = random_weighting(n, 40, seed=seed, min_degree=Fraction(3, 5))
        delta = g.min_weighted_degree() / n
        assert delta > t
        floor = lemma1_bound(delta, t, 3, n)
        for v in range(n):
            assert heavy_cliques_containing(g, v, params) >= floor
        checked += 1
    assert checked == 40


# ------------------------------------------------------------- degree test


def test_heavy_counts_at_the_strict_boundary():
    """Loose counts take every triple; strict ones drop the all-B triples."""
    g, desc = prop2_construction(3, Fraction(1, 2), 9)
    params = FactorParams(r=3, t=Fraction(1, 2))
    b_side = set(desc.partition["B"])
    assert len(b_side) == 7
    loose = [heavy_cliques_containing(g, v, params) for v in range(9)]
    assert loose == [comb(8, 2)] * 9  # every triple reaches 3/2
    tight = [heavy_cliques_containing(g, v, params, strict=True) for v in range(9)]
    assert tight == [comb(8, 2) - comb(6, 2) if v in b_side else comb(8, 2) for v in range(9)]
    assert sum(tight) == 3 * (comb(9, 3) - comb(7, 3))
    with pytest.raises(ValueError):
        heavy_cliques_containing(g, 9, params)


def test_daykin_haggkvist_degree_test():
    ones = WeightedCompleteGraph.constant(6, Fraction(1))
    assert daykin_haggkvist_check(ones, FactorParams(r=3, t=Fraction(1)))
    assert not daykin_haggkvist_check(ones, FactorParams(r=3, t=Fraction(1)), strict=True)
    zeros = WeightedCompleteGraph.constant(6, Fraction(0))
    assert not daykin_haggkvist_check(zeros, FactorParams(r=3, t=Fraction(1, 2)))
    with pytest.raises(ValueError):
        daykin_haggkvist_check(ones, FactorParams(r=7, t=Fraction(1)))
    # prop2 at n = 9: the strict counts of B vertices fall to 28 - 15 = 13,
    # under the bound (2/3)(28 - 1) = 18, while the loose counts stay at 28
    g, _ = prop2_construction(3, Fraction(1, 2), 9)
    params = FactorParams(r=3, t=Fraction(1, 2))
    assert daykin_haggkvist_check(g, params)
    assert not daykin_haggkvist_check(g, params, strict=True)


def test_degree_test_passes_and_delivers_on_dense_samples():
    """Sampling near the degree premise: check holds and a factor follows.

    Minimum weighted degree at least (1 - (1-t)/r + 1/10) n with n = 9,
    r = 3, t = 1/3 forces every triple heavy, the degree test passes, and
    divisibility turns it into an actual factor.
    """
    t = Fraction(1, 3)
    delta = 1 - (1 - t) / 3 + Fraction(1, 10)
    for seed in range(5):
        g = random_weighting(9, 90, seed=seed, min_degree=delta)
        params = FactorParams(r=3, t=t)
        assert daykin_haggkvist_check(g, params)
        assert find_heavy_factor(g, params).factor is not None


# ------------------------------------------------------- threshold constants


def test_small_clique_level_thresholds():
    assert t_r_threshold(3) == Fraction(1, 12)
    assert t_r_threshold(4) == Fraction(1, 66)
    assert t_r_threshold(5) == Fraction(1, 235)
    with pytest.raises(ValueError):
        t_r_threshold(2)


# ------------------------------------------------------- maximum collections


def test_maximum_collections_on_the_all_ones_graph():
    ones = WeightedCompleteGraph.constant(6, Fraction(1))
    maxima = enumerate_maximum_heavy_collections(ones, FactorParams(r=3, t=Fraction(1)))
    assert len(maxima) == 10  # C(6,3)/2 block pairings
    for coll in maxima:
        assert coll.size == 2
        assert coll.covered == frozenset(range(6))
        assert coll.overweight_count == 0  # bar 3 is beyond any single edge


def test_maximum_collections_on_the_zero_graph():
    zeros = WeightedCompleteGraph.constant(6, Fraction(0))
    maxima = enumerate_maximum_heavy_collections(zeros, FactorParams(r=3, t=Fraction(1, 2)))
    assert maxima == [HeavyCollection(blocks=(), overweight_count=0)]
    # at level zero every edge is overweight and every triple is heavy
    floor = enumerate_maximum_heavy_collections(zeros, FactorParams(r=3, t=Fraction(0)))
    assert len(floor) == 10
    assert all(c.overweight_count == 6 for c in floor)


def test_maximum_collections_on_the_scaled_two_class_weighting():
    g, _ = prop2_construction(3, Fraction(2, 3), 9)
    s = g.scale(Fraction(999, 1000))
    maxima = enumerate_maximum_heavy_collections(s, FactorParams(r=3, t=Fraction(2, 3)), cap=12)
    assert len(maxima) == 210
    for coll in maxima:
        assert coll.size == 2
        # each block must grab one clique-side vertex
        assert all(b & {0, 1} for b in coll.blocks)


def test_maximum_collections_cap():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    with pytest.raises(CapExceededError):
        enumerate_maximum_heavy_collections(g, FactorParams(r=3, t=Fraction(1)))


def test_secondary_objective_prefers_overweight_edges_inside_blocks():
    """Two disjoint heavy triples exist, but only one contains the heavy edge.

    At r = 3, t = 1/3 the bar is 1.  Weights: edge (0,1) carries 1, edges
    (3,4), (3,5), (4,5) carry 1/2 each, everything else carries enough dust
    to make {0,1,2} and {3,4,5} both heavy however arranged.  A size-2
    collection is forced; among them the maxima must include the (0,1) edge
    inside a block.
    """
    w = {
        (0, 1): Fraction(1),
        (3, 4): Fraction(1, 2),
        (3, 5): Fraction(1, 2),
        (4, 5): Fraction(1, 2),
    }
    g = WeightedCompleteGraph(6, w)
    params = FactorParams(r=3, t=Fraction(1, 3))
    maxima = enumerate_maximum_heavy_collections(g, params)
    assert maxima, "both halves are heavy so a size-2 collection exists"
    for coll in maxima:
        assert coll.size == 2
        assert coll.overweight_count == 1
        assert any({0, 1} <= b for b in coll.blocks)


# ------------------------------------------------------- structure checking


def triple_params():
    return FactorParams(r=3, t=Fraction(1, 3))  # bar = 1


def test_structure_checks_pass_on_a_trivially_clean_maximum():
    zeros = WeightedCompleteGraph.constant(6, Fraction(0))
    params = FactorParams(r=3, t=Fraction(1, 2))
    coll = HeavyCollection(blocks=(), overweight_count=0)
    report = check_facts_at_maximum(zeros, params, coll, designated=(0, 1, 2))
    assert report.ok
    assert report.saturated_blocks == () and report.spare_vertices == frozenset()


def test_structure_checks_flag_uncovered_overweight_edges():
    g = WeightedCompleteGraph(6, {(0, 1): Fraction(1), (4, 5): Fraction(1)})
    coll = HeavyCollection(blocks=(frozenset({0, 1, 2}),), overweight_count=1)
    report = check_facts_at_maximum(g, triple_params(), coll, designated=(3, 4, 5))
    kinds = [v.kind for v in report.violations]
    assert kinds == ["uncovered-overweight-edge"]
    assert report.violations[0].witness == (4, 5)


def test_structure_checks_flag_split_attachment():
    g = WeightedCompleteGraph(6, {(0, 1): Fraction(1), (0, 3): Fraction(1), (1, 4): Fraction(1)})
    coll = HeavyCollection(blocks=(frozenset({0, 1, 2}),), overweight_count=1)
    report = check_facts_at_maximum(g, triple_params(), coll, designated=(3, 4, 5))
    kinds = [v.kind for v in report.violations]
    assert kinds == ["attachment-not-unique"]


def test_structure_checks_inspect_saturated_blocks():
    g = WeightedCompleteGraph(6, {
        (0, 3): Fraction(1),
        (0, 4): Fraction(1),
        (1, 2): Fraction(1),
    })
    coll = HeavyCollection(blocks=(frozenset({0, 1, 2}),), overweight_count=1)
    report = check_facts_at_maximum(g, triple_params(), coll, designated=(3, 4, 5))
    assert report.saturated_blocks == ((0, 1, 2),)
    assert report.anchors == (((0, 1, 2), 0),)
    assert report.spare_vertices == frozenset({1, 2})
    kinds = sorted(v.kind for v in report.violations)
    # the overweight spare pair (1, 2) alone lifts every designated vertex to
    # the bar, so the spare-side check fires once per designated vertex too
    assert kinds == [
        "heavy-block-on-spares",
        "heavy-block-on-spares",
        "heavy-block-on-spares",
        "saturated-anchor-edge-not-overweight",
        "saturated-anchor-edge-not-overweight",
        "saturated-anchor-misses-overweight-edge",
    ]


def test_structure_checks_accept_a_clean_saturated_block():
    g = WeightedCompleteGraph(6, {
        (0, 3): Fraction(1),
        (0, 4): Fraction(1),
        (0, 1): Fraction(1),
        (0, 2): Fraction(1),
    })
    report = check_facts_at_maximum(
        g, triple_params(),
        HeavyCollection(blocks=(frozenset({0, 1, 2}),), overweight_count=2),
        designated=(3, 4, 5),
    )
    assert report.ok
    assert report.saturated_blocks == ((0, 1, 2),)


def test_structure_checks_flag_spare_double_overweight():
    g = WeightedCompleteGraph(9, {
        (0, 6): Fraction(1), (0, 7): Fraction(1),   # saturate {0,1,2} at anchor 0
        (0, 1): Fraction(1), (0, 2): Fraction(1),   # anchor edges overweight
        (3, 4): Fraction(1),                        # make {3,4,5} heavy
        (1, 3): Fraction(1), (1, 4): Fraction(1),   # spare 1 double-hits it
    })
    coll = HeavyCollection(
        blocks=(frozenset({0, 1, 2}), frozenset({3, 4, 5})), overweight_count=3,
    )
    report = check_facts_at_maximum(g, triple_params(), coll, designated=(6, 7, 8))
    kinds = [v.kind for v in report.violations]
    assert kinds == ["spare-double-overweight"]
    assert report.violations[0].witness[0] == 1


def test_structure_checks_flag_heavy_blocks_on_spares():
    g = WeightedCompleteGraph(6, {
        (0, 3): Fraction(1), (0, 4): Fraction(1),
        (0, 1): Fraction(1), (0, 2): Fraction(1),
        (1, 3): Fraction(1, 2), (2, 3): Fraction(1, 2),
    })
    coll = HeavyCollection(blocks=(frozenset({0, 1, 2}),), overweight_count=2)
    report = check_facts_at_maximum(g, triple_params(), coll, designated=(3, 4, 5))
    kinds = [v.kind for v in report.violations]
    assert kinds == ["heavy-block-on-spares"]
    assert report.violations[0].witness == (3, 1, 2)


def test_structure_checks_guard_their_preconditions():
    ones = WeightedCompleteGraph.constant(6, Fraction(1))
    params = FactorParams(r=3, t=Fraction(1))
    good = HeavyCollection(blocks=(frozenset({0, 1, 2}),), overweight_count=0)
    with pytest.raises(ValueError):  # block not heavy
        check_facts_at_maximum(
            WeightedCompleteGraph.constant(6, Fraction(0)), params, good, (3, 4, 5)
        )
    with pytest.raises(ValueError):  # too few uncovered vertices
        check_facts_at_maximum(
            ones, params,
            HeavyCollection(blocks=(frozenset({0, 1, 2}), frozenset({3, 4, 5})), overweight_count=0),
            (0, 1, 2),
        )
    with pytest.raises(ValueError):  # designated vertices must be uncovered
        check_facts_at_maximum(ones, params, good, (0, 3, 4))
    with pytest.raises(ValueError):  # designated set has the wrong size
        check_facts_at_maximum(ones, params, good, (3, 4))
    with pytest.raises(ValueError):  # overlapping blocks
        check_facts_at_maximum(
            ones, params,
            HeavyCollection(blocks=(frozenset({0, 1, 2}), frozenset({2, 3, 4})), overweight_count=0),
            (3, 4, 5),
        )


def test_structure_checks_pass_on_true_maxima_of_sparse_weightings():
    """Seeded sweep: genuine maxima with enough room never produce violations."""
    rng = Random(20250814)
    params = FactorParams(r=3, t=Fraction(1, 6))
    inspected = 0
    for _ in range(60):
        g = sparse_grid_graph(rng, 7, denominator=12, zero_prob=0.85)
        maxima = enumerate_maximum_heavy_collections(g, params)
        if any(c.size > 1 for c in maxima):
            continue  # fewer than r uncovered vertices remain
        from itertools import combinations as comb_iter

        for coll in maxima:
            uncovered = sorted(set(range(7)) - set(coll.covered))
            for designated in comb_iter(uncovered, 3):
                report = check_facts_at_maximum(g, params, coll, designated)
                assert report.ok, report.violations
                inspected += 1
    assert inspected > 50
