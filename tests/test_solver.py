"""Complete search, counting bounds, degree test, maximum collections."""

import gc
from contextlib import contextmanager
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
    lemma1_bound,
    prop2_construction,
    random_weighting,
    t_r_threshold,
)
from heavyfactors import solver
from heavyfactors.constructions import _sample_grid_floor
from heavyfactors.solver import (
    HeavyCollection,
    _heavy_family,
    _key_steps,
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
    with pytest.raises(CapExceededError, match="n=14 exceeds enumeration cap 12"):
        enumerate_all_factors(14, 2)
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
            oracle = any(
                all(is_heavy(g, b, params, strict) for b in blocks)
                for blocks in enumerate_all_factors(n, r)
            )
            cert = find_heavy_factor(g, params, strict=strict)
            assert (cert.factor is not None) == oracle, (
                f"trial {trial}: n={n} r={r} t={t} strict={strict}"
            )
            if cert.factor is not None:
                assert all(is_heavy(g, b, params, strict) for b in cert.factor.blocks)
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
    """The solver's search on the solver's family.

    Returns (heavy masks, chosen masks or None, node count, failed states,
    key steps).
    """
    masks, through, heavy = _heavy_family(graph, params, strict)
    steps = _key_steps(masks, through, heavy, params.r)
    chosen, failed = [], {}
    found, nodes = _search(0, 0, (1 << graph.n) - 1, masks, steps, through, heavy, chosen, failed)
    return heavy_masks(masks, heavy), (chosen if found else None), nodes, failed, steps


def plain_units(n, heavy_sets):
    """Each vertex's key unit, 1 << (start of its run), from a swap test per adjacent pair.

    v - 1 and v are twins when swapping them sends every set of `heavy_sets`
    (sorted vertex tuples) to one of them; each image is looked up in a set.
    """
    heavy = set(heavy_sets)
    units = [1]
    for v in range(1, n):
        swap = {v - 1: v, v: v - 1}
        twins = all(tuple(sorted(swap.get(x, x) for x in s)) in heavy for s in heavy)
        units.append(units[-1] if twins else 1 << v)
    return units


def weight_units(graph):
    """Each vertex's unit from the Fraction weight-twin test: v - 1 and v weigh alike to every other vertex."""
    n = graph.n
    units = [1]
    for v in range(1, n):
        twins = all(graph.weight(v - 1, x) == graph.weight(v, x) for x in range(n) if x not in (v - 1, v))
        units.append(units[-1] if twins else 1 << v)
    return units


def run_key(mask, units):
    """The sum of the units of the vertices of `mask`."""
    return sum(u for v, u in enumerate(units) if mask >> v & 1)


def assert_cache_is_invisible(graph, params, strict):
    """Same blocks and node count as the plain search over the per-vertex index, each mask decoded both ways."""
    n = graph.n

    def members(mask):
        return tuple(v for v in range(n) if mask >> v & 1)

    masks, chosen, nodes, _, _ = bitmap_search(graph, params, strict)
    assert all(_vertices(m) == members(m) for m in masks)
    blocks = None if chosen is None else [members(m) for m in chosen]
    assert (blocks, nodes) == plain_cover_search(n, [members(m) for m in masks])


def scaled_prop2(r, t, n):
    g, _ = prop2_construction(r, t, n)
    return g.scale(Fraction(999, 1000))


def jittered_prop2(r, t, n, rng):
    """Scaled prop2 with every edge times a random factor in 990..1000 / 1000: no two vertices weigh alike."""
    g = scaled_prop2(r, t, n)
    for i, j in g.pairs():
        g = g.with_weight(i, j, g.weight(i, j) * Fraction(rng.randint(990, 1000), 1000))
    return g


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
    """The set bits of the heavy bitmap are the Fraction build's sets on `table`, in order, and no bit lies past the index."""
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


# ----------------------------------------------- interval decisions of the walk


def graph_table(graph):
    """{(i, j): weight} read off the graph, for inputs built by the package's own samplers."""
    return {p: graph.weight(*p) for p in combinations(range(graph.n), 2)}


def plain_family(graph, params, strict):
    """`_heavy_family` with the heavy bitmap read off the Fraction reference, bit i for the i-th r-set."""
    heavy = set(plain_heavy_sets(graph.n, graph_table(graph), params, strict))
    bits = sum(1 << i for i, s in enumerate(combinations(range(graph.n), params.r)) if s in heavy)
    return _r_sets(graph.n, params.r) + (bits,)


@contextmanager
def recorded_walk():
    """The (start, k) of every prefix node the heavy-set walk enters, in the order entered.

    k is the number of vertices the node still picks from range(start, n).
    The walk recurses through the module's name, so the recorder sees every
    node.
    """
    nodes = []
    walk = solver._prefix_bits

    def recorded(rows, need, lightest, heaviest, start, k, total, gain):
        nodes.append((start, k))
        return walk(rows, need, lightest, heaviest, start, k, total, gain)

    solver._prefix_bits = recorded
    try:
        yield nodes
    finally:
        solver._prefix_bits = walk


def settled_levels(nodes):
    """The k of every node above k = 2 that settled its whole interval: the next node entered is not its child."""
    return {k for (_, k), (_, after) in zip(nodes, nodes[1:] + [(None, 0)]) if k > 2 and after != k - 1}


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_heavy_walk_settles_a_tie_at_the_root(r):
    """Every set of a constant-t graph weighs the bar exactly: one interval, decided at the root."""
    for n in range(r, 13):
        for t in [Fraction(0), Fraction(1, 5)] + LEVELS:
            graph = WeightedCompleteGraph.constant(n, t)
            params = FactorParams(r=r, t=t)
            for strict in (False, True):
                with recorded_walk() as nodes:
                    heavy = _heavy_family(graph, params, strict)[2]
                assert heavy == (0 if strict else (1 << comb(n, r)) - 1), (n, t, strict)
                assert nodes == [(0, r)], (n, t, strict)


def test_heavy_walk_on_fewer_vertices_than_a_set():
    """n < r: no set, no node entered; r = 2 at n = 2: the one edge."""
    for n in range(1, 7):
        for r in range(n + 1, 8):
            with recorded_walk() as nodes:
                masks, through, heavy = _heavy_family(WeightedCompleteGraph.constant(n, Fraction(1)),
                                                      FactorParams(r, Fraction(0)), strict=False)
            assert heavy == 0
            assert nodes == []
            assert (masks, through) == ((), (0,) * n)
    pair = WeightedCompleteGraph.from_flat(2, [Fraction(1, 2)])
    for t, strict, bit in [(Fraction(1, 2), False, 1), (Fraction(1, 2), True, 0), (Fraction(1, 3), True, 1),
                           (Fraction(2, 3), False, 0)]:
        assert _heavy_family(pair, FactorParams(2, t), strict)[2] == bit


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 14), r=st.integers(2, 5), t=st.sampled_from(LEVELS),
       offset=st.sampled_from([Fraction(-1, 3), Fraction(-1, 12), Fraction(0), Fraction(1, 12)]),
       denominator=st.sampled_from([3, 4, 12]))
def test_heavy_walk_matches_the_plain_build_on_grid_floor_samples(seed, n, r, t, offset, denominator):
    """`verify`'s sampler with every edge at or above a floor below, at or above t.

    From a floor at or above t every set meets the bar, and the walk
    decides them all at the root; strictly above t, also strictly.
    """
    floor = min(Fraction(1), max(Fraction(0), t + offset))
    graph = _sample_grid_floor(Random(seed), n, denominator, floor)
    params = FactorParams(r=r, t=t)
    assert_family_is_the_plain_one(graph, graph_table(graph), params)
    for strict in (False, True):
        with recorded_walk() as nodes:
            _heavy_family(graph, params, strict)
        if n >= r and (floor > t or floor == t and not strict):
            assert nodes == [(0, r)], strict


def two_class_blow_up(n, size, w_aa, w_ab, w_bb, order=None):
    """Class A of `size` vertices and class B of the rest, each pair weighing by its classes.

    A is range(size) unless `order` lists the vertices to put in A first.
    Returns the graph and its Fraction table.
    """
    order = list(range(n)) if order is None else order
    in_a = [False] * n
    for v in order[:size]:
        in_a[v] = True
    weight = {(True, True): w_aa, (True, False): w_ab, (False, True): w_ab, (False, False): w_bb}
    table = {(i, j): weight[in_a[i], in_a[j]] for i, j in combinations(range(n), 2)}
    return WeightedCompleteGraph(n, table), table


def type_weight(r, i, w_aa, w_ab, w_bb):
    """The weight of an r-set with i vertices in A."""
    return comb(i, 2) * w_aa + i * (r - i) * w_ab + comb(r - i, 2) * w_bb


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), r=st.integers(2, 5), extra=st.integers(0, 8),
       grid=st.lists(st.integers(0, 6), min_size=3, max_size=3), shuffled=st.booleans(), data=st.data())
def test_heavy_walk_matches_the_plain_build_on_tied_two_class_blow_ups(seed, r, extra, grid, shuffled, data):
    """t is set so that the sets of one class mix weigh the bar exactly, so some sets tie it."""
    n = r + 1 + extra
    size = data.draw(st.integers(1, n - 1))
    i = data.draw(st.integers(max(0, r - (n - size)), min(r, size)))
    w_aa, w_ab, w_bb = (Fraction(w, 6) for w in grid)
    t = type_weight(r, i, w_aa, w_ab, w_bb) / comb(r, 2)
    order = None
    if shuffled:
        order = list(range(n))
        Random(seed).shuffle(order)
    graph, table = two_class_blow_up(n, size, w_aa, w_ab, w_bb, order)
    params = FactorParams(r=r, t=t)
    assert any(sum(table[p] for p in combinations(s, 2)) == params.heavy_threshold
               for s in combinations(range(n), r))
    assert_family_is_the_plain_one(graph, table, params)


@pytest.mark.parametrize("r,n,size", [(4, 12, 5), (5, 13, 6), (6, 13, 6)])
@pytest.mark.parametrize("below", [1, 2, 3])
def test_heavy_walk_settles_intervals_at_every_level_of_a_two_class_blow_up(r, n, size, below):
    """A = range(size) with w(A, A) = 1, w(A, B) = 1/2, w(B, B) = 0; the sets with i = r - below vertices in A tie the bar.

    A set meets the bar exactly when at least i of its vertices lie in A.
    Once a prefix has passed A, the rest of its sets lie in B and its bounds
    meet; a prefix of i A-vertices (i + 1 when strict) settles too.  With i
    at least r - 3, prefixes of every size below i stay undecided, so
    prefixes settle at every level from r - 1 down to 3, and the walk enters
    fewer nodes than the C(n - r + j, j) prefixes of each size j that it
    would enter with no decision.
    """
    w_aa, w_ab, w_bb = Fraction(1), Fraction(1, 2), Fraction(0)
    t = type_weight(r, r - below, w_aa, w_ab, w_bb) / comb(r, 2)
    graph, table = two_class_blow_up(n, size, w_aa, w_ab, w_bb)
    params = FactorParams(r=r, t=t)
    assert_family_is_the_plain_one(graph, table, params)
    for strict in (False, True):
        with recorded_walk() as nodes:
            _heavy_family(graph, params, strict)
        assert settled_levels(nodes) == set(range(3, r)), strict
        assert len(nodes) < sum(comb(n - r + j, j) for j in range(r - 1)), strict


@pytest.mark.parametrize("graph,table,params", [
    (scaled_prop2(3, Fraction(2, 3), 24),
     {p: w * Fraction(999, 1000) for p, w in prop2_table(3, Fraction(2, 3), 24).items()}, FactorParams(3, Fraction(2, 3))),
    (scaled_prop2(4, Fraction(2, 3), 20),
     {p: w * Fraction(999, 1000) for p, w in prop2_table(4, Fraction(2, 3), 20).items()}, FactorParams(4, Fraction(2, 3))),
    (scaled_prop2(2, Fraction(1, 2), 22),
     {p: w * Fraction(999, 1000) for p, w in prop2_table(2, Fraction(1, 2), 22).items()}, FactorParams(2, Fraction(1, 2))),
    (prop2_construction(4, Fraction(1, 2), 20)[0], prop2_table(4, Fraction(1, 2), 20), FactorParams(4, Fraction(1, 2))),
    (hs_sharpness_construction(3, 21)[0], None, FactorParams(3, Fraction(1))),
    (hs_sharpness_construction(3, 24)[0], None, FactorParams(3, Fraction(2, 3))),
    (hs_sharpness_construction(4, 20)[0], None, FactorParams(4, Fraction(1))),
    (hs_sharpness_construction(4, 20)[0], None, FactorParams(4, Fraction(3, 4))),
], ids=["prop2-r3-n24", "prop2-r4-n20", "prop2-r2-n22", "prop2-unscaled-r4-n20", "hs-r3-n21", "hs-r3-n24-t2/3",
        "hs-r4-n20", "hs-r4-n20-t3/4"])
def test_heavy_walk_matches_the_plain_build_on_large_extremal_inputs(graph, table, params):
    """Scaled prop2 with its table written out here; hs with its 0/1 weights read off the graph."""
    assert_family_is_the_plain_one(graph, graph_table(graph) if table is None else table, params)


@contextmanager
def plain_bitmap_in_the_solver():
    """The solver with its heavy-set walk replaced by the Fraction reference's bitmap."""
    family = solver._heavy_family
    solver._heavy_family = plain_family
    try:
        yield
    finally:
        solver._heavy_family = family


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(3, 9), r=st.integers(2, 4), t=st.sampled_from(LEVELS),
       tied=st.booleans(), offset=st.sampled_from([Fraction(-1, 3), Fraction(-1, 12), Fraction(0)]))
def test_collections_are_the_ones_the_plain_flags_give(seed, n, r, t, tied, offset):
    """The maximum-collection enumerator reads the walk's bitmap; the plain bitmap gives the same collections.

    The inputs are grid-floor samples and tied two-class blow-ups at n <= 9;
    a tie needs r <= n, so below that the input is a grid-floor sample.
    """
    rng = Random(seed)
    if tied and r <= n:
        size = rng.randint(1, n - 1)
        grid = [Fraction(rng.randint(0, 6), 6) for _ in range(3)]
        i = rng.randint(max(0, r - (n - size)), min(r, size))
        t = type_weight(r, i, *grid) / comb(r, 2)
        graph, _ = two_class_blow_up(n, size, *grid)
    else:
        graph = _sample_grid_floor(rng, n, 12, min(Fraction(1), max(Fraction(0), t + offset)))
    params = FactorParams(r=r, t=t)
    walked = enumerate_maximum_heavy_collections(graph, params)
    with plain_bitmap_in_the_solver():
        plain = enumerate_maximum_heavy_collections(graph, params)
    assert walked == plain


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
    """Same blocks and node count as the list-based cached search, and its failed states under the run key.

    The steps must be the plain ones of the family searched.  The reference
    memoises exact covered masks.  Mapped through the run key they must give
    exactly the solver's failed states, and every exact state under one key
    must carry that key's count.  When the steps are the masks, the two memos
    are the same dict.
    """
    n = graph.n
    masks, chosen, nodes, failed, steps = bitmap_search(graph, params, strict)
    ref_chosen, ref_nodes, ref_failed = list_cached_search(n, masks)
    assert (chosen, nodes) == (ref_chosen, ref_nodes)
    sets = [tuple(v for v in range(n) if m >> v & 1) for m in masks]
    units = assert_steps_are_the_plain_ones(n, params.r, sets, steps)
    keyed = {}
    for state, count in ref_failed.items():
        assert keyed.setdefault(run_key(state, units), count) == count
    assert keyed == failed
    if steps is _r_sets(n, params.r)[0]:
        assert failed == ref_failed


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
    (scaled_prop2(3, Fraction(2, 3), 24), FactorParams(3, Fraction(2, 3)), True, 35_942_667_167),
    (scaled_prop2(3, Fraction(2, 3), 27), FactorParams(3, Fraction(2, 3)), True, 5_230_752_492_593),
    (scaled_prop2(4, Fraction(2, 3), 24), FactorParams(4, Fraction(2, 3)), True, 75_418_405_646),
    (scaled_prop2(5, Fraction(2, 3), 20), FactorParams(5, Fraction(2, 3)), True, 42_350_297),
    (hs_sharpness_construction(3, 30)[0], FactorParams(3, Fraction(1)), False, 2_094_580_743_211),
    (jittered_prop2(3, Fraction(2, 3), 24, Random(1)), FactorParams(3, Fraction(2, 3)), True, 35_942_667_167),
], ids=["prop2-r3-n18-strict", "prop2-r4-n16-strict", "hs-r3-n18", "prop2-r3-n24-strict",
        "prop2-r3-n27-strict", "prop2-r4-n24-strict", "prop2-r5-n20-strict", "hs-r3-n30",
        "prop2-jittered-r3-n24-strict"])
def test_node_counts_of_large_exhaustions_are_pinned(graph, params, strict, nodes):
    """Counts of the plain search tree.

    The first three were recorded before the cache existed, the next five
    with the exact-mask memo, before the memo was keyed by runs of twins,
    and the jittered prop2 with the memo keyed by runs of weight twins,
    which are single vertices there.
    """
    cert = find_heavy_factor(graph, params, strict=strict)
    assert cert.outcome == "exhausted"
    assert cert.nodes_explored == nodes


def planted_twins(rng, n, classes, lowered, t):
    """A blow-up of a random class matrix on `classes` classes of random sizes, vertices shuffled, `lowered` edges lowered.

    The matrix entries lie within 1/4 of t, so heavy and light sets mix.
    The classes are not index intervals, so some runs of twins are cut and
    some vertices are twins of a vertex that is not their neighbour.
    """
    matrix = {}
    for a in range(classes):
        for b in range(a, classes):
            matrix[a, b] = min(Fraction(1), max(Fraction(0), t + Fraction(rng.randint(-2, 2), 8)))
    cuts = sorted(rng.sample(range(1, n), classes - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(cls)
    flat = [matrix[min(cls[i], cls[j]), max(cls[i], cls[j])] for i, j in combinations(range(n), 2)]
    return lower_edges(WeightedCompleteGraph.from_flat(n, flat), rng, lowered)


def key_steps(graph, params, strict):
    """The solver's key steps for the graph's heavy family."""
    return _key_steps(*_heavy_family(graph, params, strict), params.r)


def assert_steps_are_the_plain_ones(n, r, sets, steps):
    """Each r-set's step is the sum of its vertices' units from the swap test on the heavy `sets`.

    Returns the units.  Without twins, and for a complete or an empty family,
    the steps are the masks themselves, the same object.
    """
    masks = _r_sets(n, r)[0]
    units = plain_units(n, sets)
    if units == [1 << v for v in range(n)] or len(sets) in (0, len(masks)):
        assert steps is masks
    else:
        assert list(steps) == [run_key(m, units) for m in masks]
    return units


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(6, 3), (9, 3), (12, 3), (8, 2), (10, 2), (8, 4),
                                                           (12, 4), (10, 5), (12, 6)]),
       classes=st.integers(2, 4), lowered=st.integers(0, 4), t=st.sampled_from(LEVELS), strict=st.booleans())
def test_run_keyed_search_matches_the_plain_search_on_planted_twins(seed, box, classes, lowered, t, strict):
    n, r = box
    g = planted_twins(Random(seed), n, classes, lowered, t)
    params = FactorParams(r=r, t=t)
    assert_steps_are_the_plain_ones(n, r, plain_heavy_sets(n, graph_table(g), params, strict),
                                    key_steps(g, params, strict))
    assert_cache_is_invisible(g, params, strict)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(15, 3), (15, 5), (16, 4), (18, 3), (18, 6), (16, 2)]),
       classes=st.integers(2, 4), lowered=st.integers(0, 4), t=st.sampled_from(LEVELS), strict=st.booleans())
def test_run_keyed_search_matches_the_list_search_on_planted_twins(seed, box, classes, lowered, t, strict):
    n, r = box
    g = planted_twins(Random(seed), n, classes, lowered, t)
    assert_bitmaps_are_the_lists(g, FactorParams(r=r, t=t), strict)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), box=st.sampled_from([(3, 9), (3, 12), (3, 15), (4, 12), (5, 10), (5, 15)]),
       jitter=st.booleans(), strict=st.booleans())
def test_heavy_runs_are_coarser_than_weight_runs_on_perturbed_prop2(seed, box, jitter, strict):
    """Scaled prop2 at n = 9-15 with every edge jittered, or with 2-6 edges lowered.

    The search matches the list search.  Vertices that weigh alike are twins
    of the heavy family, so its runs give at most as many distinct steps as
    the runs of weight twins.  The jitter leaves no two vertices weighing
    alike and keeps prop2's family, so there the steps are fewer, as they
    are after a lowering that keeps the family.
    """
    r, n = box
    params = FactorParams(r, Fraction(2, 3))
    plain = scaled_prop2(r, Fraction(2, 3), n)
    rng = Random(seed)
    g = jittered_prop2(r, Fraction(2, 3), n, rng) if jitter else lower_edges(plain, rng, rng.randint(2, 6))
    assert_bitmaps_are_the_lists(g, params, strict)
    units = weight_units(g)
    by_weight = len({run_key(m, units) for m in _r_sets(n, r)[0]})
    by_heavy = len(set(key_steps(g, params, strict)))
    same = _heavy_family(g, params, strict)[2] == _heavy_family(plain, params, strict)[2]
    assert same or not jitter
    assert by_heavy < by_weight if same else by_heavy <= by_weight


def test_moved_sets_lie_a_binomial_shift_before_their_images():
    """Every n <= 12, r, v and k: the swap of v - 1 and v sends the i-th r-set to the (i + C(n - v - 1, r - k))-th.

    This holds for each set through v - 1 and not v with k vertices in
    range(v), the sets `_key_steps` compares with their images by one shift.
    """
    for n in range(2, 13):
        for r in range(2, n + 1):
            masks = _r_sets(n, r)[0]
            index = {m: i for i, m in enumerate(masks)}
            for v in range(1, n):
                for i, m in enumerate(masks):
                    if m >> (v - 1) & 1 and not m >> v & 1:
                        k = (m & (1 << v) - 1).bit_count()
                        assert index[m ^ 3 << (v - 1)] == i + comb(n - v - 1, r - k), (n, r, v, m)


def test_key_steps_on_extremal_and_twin_free_graphs():
    """prop2's classes are two runs; a twin-free family, and a complete or an empty one, get the masks back, the same object.

    A family that one run covers is kept by every permutation, so it is
    complete or empty, and its search meets no failed state twice.
    """
    g, params = scaled_prop2(3, Fraction(2, 3), 9), FactorParams(3, Fraction(2, 3))
    sets = plain_heavy_sets(9, graph_table(g), params, True)
    units = assert_steps_are_the_plain_ones(9, 3, sets, key_steps(g, params, True))
    assert units == weight_units(g) == [1, 1, 4, 4, 4, 4, 4, 4, 4]
    masks = _r_sets(6, 3)[0]
    twin_free, half = random_grid_graph(Random(1), 6), FactorParams(3, Fraction(1, 2))
    assert 0 < _heavy_family(twin_free, half, False)[2].bit_count() < len(masks)
    assert key_steps(twin_free, half, False) is masks
    sets = plain_heavy_sets(6, graph_table(twin_free), half, False)
    assert assert_steps_are_the_plain_ones(6, 3, sets, masks) == [1 << v for v in range(6)]
    constant = WeightedCompleteGraph.constant(6, Fraction(1, 2))
    assert weight_units(constant) == [1] * 6
    for strict in (False, True):
        assert key_steps(constant, half, strict) is masks
        assert_steps_are_the_plain_ones(6, 3, plain_heavy_sets(6, graph_table(constant), half, strict), masks)


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
        "heavy-set walk": lambda: _heavy_family(scaled_prop2(5, Fraction(2, 3), 15), FactorParams(5, Fraction(2, 3)),
                                                strict=True),
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


@pytest.mark.parametrize("r", [2, 0])
def test_the_counting_bound_and_its_level_refuse_r_below_three_alike(r):
    with pytest.raises(ValueError) as bound:
        lemma1_bound(Fraction(1, 2), Fraction(1, 4), r, 9)
    with pytest.raises(ValueError) as level:
        t_r_threshold(r)
    assert str(bound.value) == str(level.value) == f"the counting bound needs r >= 3, got r={r}"


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
        assert frozenset().union(*coll.blocks) == frozenset(range(6))
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
    maxima = enumerate_maximum_heavy_collections(s, FactorParams(r=3, t=Fraction(2, 3)))
    assert len(maxima) == 210
    for coll in maxima:
        assert coll.size == 2
        # each block must grab one clique-side vertex
        assert all(b & {0, 1} for b in coll.blocks)


def test_maximum_collections_cap():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    with pytest.raises(CapExceededError):
        enumerate_maximum_heavy_collections(g, FactorParams(r=3, t=Fraction(1)))


@pytest.mark.parametrize("n,weights,maximum", [
    (6, {(0, 1): Fraction(1), (3, 4): Fraction(1, 2), (3, 5): Fraction(1, 2), (4, 5): Fraction(1, 2)},
     HeavyCollection((frozenset({0, 1, 2}), frozenset({3, 4, 5})), 1)),
    (7, {(0, 1): Fraction(1), (0, 3): Fraction(1), (3, 4): Fraction(1, 2)},
     HeavyCollection((frozenset({0, 1, 3}),), 2)),
], ids=["two-halves", "one-block"])
def test_secondary_objective_prefers_overweight_edges_inside_blocks(n, weights, maximum):
    """Among the collections of largest size, the unique maximum holds the most overweight edges.

    At r = 3, t = 1/3 the bar is 1, and an edge of weight 1 is overweight.
    On six vertices {0,1,2} and {3,4,5} are the only disjoint pair of heavy
    triples, and the maximum keeps the (0,1) edge inside a block.  On seven
    vertices every heavy triple contains vertex 0, so the maximum size is 1,
    and of the heavy triples only {0,1,3} holds both overweight edges; the
    first heavy triple in lexicographic order, {0,1,2}, holds one.
    """
    g = WeightedCompleteGraph(n, weights)
    assert enumerate_maximum_heavy_collections(g, FactorParams(r=3, t=Fraction(1, 3))) == [maximum]


def plain_maximum_collections(graph, params):
    """Every packing of disjoint heavy r-sets, as frozensets under the Fraction predicates, keeping the best keys.

    Kept as the reference for the mask enumerator: the key is (size, overweight edges inside the blocks).
    """
    heavy = [frozenset(s) for s in combinations(range(graph.n), params.r) if is_heavy(graph, s, params)]

    def packings(start, covered, chosen):
        yield chosen
        for i in range(start, len(heavy)):
            if not heavy[i] & covered:
                yield from packings(i + 1, covered | heavy[i], chosen + (heavy[i],))

    def overweight_inside(blocks):
        return sum(is_overweight_edge(graph, e, params) for b in blocks for e in combinations(sorted(b), 2))

    keyed = [((len(blocks), overweight_inside(blocks)), blocks) for blocks in packings(0, frozenset(), ())]
    best = max(key for key, _ in keyed)
    return sorted((HeavyCollection.from_blocks(blocks, best[1]) for key, blocks in keyed if key == best),
                  key=lambda c: [sorted(b) for b in c.blocks])


COLLECTION_LEVELS = [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 6), Fraction(1, 4),
                     Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(4, 9), r=st.integers(2, 5),
       t=st.sampled_from(COLLECTION_LEVELS), sparse=st.booleans())
def test_maximum_collections_match_the_plain_packings(seed, n, r, t, sparse):
    """The same maxima, in the same order, as the plain packings give, at t = 0 and at the bar t * C(r, 2) = 1."""
    rng = Random(seed)
    g = sparse_grid_graph(rng, n, denominator=6, zero_prob=0.4) if sparse else random_grid_graph(rng, n, 6)
    params = FactorParams(r=min(r, n), t=t)
    assert enumerate_maximum_heavy_collections(g, params) == plain_maximum_collections(g, params)


@pytest.mark.parametrize("r,t,n", [(3, Fraction(1, 3), 9), (3, Fraction(1, 6), 10), (4, Fraction(1, 6), 9),
                                   (2, Fraction(1, 2), 8), (5, Fraction(1, 10), 11)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximum_collections_match_the_plain_packings_on_lowered_prop2(r, t, n, seed):
    """Four edges of the two-class weighting lowered by k/10: up to 180 maxima, all tied in size and overweight count."""
    rng = Random(seed)
    g, _ = prop2_construction(r, t, n - n % r)
    for i, j in rng.sample(list(g.pairs()), 4):
        g = g.with_weight(i, j, g.weight(i, j) * Fraction(rng.randint(0, 9), 10))
    params = FactorParams(r=r, t=t)
    assert enumerate_maximum_heavy_collections(g, params) == plain_maximum_collections(g, params)


def test_maximum_collections_are_maximal_packings_of_one_key():
    """Each maximum is a packing of heavy r-sets that no heavy r-set extends, and all maxima share one key."""
    rng = Random(20250816)
    params = FactorParams(r=3, t=Fraction(1, 4))
    for trial in range(25):
        g = random_grid_graph(rng, 8, denominator=4)
        maxima = enumerate_maximum_heavy_collections(g, params)
        assert maxima and len(set(maxima)) == len(maxima), f"trial {trial}"
        assert len({(c.size, c.overweight_count) for c in maxima}) == 1, f"trial {trial}"
        for coll in maxima:
            covered = frozenset().union(*coll.blocks)
            assert len(covered) == 3 * coll.size
            assert all(is_heavy(g, b, params) for b in coll.blocks)
            assert not any(is_heavy(g, s, params) for s in combinations(sorted(set(range(8)) - covered), 3))


# ------------------------------------------------------- structure checking


def triple_params():
    return FactorParams(r=3, t=Fraction(1, 3))  # bar = 1


def test_structure_checks_pass_on_a_trivially_clean_maximum():
    zeros = WeightedCompleteGraph.constant(6, Fraction(0))
    params = FactorParams(r=3, t=Fraction(1, 2))
    coll = HeavyCollection(blocks=(), overweight_count=0)
    report = check_facts_at_maximum(zeros, params, coll, designated=(0, 1, 2))
    assert report.ok
    assert tuple(b for b, _ in report.anchors) == () and report.spare_vertices == frozenset()


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
    assert tuple(b for b, _ in report.anchors) == ((0, 1, 2),)
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
    assert tuple(b for b, _ in report.anchors) == ((0, 1, 2),)


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
            uncovered = sorted(set(range(7)) - set().union(*coll.blocks))
            for designated in comb_iter(uncovered, 3):
                report = check_facts_at_maximum(g, params, coll, designated)
                assert report.ok, report.violations
                inspected += 1
    assert inspected > 50
