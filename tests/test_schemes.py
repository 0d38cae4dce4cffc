"""Base case, quotient lifting, randomized split scheme, local search."""

import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from heavyfactors import (
    BudgetExceededError,
    CertificationError,
    CliqueFactor,
    FactorParams,
    QuotientGraph,
    WeightedCompleteGraph,
    bipartite_threshold_matching,
    build_bipartite_average,
    enumerate_maximum_heavy_collections,
    find_heavy_factor,
    hs_sharpness_construction,
    is_heavy,
    is_overweight_edge,
    local_search_heavy_collection,
    matching_base_case,
    prop2_construction,
    random_weighting,
    scheme1_lift,
    scheme1_quotient,
    scheme2_factor,
    scheme2_partition,
)
from heavyfactors import schemes

from conftest import (
    assert_fraction_path, eroded_graph, pair_table, random_grid_graph, random_grid_weights, sparse_grid_graph,
)


# ----------------------------------------------------------- pair base case


def test_base_case_on_the_all_ones_graph():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    factor = matching_base_case(g, Fraction(1))
    assert factor is not None
    factor.validate(6, 2)
    assert all(g.clique_weight(b) >= 1 for b in factor.blocks)


def test_base_case_detects_impossible_instances():
    g, _ = hs_sharpness_construction(2, 6)
    assert matching_base_case(g, Fraction(1)) is None
    zeros = WeightedCompleteGraph.constant(6, Fraction(0))
    assert matching_base_case(zeros, Fraction(1, 2)) is None
    assert matching_base_case(zeros, Fraction(0)) is not None
    with pytest.raises(ValueError):
        matching_base_case(WeightedCompleteGraph.constant(5, Fraction(1)), Fraction(1, 2))


def test_base_case_agrees_with_the_exact_solver():
    """A heavy 2-block factor is the same object as a level-t matching."""
    rng = Random(20250815)
    for trial in range(40):
        n = rng.choice([6, 8])
        g = random_grid_graph(rng, n, denominator=4)
        t = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
        from_matching = matching_base_case(g, t)
        cert = find_heavy_factor(g, FactorParams(r=2, t=t))
        assert (from_matching is not None) == (cert.factor is not None), f"trial {trial}"
        if from_matching is not None:
            assert all(g.clique_weight(b) >= t for b in from_matching.blocks)


# ------------------------------------------------------------ quotient view


def test_quotient_averages_cross_weights():
    g = WeightedCompleteGraph(4, {
        (0, 2): Fraction(1), (1, 2): Fraction(1),
        (0, 3): Fraction(0), (1, 3): Fraction(0),
        (0, 1): Fraction(1), (2, 3): Fraction(1),
    })
    base = CliqueFactor.from_blocks([[0, 1], [2, 3]])
    contraction = scheme1_quotient(g, base)
    assert contraction.graph.n == 2
    assert contraction.graph.weight(0, 1) == Fraction(1, 2)


def test_quotient_is_the_fraction_table():
    """Each quotient weight is the plain Fraction average of the p * p cross weights."""
    rng = Random(97)
    for p, q in [(2, 1), (2, 4), (3, 3), (4, 2)]:
        for _ in range(8):
            n = p * q
            g = random_grid_graph(rng, n, denominator=rng.randint(1, 9))
            perm = rng.sample(range(n), n)
            base = CliqueFactor.from_blocks([perm[k * p:(k + 1) * p] for k in range(q)])
            blocks = base.blocks
            table = {(a, b): sum((g.weight(u, v) for u in blocks[a] for v in blocks[b]), Fraction(0)) / (p * p)
                     for a, b in combinations(range(q), 2)}
            assert_fraction_path(scheme1_quotient(g, base).graph, q, table)


def test_quotient_of_a_constant_graph_is_constant():
    g = WeightedCompleteGraph.constant(8, Fraction(1, 3))
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    contraction = scheme1_quotient(g, base)
    assert contraction.graph == WeightedCompleteGraph.constant(4, Fraction(1, 3))


def test_quotient_validates_the_base_factor():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    with pytest.raises(ValueError):
        scheme1_quotient(g, CliqueFactor.from_blocks([[0, 1], [2, 3]]))  # misses 4, 5
    with pytest.raises(ValueError):
        scheme1_quotient(g, CliqueFactor(blocks=()))


def test_quotient_degree_floor_on_random_graphs():
    """Averaged contraction keeps min degree above (delta - (p-1)) / p."""
    rng = Random(83)
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    for _ in range(15):
        g = random_grid_graph(rng, 8, denominator=5)
        contraction = scheme1_quotient(g, base)
        floor = (g.min_weighted_degree() - 1) / 2
        assert contraction.graph.min_weighted_degree() >= floor


def test_lift_on_the_all_ones_graph():
    g = WeightedCompleteGraph.constant(8, Fraction(1))
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    qf = CliqueFactor.from_blocks([[0, 1], [2, 3]])
    lifted = scheme1_lift(g, base, qf)
    lifted.validate(8, 4)
    assert set(lifted.block_weights(g)) == {Fraction(6)}


def test_lift_on_a_constant_graph_scales_with_block_size():
    c = Fraction(1, 3)
    g = WeightedCompleteGraph.constant(12, c)
    base = CliqueFactor.from_blocks([[i, i + 1] for i in range(0, 12, 2)])
    qf = CliqueFactor.from_blocks([[0, 1, 2], [3, 4, 5]])
    lifted = scheme1_lift(g, base, qf)
    lifted.validate(12, 6)
    assert set(lifted.block_weights(g)) == {c * comb(6, 2)}


def test_lift_identity_holds_edge_exactly_on_random_graphs():
    rng = Random(89)
    base = CliqueFactor.from_blocks([[i, i + 1] for i in range(0, 8, 2)])
    qf = CliqueFactor.from_blocks([[0, 2], [1, 3]])
    for _ in range(15):
        g = random_grid_graph(rng, 8, denominator=6)
        lifted = scheme1_lift(g, base, qf)
        quotient = scheme1_quotient(g, base).graph
        for qblock in qf.blocks:
            members = frozenset().union(*(base.blocks[i] for i in qblock))
            internal = sum(g.clique_weight(base.blocks[i]) for i in qblock)
            across = sum(
                quotient.weight(a, b)
                for idx, a in enumerate(sorted(qblock))
                for b in sorted(qblock)[idx + 1:]
            )
            assert g.clique_weight(members) == internal + 4 * across
            assert members in set(lifted.blocks)


def test_lift_validates_the_quotient_factor():
    g = WeightedCompleteGraph.constant(8, Fraction(1))
    base = CliqueFactor.from_blocks([[i, i + 1] for i in range(0, 8, 2)])
    with pytest.raises(ValueError):
        scheme1_lift(g, base, CliqueFactor.from_blocks([[0, 1]]))  # misses 2, 3
    with pytest.raises(ValueError):
        scheme1_lift(g, base, CliqueFactor(blocks=()))


# ------------------------------------------------- averaged bipartite layer


def test_bipartite_average_weights():
    g = WeightedCompleteGraph(6, {
        (0, 4): Fraction(1), (1, 4): Fraction(1, 2),
        (2, 5): Fraction(1, 4),
    })
    avg = build_bipartite_average(g, [[0, 1], [2, 3]], [4, 5])
    assert avg.weights[0][0] == Fraction(3, 4)   # clique {0,1} to vertex 4
    assert avg.weights[0][1] == Fraction(0)
    assert avg.weights[1][1] == Fraction(1, 8)


def test_bipartite_average_validation():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    with pytest.raises(ValueError):
        build_bipartite_average(g, [], [0, 1])
    with pytest.raises(ValueError):
        build_bipartite_average(g, [[0, 1], [1, 2]], [4, 5])
    with pytest.raises(ValueError):
        build_bipartite_average(g, [[0, 1], [2]], [4, 5])
    with pytest.raises(ValueError):
        build_bipartite_average(g, [[0, 1]], [1, 3])


def test_threshold_matching_keeps_averages_at_or_above_t():
    g = WeightedCompleteGraph(6, {
        (0, 4): Fraction(1), (1, 4): Fraction(1),      # avg 1
        (0, 5): Fraction(1), (1, 5): Fraction(0),      # avg exactly 1/2
        (2, 4): Fraction(1), (3, 4): Fraction(1),      # avg 1
        (2, 5): Fraction(0), (3, 5): Fraction(0),      # avg 0
    })
    avg = build_bipartite_average(g, [[0, 1], [2, 3]], [4, 5])
    match = bipartite_threshold_matching(avg, Fraction(1, 2))
    # clique {2,3} can only take vertex 4, forcing {0,1} onto its boundary edge
    assert match == (1, 0)
    # above the boundary both cliques need vertex 4 and the matching dies
    assert bipartite_threshold_matching(avg, Fraction(3, 4)) is None
    with pytest.raises(ValueError):
        bipartite_threshold_matching(
            build_bipartite_average(g, [[0, 1]], [4, 5]), Fraction(1, 2)
        )


# ---------------------------------------------------------- randomized split


def test_partition_shape_and_determinism():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    a1, b1 = scheme2_partition(g, 3, seed=7, target_a=7, target_b=3)
    a2, b2 = scheme2_partition(g, 3, seed=7, target_a=7, target_b=3)
    assert (a1, b1) == (a2, b2)
    assert len(a1) == 8 and len(b1) == 4
    assert sorted(a1 + b1) == list(range(12))


def test_partition_matches_the_two_sided_degree_sums(monkeypatch):
    """Each split, or its BudgetExceededError, equals the plain draw loop's, summing edge by edge.

    The budgets sit on both sides of the gate where every B side is checked
    first (C(n, n/r) sides at most SPLIT_ATTEMPTS), so both the exact "no
    split" decision and the draws behind it are compared with the draws alone.
    """

    def reference(n, table, r, seed, ta, tb, attempts):
        def into(v, side):
            return sum((table[min(u, v), max(u, v)] for u in side if u != v), Fraction(0))

        rng = Random(seed)
        for _ in range(attempts):
            a_side = sorted(rng.sample(range(n), (r - 1) * n // r))
            b_side = [v for v in range(n) if v not in a_side]
            if all(into(v, a_side) >= ta and into(v, b_side) >= tb for v in range(n)):
                return tuple(a_side), tuple(b_side)
        return None

    def scheme2_targets(n, r):
        # scheme2_factor's targets at t = 1/2, epsilon = 1/10
        return Fraction(4, 5) * Fraction(r - 1, r) * n, Fraction(3, 4) * Fraction(n, r)

    rng = Random(11)
    cases = []  # (graph, pair table, r, seed, target_a, target_b)
    for trial in range(12):
        n = 6 if trial % 2 else 9
        flat = random_grid_weights(rng, n, denominator=4)
        ta = Fraction(rng.randint(0, 4 * n), 8) * Fraction(2, 3)
        tb = Fraction(rng.randint(0, 2 * n), 8) * Fraction(1, 3)
        cases.append((WeightedCompleteGraph.from_flat(n, flat), pair_table(n, flat), 3, trial, ta, tb))
    for trial in range(8):
        r = 3 + trial % 2
        g = eroded_graph(rng, 12, Fraction(48, 5))
        table = {(i, j): g.weight(i, j) for i, j in combinations(range(12), 2)}
        cases.append((g, table, r, trial, *scheme2_targets(12, r)))
    for n, r in ((6, 3), (9, 3), (8, 4), (12, 4)):
        # scheme2's targets, then two impossible ones: more than the n - 1 edges
        # at a vertex can carry into A, and n/r into B, where a B vertex has n/r - 1 partners
        for ta, tb in (scheme2_targets(n, r), (Fraction(n), Fraction(0)), (Fraction(0), Fraction(n, r))):
            flat = random_grid_weights(rng, n, denominator=4)
            cases.append((WeightedCompleteGraph.from_flat(n, flat), pair_table(n, flat),
                          r, len(cases), ta, tb))
    for n, r in ((6, 3), (8, 4)):
        for centre in (0, n - 1):
            # a star: every vertex reaches weight 1 into B exactly when B holds the centre
            flat = [Fraction(int(centre in pair)) for pair in combinations(range(n), 2)]
            cases.append((WeightedCompleteGraph.from_flat(n, flat), pair_table(n, flat),
                          r, centre, Fraction(0), Fraction(1)))
    outcomes = set()
    for g, table, r, seed, ta, tb in cases:
        sides = comb(g.n, g.n // r)
        for attempts in (sides - 1, sides):
            monkeypatch.setattr(schemes, "SPLIT_ATTEMPTS", attempts)
            try:
                got = scheme2_partition(g, r, seed, ta, tb)
            except BudgetExceededError:
                got = None
            assert got == reference(g.n, table, r, seed, ta, tb, attempts), (g.n, r, seed, attempts)
            outcomes.add((sides <= attempts, got is None))
    assert outcomes == {(gated, raised) for gated in (False, True) for raised in (False, True)}


@pytest.mark.parametrize("draw,r,seed,ta,tb,split", [
    ((1, 12, 12, 20), 3, 7, Fraction(27, 5), Fraction(12, 5),
     ((0, 1, 3, 6, 7, 8, 10, 11), (2, 4, 5, 9))),
    ((2, 9, 2, 7), 3, 11, Fraction(19, 7), Fraction(8, 7), ((0, 1, 2, 4, 7, 8), (3, 5, 6))),
    ((3, 24, 6, 12), 4, 3, Fraction(35, 3), Fraction(43, 12),
     ((0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 15, 16, 18, 20, 22, 23), (4, 12, 14, 17, 19, 21))),
])
def test_partition_splits_are_pinned(monkeypatch, draw, r, seed, ta, tb, split):
    """Splits as first recorded; each takes between 2 and 100 attempts.

    `draw` is (rng seed, n, low, d): every weight is uniform on low/d..d/d.
    """
    graph_seed, n, low, d = draw
    rng = Random(graph_seed)
    g = WeightedCompleteGraph.from_flat(
        n, [Fraction(rng.randint(low, d), d) for _ in range(n * (n - 1) // 2)])
    assert scheme2_partition(g, r, seed, ta, tb) == split
    monkeypatch.setattr(schemes, "SPLIT_ATTEMPTS", 1)
    with pytest.raises(BudgetExceededError):
        scheme2_partition(g, r, seed, ta, tb)


def test_partition_exhausts_its_budget_on_impossible_targets(monkeypatch):
    zeros = WeightedCompleteGraph.constant(12, Fraction(0))
    monkeypatch.setattr(schemes, "SPLIT_ATTEMPTS", 20)
    with pytest.raises(BudgetExceededError, match="after 20 attempts"):
        scheme2_partition(zeros, 3, seed=0, target_a=1, target_b=0)
    with pytest.raises(ValueError):
        scheme2_partition(zeros, 5, seed=0, target_a=0, target_b=0)


def test_scheme2_factors_the_all_ones_graph():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    params = FactorParams(r=3, t=Fraction(1, 2))
    factor = scheme2_factor(g, params, seed=1)
    assert factor is not None
    factor.validate(12, 3)
    assert all(is_heavy(g, b, params) for b in factor.blocks)


def test_scheme2_r2_delegates_to_the_base_case():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    factor = scheme2_factor(g, FactorParams(r=2, t=Fraction(1, 2)), seed=0)
    assert factor is not None
    factor.validate(6, 2)


def test_scheme2_returns_none_when_the_split_cannot_exist(monkeypatch):
    """Decided at the default budgets; every retry has the same targets, so one proof ends the call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return scheme2_partition(*args)

    monkeypatch.setattr(schemes, "scheme2_partition", counted)
    zeros = WeightedCompleteGraph.constant(12, Fraction(0))
    assert scheme2_factor(zeros, FactorParams(r=3, t=Fraction(1, 2)), seed=0) is None
    assert len(calls) == 1


def test_scheme2_with_no_retries_returns_none():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    assert scheme2_factor(g, FactorParams(r=3, t=Fraction(1, 2)), seed=0, retries=0) is None


def test_scheme2_falls_back_to_the_exact_solver_on_a_small_side(monkeypatch):
    """At r = 4 the recursion leaves the 12-vertex A side unfactored, and the exact search factors it."""
    calls = []

    def spy(graph, params, strict=False):
        cert = find_heavy_factor(graph, params, strict=strict)
        calls.append((graph.n, params.r, strict, cert.factor is not None))
        return cert

    monkeypatch.setattr(schemes, "find_heavy_factor", spy)
    g = random_weighting(16, 20, 0, Fraction(17, 20))
    params = FactorParams(r=4, t=Fraction(1, 2))
    factor = scheme2_factor(g, params, seed=0, retries=2)
    assert calls == [(12, 3, False, True)]
    factor.validate(16, 4)
    assert all(is_heavy(g, b, params) for b in factor.blocks)


def test_scheme2_is_deterministic_per_seed():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    params = FactorParams(r=3, t=Fraction(1, 3))
    assert scheme2_factor(g, params, seed=5) == scheme2_factor(g, params, seed=5)


def test_scheme2_soundness_on_dense_seeded_graphs():
    """Every returned factor re-verifies; None is tolerated, wrong blocks are not."""
    params = FactorParams(r=3, t=Fraction(1, 2))
    found = 0
    for seed in range(8):
        rng = Random(900 + seed)
        g = WeightedCompleteGraph.constant(12, Fraction(1))
        for _ in range(6):  # lower a few edges, staying clearly dense
            i = rng.randrange(12)
            j = rng.randrange(12)
            if i != j:
                g = g.with_weight(i, j, Fraction(3, 4))
        factor = scheme2_factor(g, params, seed=seed)
        if factor is not None:
            factor.validate(12, 3)
            assert all(is_heavy(g, b, params) for b in factor.blocks)
            found += 1
    assert found >= 4


def test_scheme2_validates_divisibility_and_epsilon():
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    with pytest.raises(ValueError):
        scheme2_factor(g, FactorParams(r=5, t=Fraction(1, 2)), seed=0)
    with pytest.raises(ValueError):
        scheme2_factor(g, FactorParams(r=3, t=Fraction(1, 2)), seed=0, epsilon=Fraction(-1, 10))


@pytest.mark.parametrize("r", [2, 3])
def test_scheme2_rejects_a_negative_retry_budget(r):
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    with pytest.raises(ValueError, match="retries must be nonnegative, got -1"):
        scheme2_factor(g, FactorParams(r=r, t=Fraction(1, 2)), seed=0, retries=-1)


@pytest.mark.parametrize("r", [2, 3])
def test_scheme2_rejects_a_negative_epsilon(r):
    """Checked before the r = 2 base case, so every r rejects it alike."""
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    with pytest.raises(ValueError, match="epsilon must be nonnegative, got -1/10"):
        scheme2_factor(g, FactorParams(r=r, t=Fraction(1, 2)), seed=0, epsilon=Fraction(-1, 10))


# Two edges at vertex 11 lowered to 1/5: the triple {0, 1, 11} weighs 7/5,
# under the bar 3/2 at r = 3, t = 1/2, yet scheme2 still splits and factors it.
LIGHT_TRIPLE_GRAPH = (WeightedCompleteGraph.constant(12, Fraction(1))
                      .with_weight(0, 11, Fraction(1, 5)).with_weight(1, 11, Fraction(1, 5)))


def worst_threshold_matching(avg, t):
    """A perfect matching that ignores t: the one whose lightest pair is lightest."""
    k = len(avg.cliques)
    return min(permutations(range(k)),
               key=lambda m: min(avg.weights[i][m[i]] for i in range(k)))


def test_scheme_checks_raise_certification_errors(monkeypatch):
    """Each checked scheme invariant raises once the step it guards is broken."""
    params = FactorParams(r=3, t=Fraction(1, 2))
    factor = scheme2_factor(LIGHT_TRIPLE_GRAPH, params, seed=0)
    assert factor is not None and all(is_heavy(LIGHT_TRIPLE_GRAPH, b, params) for b in factor.blocks)
    monkeypatch.setattr(schemes, "bipartite_threshold_matching", worst_threshold_matching)
    with pytest.raises(CertificationError, match="merge"):
        scheme2_factor(LIGHT_TRIPLE_GRAPH, params, seed=0)

    light_pair = WeightedCompleteGraph.constant(4, Fraction(1)).with_weight(0, 1, Fraction(0))
    monkeypatch.setattr(schemes, "perfect_matching", lambda n, edges: [(0, 1), (2, 3)])
    with pytest.raises(CertificationError, match="base case"):
        matching_base_case(light_pair, Fraction(1))

    g = WeightedCompleteGraph.constant(8, Fraction(1))
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    zero_quotient = QuotientGraph(base=base, graph=WeightedCompleteGraph.constant(4, Fraction(0)))
    monkeypatch.setattr(schemes, "scheme1_quotient", lambda graph, b: zero_quotient)
    with pytest.raises(CertificationError, match="lift identity"):
        scheme1_lift(g, base, CliqueFactor.from_blocks([[0, 1], [2, 3]]))


def test_scheme_checks_survive_optimized_mode():
    script = (
        "from fractions import Fraction\n"
        "from itertools import permutations\n"
        "from heavyfactors import CertificationError, FactorParams, WeightedCompleteGraph, schemes\n"
        "g = (WeightedCompleteGraph.constant(12, Fraction(1))\n"
        "     .with_weight(0, 11, Fraction(1, 5)).with_weight(1, 11, Fraction(1, 5)))\n"
        "def worst(avg, t):\n"
        "    k = len(avg.cliques)\n"
        "    return min(permutations(range(k)),\n"
        "               key=lambda m: min(avg.weights[i][m[i]] for i in range(k)))\n"
        "schemes.bipartite_threshold_matching = worst\n"
        "try:\n"
        "    schemes.scheme2_factor(g, FactorParams(3, Fraction(1, 2)), seed=0)\n"
        "except CertificationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------- local search


def test_local_search_factors_the_all_ones_graph():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    coll = local_search_heavy_collection(g, FactorParams(r=3, t=Fraction(1)), seed=0)
    assert coll.size == 2
    assert coll.covered == frozenset(range(6))


def test_local_search_returns_empty_on_the_zero_graph():
    zeros = WeightedCompleteGraph.constant(6, Fraction(0))
    coll = local_search_heavy_collection(zeros, FactorParams(r=3, t=Fraction(1, 2)), seed=0)
    assert coll.size == 0 and coll.overweight_count == 0


def test_local_search_swap_move_collects_overweight_edges():
    """The greedy first block misses both heavy edges; one swap fixes it.

    At bar 1 the heavy triples all contain vertex 0, so the maximum size is 1
    and the unique best block is {0, 1, 3} holding both overweight edges.
    The first add takes {0, 1, 2}; only the swap move can reach the optimum.
    """
    g = WeightedCompleteGraph(7, {
        (0, 1): Fraction(1),
        (0, 3): Fraction(1),
        (3, 4): Fraction(1, 2),
    })
    params = FactorParams(r=3, t=Fraction(1, 3))
    coll = local_search_heavy_collection(g, params, seed=0, restarts=1)
    assert coll.blocks == (frozenset({0, 1, 3}),)
    assert coll.overweight_count == 2
    exhaustive = enumerate_maximum_heavy_collections(g, params)
    assert coll in exhaustive


def test_local_search_never_beats_exhaustive_enumeration():
    rng = Random(20250816)
    params = FactorParams(r=3, t=Fraction(1, 4))
    for trial in range(25):
        g = random_grid_graph(rng, 8, denominator=4)
        maxima = enumerate_maximum_heavy_collections(g, params)
        best = maxima[0]
        best_key = (best.size, best.overweight_count)
        coll = local_search_heavy_collection(g, params, seed=trial)
        key = (coll.size, coll.overweight_count)
        assert key <= best_key, f"trial {trial}"
        if best.size > 0:
            assert coll.size > 0, "hill climbing always reaches a maximal family"
        for b in coll.blocks:
            assert is_heavy(g, b, params)


def test_local_search_is_deterministic_and_validates_restarts():
    rng = Random(101)
    g = random_grid_graph(rng, 8, denominator=4)
    params = FactorParams(r=3, t=Fraction(1, 2))
    a = local_search_heavy_collection(g, params, seed=3)
    b = local_search_heavy_collection(g, params, seed=3)
    assert a == b
    with pytest.raises(ValueError):
        local_search_heavy_collection(g, params, seed=0, restarts=0)


def plain_local_search(graph, params, seed, restarts):
    """The frozenset and Fraction hill-climb, kept as the reference for the mask climb.

    Same moves, visiting order and rng draws; returns (blocks, overweight count).
    """
    n = graph.n
    heavy = [frozenset(s) for s in combinations(range(n), params.r) if is_heavy(graph, s, params)]

    def block_owc(block):
        return sum(1 for e in combinations(sorted(block), 2) if is_overweight_edge(graph, e, params))

    def climb(blocks):
        while True:
            covered = set()
            for b in blocks:
                covered |= b
            uncovered = [v for v in range(n) if v not in covered]
            fit = next((s for s in heavy if not s & covered), None)
            if fit is not None:
                blocks.append(fit)
                continue
            swapped = False
            for bi in sorted(range(len(blocks)), key=lambda i: sorted(blocks[i])):
                old = blocks[bi]
                old_count = block_owc(old)
                for u in sorted(old):
                    for w in uncovered:
                        candidate = (old - {u}) | {w}
                        if params.admits(graph.clique_weight(candidate)) and block_owc(candidate) > old_count:
                            blocks[bi] = candidate
                            swapped = True
                            break
                    if swapped:
                        break
                if swapped:
                    break
            if not swapped:
                return blocks

    rng = Random(seed)
    best_blocks, best_key = [], (-1, -1)
    for restart in range(restarts):
        start = []
        if restart > 0:
            shuffled = list(heavy)
            rng.shuffle(shuffled)
            taken = set()
            for s in shuffled:
                if not taken & s:
                    start.append(s)
                    taken |= s
        blocks = climb(start)
        key = (len(blocks), sum(block_owc(b) for b in blocks))
        if key > best_key:
            best_blocks, best_key = blocks, key
    return sorted(best_blocks, key=sorted), best_key[1]


LOCAL_SEARCH_LEVELS = [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 6), Fraction(1, 4),
                       Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(4, 11), r=st.integers(2, 5),
       t=st.sampled_from(LOCAL_SEARCH_LEVELS), sparse=st.booleans(), restarts=st.integers(1, 4))
def test_local_search_matches_the_plain_climb(seed, n, r, t, sparse, restarts):
    """Blocks and overweight count as the plain climb, at t = 0 and at the bar t * C(r, 2) = 1."""
    rng = Random(seed)
    g = sparse_grid_graph(rng, n, denominator=6, zero_prob=0.4) if sparse else random_grid_graph(rng, n, 6)
    params = FactorParams(r=min(r, n), t=t)
    coll = local_search_heavy_collection(g, params, seed=seed, restarts=restarts)
    assert (list(coll.blocks), coll.overweight_count) == plain_local_search(g, params, seed, restarts)


@pytest.mark.parametrize("r,t,n", [(3, Fraction(1, 3), 9), (3, Fraction(1, 6), 10), (4, Fraction(1, 6), 9),
                                   (2, Fraction(1, 2), 8), (5, Fraction(1, 10), 11)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_search_matches_the_plain_climb_on_lowered_prop2(r, t, n, seed):
    rng = Random(seed)
    g, _ = prop2_construction(r, t, n - n % r)
    for i, j in rng.sample(list(g.pairs()), 4):
        g = g.with_weight(i, j, g.weight(i, j) * Fraction(rng.randint(0, 9), 10))
    params = FactorParams(r=r, t=t)
    for restarts in (1, 4):
        coll = local_search_heavy_collection(g, params, seed=seed, restarts=restarts)
        assert (list(coll.blocks), coll.overweight_count) == plain_local_search(g, params, seed, restarts)
