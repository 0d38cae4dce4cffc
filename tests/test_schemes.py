"""Base case, quotient lifting, randomized split scheme."""

import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb, log
from random import Random
from types import SimpleNamespace

import pytest

from heavyfactors import (
    BudgetExceededError,
    CertificationError,
    CliqueFactor,
    FactorParams,
    WeightedCompleteGraph,
    bipartite_threshold_matching,
    build_bipartite_average,
    find_heavy_factor,
    hs_sharpness_construction,
    is_heavy,
    matching_base_case,
    random_weighting,
    scheme1_lift,
    scheme1_quotient,
    scheme2_factor,
    scheme2_partition,
)
from heavyfactors import schemes

from conftest import (
    assert_fraction_path, eroded_graph, pair_table, random_grid_graph, random_grid_weights,
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
    quotient = scheme1_quotient(g, base)
    assert quotient.n == 2
    assert quotient.weight(0, 1) == Fraction(1, 2)


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
            assert_fraction_path(scheme1_quotient(g, base), q, table)


def test_quotient_of_a_constant_graph_is_constant():
    g = WeightedCompleteGraph.constant(8, Fraction(1, 3))
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    assert scheme1_quotient(g, base) == WeightedCompleteGraph.constant(4, Fraction(1, 3))


def test_quotient_validates_the_base_factor():
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    with pytest.raises(ValueError):
        scheme1_quotient(g, CliqueFactor.from_blocks([[0, 1], [2, 3]]))  # misses 4, 5
    with pytest.raises(ValueError):
        scheme1_quotient(g, CliqueFactor(blocks=()))


def test_quotient_refuses_singleton_blocks_with_the_block_shape_rule():
    """Blocks of one vertex fail `validate`'s r >= 2 check, the one home of that rule."""
    with pytest.raises(ValueError) as err:
        scheme1_quotient(WeightedCompleteGraph.constant(4, Fraction(1)),
                         CliqueFactor.from_blocks([[0], [1], [2], [3]]))
    assert str(err.value) == "need r >= 2, got r=1"


def test_quotient_degree_floor_on_random_graphs():
    """Averaged contraction keeps min degree above (delta - (p-1)) / p."""
    rng = Random(83)
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    for _ in range(15):
        g = random_grid_graph(rng, 8, denominator=5)
        quotient = scheme1_quotient(g, base)
        floor = (g.min_weighted_degree() - 1) / 2
        assert quotient.min_weighted_degree() >= floor


def test_lift_on_the_all_ones_graph():
    g = WeightedCompleteGraph.constant(8, Fraction(1))
    base = CliqueFactor.from_blocks([[0, 1], [2, 3], [4, 5], [6, 7]])
    qf = CliqueFactor.from_blocks([[0, 1], [2, 3]])
    lifted = scheme1_lift(g, base, qf)
    lifted.validate(8, 4)
    assert {g.clique_weight(b) for b in lifted.blocks} == {Fraction(6)}


def test_lift_on_a_constant_graph_scales_with_block_size():
    c = Fraction(1, 3)
    g = WeightedCompleteGraph.constant(12, c)
    base = CliqueFactor.from_blocks([[i, i + 1] for i in range(0, 12, 2)])
    qf = CliqueFactor.from_blocks([[0, 1, 2], [3, 4, 5]])
    lifted = scheme1_lift(g, base, qf)
    lifted.validate(12, 6)
    assert {g.clique_weight(b) for b in lifted.blocks} == {c * comb(6, 2)}


def test_lift_identity_holds_edge_exactly_on_random_graphs():
    rng = Random(89)
    base = CliqueFactor.from_blocks([[i, i + 1] for i in range(0, 8, 2)])
    qf = CliqueFactor.from_blocks([[0, 2], [1, 3]])
    for _ in range(15):
        g = random_grid_graph(rng, 8, denominator=6)
        lifted = scheme1_lift(g, base, qf)
        quotient = scheme1_quotient(g, base)
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
    assert Fraction(avg.numerators[0][0], avg.den) == Fraction(3, 4)   # clique {0,1} to vertex 4
    assert Fraction(avg.numerators[0][1], avg.den) == Fraction(0)
    assert Fraction(avg.numerators[1][1], avg.den) == Fraction(1, 8)


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


@pytest.mark.parametrize("cliques,vertices,message", [
    ([[0, 1], [2, 3]], [4, 4], "cliques and right side: repeats vertex 4"),
    ([[0, 1]], [-1], "cliques and right side: vertex -1 out of range for n=6"),
    ([[0, 1]], [9], "cliques and right side: vertex 9 out of range for n=6"),
    ([[0, 9]], [2], "cliques and right side: vertex 9 out of range for n=6"),
    ([[-1, 0]], [2], "cliques and right side: vertex -1 out of range for n=6"),
    ([[]], [2], "cliques must have at least one vertex"),
], ids=["duplicate-right", "negative-right", "right-past-n", "member-past-n", "negative-member", "empty-clique"])
def test_bipartite_average_rejects_vertices_outside_the_graph(cliques, vertices, message):
    """A repeated right vertex would join two blocks, and -1 would read vertex 5 of the rows."""
    g = WeightedCompleteGraph.constant(6, Fraction(1))
    with pytest.raises(ValueError, match=message):
        build_bipartite_average(g, cliques, vertices)


def test_bipartite_average_is_the_fraction_average():
    """Each numerator over `den` is the plain Fraction mean of the weights from the clique to the vertex."""
    rng = Random(71)
    for p, k in [(1, 3), (2, 4), (3, 2), (4, 3)]:
        n = (p + 1) * k
        g = random_grid_graph(rng, n, denominator=rng.randint(1, 9))
        perm = rng.sample(range(n), n)
        cliques, vertices = [perm[i * p:(i + 1) * p] for i in range(k)], perm[p * k:]
        avg = build_bipartite_average(g, cliques, vertices)
        assert avg.vertices == tuple(sorted(vertices))
        for i, c in enumerate(avg.cliques):
            for j, v in enumerate(avg.vertices):
                mean = sum((g.weight(u, v) for u in c), Fraction(0)) / p
                assert Fraction(avg.numerators[i][j], avg.den) == mean


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


def sample_takes_its_pool_branch(n, k):
    """`Random.sample(range(n), k)` keeps a pool list, not a set of picks: its test, with its set size."""
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    return n <= setsize


def test_split_draws_are_random_sample_draws():
    """For every n <= 60 and r = 2..6: each draw's A side, its B side and the rng state after it are sample's."""
    for n in range(2, 61):
        for r in range(2, 7):
            if n % r:
                continue
            size_a = (r - 1) * n // r
            assert sample_takes_its_pool_branch(n, size_a)
            rng, ref = Random(n * r), Random(n * r)
            draws = schemes._a_side_masks(rng, n, size_a)
            for _ in range(4):
                a_mask = next(draws)
                a_side = ref.sample(range(n), size_a)
                assert [v for v in range(n) if a_mask >> v & 1] == sorted(a_side), (n, r)
                assert [v for v in range(n) if not a_mask >> v & 1] == sorted(set(range(n)) - set(a_side))
                assert rng.getstate() == ref.getstate(), (n, r)


def feasible_reference(g, size_b, need_a, need_b):
    """The B sides `_meets_targets` accepts, one side at a time."""
    return {sum(1 << u for u in side) for side in combinations(range(g.n), size_b)
            if schemes._meets_targets(g.rows, g.degrees, side, need_a, need_b)}


def test_feasible_b_sides_are_the_sides_meeting_the_targets():
    """Packed fields decide what `_meets_targets` decides, on /4 and wide /997 grids.

    The needs run through nonpositive ones, a need_a above some vertex's
    degree, a need_b no vertex reaches, one past the fields' top bit, and
    random values below, where some sides pass and others fail.
    """
    rng = Random(29)
    outcomes = set()
    for n, r in ((4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 2), (12, 3), (12, 4)):
        for denominator in (4, 997):
            g = random_grid_graph(rng, n, denominator)
            degrees, size_b = g.degrees, n // r
            low, top = min(degrees), max(degrees)
            needs = [-3, 0, low, low + 1, top + 1, 2 * top + 1] + [rng.randint(0, top) for _ in range(3)]
            into_b = [rng.randint(0, d * size_b // (n - 1)) for d in degrees[:4]]
            pairs = [(a, b) for a in needs for b in needs]
            pairs += [(d - x, x) for d, x in zip(degrees, into_b)]  # what one vertex sends each way
            for need_a, need_b in pairs:
                got = schemes._feasible_b_sides(g.rows, degrees, size_b, need_a, need_b)
                assert got == feasible_reference(g, size_b, need_a, need_b), (n, r, need_a, need_b)
                outcomes.add(0 < len(got) < comb(n, size_b))
    assert outcomes == {False, True}


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
    draw_only = []  # n = 15..60, far more B sides than draws: targets at 3/4 and 9/10 of the min degree
    for n, r in ((15, 3), (16, 2), (20, 4), (24, 3), (30, 5), (36, 3), (40, 2), (48, 4), (60, 3), (60, 6)):
        for share in (Fraction(3, 4), Fraction(9, 10)):
            flat = random_grid_weights(rng, n, denominator=4)
            g = WeightedCompleteGraph.from_flat(n, flat)
            delta = share * g.min_weighted_degree()
            draw_only.append((g, pair_table(n, flat), r, n + r, delta * Fraction(r - 1, r), delta / r))
    outcomes = set()
    for g, table, r, seed, ta, tb in cases + draw_only:
        sides = comb(g.n, g.n // r)
        for attempts in ((sides - 1, sides) if sides <= 1000 else (30,)):
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


# A 16-vertex input on which scheme2 at r = 4, t = 1/2, seed 0 leaves its 12-vertex A side unfactored
FALLBACK_GRAPH = random_weighting(16, 20, 0, Fraction(17, 20))


def test_scheme2_falls_back_to_the_exact_solver_on_a_small_side(monkeypatch):
    """At r = 4 the recursion leaves the 12-vertex A side unfactored, and the exact search factors it."""
    calls = []

    def spy(graph, params, strict=False):
        cert = find_heavy_factor(graph, params, strict=strict)
        calls.append((graph.n, params.r, strict, cert.factor is not None))
        return cert

    monkeypatch.setattr(schemes, "find_heavy_factor", spy)
    params = FactorParams(r=4, t=Fraction(1, 2))
    factor = scheme2_factor(FALLBACK_GRAPH, params, seed=0, retries=2)
    assert calls == [(12, 3, False, True)]
    factor.validate(16, 4)
    assert all(is_heavy(FALLBACK_GRAPH, b, params) for b in factor.blocks)


def test_scheme2_runs_no_exact_search_behind_the_pair_base_case(monkeypatch):
    """At r = 3 the A side's pairs come from the exact base case, so a None there is final and no search follows."""
    searches = []

    def spy(graph, params, strict=False):
        searches.append((graph.n, params.r))
        return find_heavy_factor(graph, params, strict=strict)

    monkeypatch.setattr(schemes, "perfect_matching", lambda n, edges: None)
    monkeypatch.setattr(schemes, "find_heavy_factor", spy)
    g = WeightedCompleteGraph.constant(12, Fraction(1))
    assert scheme2_factor(g, FactorParams(r=3, t=Fraction(1, 2)), seed=1) is None
    assert searches == []


@pytest.mark.parametrize("graph,r,seed,failures,calls", [
    (WeightedCompleteGraph.constant(12, Fraction(1)), 3, 1, {"scheme2_factor": None}, ["scheme2_factor"] * 2),
    (FALLBACK_GRAPH, 4, 0, {"scheme2_factor": None, "find_heavy_factor": SimpleNamespace(factor=None)},
     ["scheme2_factor", "find_heavy_factor"] * 2),
    (WeightedCompleteGraph.constant(12, Fraction(1)), 3, 1, {"bipartite_threshold_matching": None},
     ["bipartite_threshold_matching"] * 2),
], ids=["sub-factor", "sub-factor-and-fallback", "merge"])
def test_scheme2_spends_one_retry_on_a_failed_sub_factor_or_merge(monkeypatch, graph, r, seed, failures, calls):
    """Each named step fails on its first call: a sub-factor None (at r = 4 also after the exact fallback), or a merge with no matching.

    The next retry returns a validated factor; with one retry the call returns None.
    """
    real = {name: getattr(schemes, name) for name in failures}
    params = FactorParams(r=r, t=Fraction(1, 2))

    def run(retries):
        seen = []
        for name, failure in failures.items():
            def spy(*args, name=name, failure=failure, **kwargs):
                seen.append(name)
                return failure if seen.count(name) == 1 else real[name](*args, **kwargs)
            monkeypatch.setattr(schemes, name, spy)
        return scheme2_factor(graph, params, seed=seed, retries=retries), seen

    factor, seen = run(2)
    assert seen == calls
    factor.validate(graph.n, r)
    assert all(is_heavy(graph, b, params) for b in factor.blocks)
    assert run(1) == (None, list(failures))


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
               key=lambda m: min(Fraction(avg.numerators[i][m[i]], avg.den) for i in range(k)))


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
    zero_quotient = WeightedCompleteGraph.constant(4, Fraction(0))
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
        "               key=lambda m: min(Fraction(avg.numerators[i][m[i]], avg.den) for i in range(k)))\n"
        "schemes.bipartite_threshold_matching = worst\n"
        "try:\n"
        "    schemes.scheme2_factor(g, FactorParams(3, Fraction(1, 2)), seed=0)\n"
        "except CertificationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

