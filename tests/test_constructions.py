"""Deterministic extremal weightings and the seeded grid sampler."""

from fractions import Fraction
from math import comb

import json

import pytest
from hypothesis import given, settings, strategies as st

import heavyfactors
from heavyfactors import (
    BudgetExceededError,
    ConstructionDescriptor,
    FactorParams,
    build,
    dumps_canonical,
    counterexample_29_36,
    enumerate_all_factors,
    hs_sharpness_construction,
    hs_sharpness_parts,
    is_heavy,
    is_strictly_heavy,
    prop2_construction,
    prop2_min_degree,
    random_weighting,
    rebuild,
)
from heavyfactors.constructions import KIND_COUNTEREXAMPLE, KIND_HS, KIND_PROP2, KIND_RANDOM


# ------------------------------------------------------ two-class weighting


def test_prop2_shape_and_min_degree_at_3_23_9():
    g, desc = prop2_construction(3, Fraction(2, 3), 9)
    assert desc.partition["A"] == (0, 1)
    assert desc.partition["B"] == tuple(range(2, 9))
    # clique side sees everything at weight 1
    assert all(g.weight(0, j) == 1 for j in range(1, 9))
    assert g.weight(3, 7) == Fraction(2, 3)
    assert g.min_weighted_degree() == 6
    assert g.weighted_degree(0) == 8
    assert g.weighted_degree(8) == 6


@pytest.mark.parametrize(
    "r,t,n,expected",
    [
        (3, Fraction(2, 3), 9, Fraction(6)),
        (2, Fraction(1, 2), 8, Fraction(5)),
        (3, Fraction(1, 4), 6, Fraction(2)),
        (4, Fraction(1, 2), 8, Fraction(4)),
        (3, Fraction(1), 6, Fraction(5)),  # the n - 1 arm of the minimum
        (3, Fraction(0), 9, Fraction(2)),
    ],
)
def test_prop2_min_degree_closed_form_matches_the_graph(r, t, n, expected):
    g, _ = prop2_construction(r, t, n)
    assert prop2_min_degree(r, t, n) == expected
    assert g.min_weighted_degree() == expected


def test_prop2_blocks_inside_b_sit_exactly_on_the_boundary():
    t = Fraction(2, 3)
    g, desc = prop2_construction(3, t, 9)
    params = FactorParams(r=3, t=t)
    b = desc.partition["B"]
    for i in range(len(b) - 2):
        triple = (b[i], b[i + 1], b[i + 2])
        assert g.clique_weight(triple) == params.heavy_threshold
        assert is_heavy(g, triple, params)
        assert not is_strictly_heavy(g, triple, params)


def test_prop2_pigeonhole_every_factor_has_a_block_inside_b():
    """n/r blocks but only n/r - 1 vertices outside B, checked exhaustively."""
    t = Fraction(2, 3)
    g, desc = prop2_construction(3, t, 9)
    params = FactorParams(r=3, t=t)
    a = set(desc.partition["A"])
    count = 0
    for blocks in enumerate_all_factors(9, 3):
        count += 1
        inside_b = [blk for blk in blocks if not (set(blk) & a)]
        assert inside_b, "some block must avoid the two clique-side vertices"
        assert all(not is_strictly_heavy(g, blk, params) for blk in inside_b)
    assert count == 280


def test_prop2_scaling_pushes_b_blocks_below_the_bar():
    t = Fraction(2, 3)
    g, _ = prop2_construction(3, t, 9)
    s = g.scale(Fraction(999, 1000))
    params = FactorParams(r=3, t=t)
    assert s.min_weighted_degree() == Fraction(999, 1000) * 6
    assert s.clique_weight([6, 7, 8]) < params.heavy_threshold


@pytest.mark.parametrize("r,t,n", [(3, Fraction(1, 2), 8), (1, Fraction(1, 2), 3), (3, Fraction(3, 2), 9), (3, Fraction(1, 2), 3)])
def test_prop2_rejects_bad_parameters(r, t, n):
    with pytest.raises(ValueError):
        prop2_construction(r, t, n)


# ------------------------------------------------- multipartite sharpness


def test_hs_parts_are_consecutive_with_one_long_and_one_short():
    assert hs_sharpness_parts(3, 6) == ((0, 1, 2), (3, 4), (5,))
    assert hs_sharpness_parts(2, 6) == ((0, 1, 2, 3), (4, 5))
    parts = hs_sharpness_parts(4, 12)
    assert tuple(len(p) for p in parts) == (4, 3, 3, 2)
    assert sum(len(p) for p in parts) == 12


def test_hs_weights_are_zero_inside_parts_and_one_across():
    g, desc = hs_sharpness_construction(3, 6)
    assert g.weight(0, 1) == 0 and g.weight(3, 4) == 0
    assert g.weight(0, 3) == 1 and g.weight(2, 5) == 1
    assert set(desc.partition) == {"part0", "part1", "part2"}


@pytest.mark.parametrize("r,n", [(3, 6), (3, 9), (2, 6), (4, 8)])
def test_hs_min_degree_formula(r, n):
    g, _ = hs_sharpness_construction(r, n)
    assert g.min_weighted_degree() == Fraction(r - 1, r) * n - 1


def test_hs_admits_no_full_weight_triangle_factor():
    """The short part has n/r - 1 vertices but every heavy block needs one.

    All 10 partitions of 6 vertices into triples are inspected: at level 1 a
    heavy triple must be a transversal of the three parts, and the singleton
    part cannot serve two blocks.
    """
    g, _ = hs_sharpness_construction(3, 6)
    params = FactorParams(r=3, t=Fraction(1))
    count = 0
    for blocks in enumerate_all_factors(6, 3):
        count += 1
        assert not all(is_heavy(g, blk, params) for blk in blocks)
    assert count == 10


def test_hs_admits_no_full_weight_perfect_matching():
    g, _ = hs_sharpness_construction(2, 6)
    params = FactorParams(r=2, t=Fraction(1))
    count = 0
    for blocks in enumerate_all_factors(6, 2):
        count += 1
        assert not all(is_heavy(g, blk, params) for blk in blocks)
    assert count == 15


@pytest.mark.parametrize("r,n", [(3, 8), (3, 3), (1, 4)])
def test_hs_rejects_bad_parameters(r, n):
    with pytest.raises(ValueError):
        hs_sharpness_parts(r, n)


# --------------------------------------------------- triangle counterexample


def test_counterexample_structure_at_n_36():
    g, desc = counterexample_29_36(36)
    a, b = desc.partition["A"], desc.partition["B"]
    assert len(a) == 29 and len(b) == 7
    assert g.min_weighted_degree() == 29
    # both sides attain it
    assert g.weighted_degree(0) == 29
    assert g.weighted_degree(35) == 29
    # circulant adjacency: offsets 1..11 modulo 29
    assert g.weight(0, 11) == 1
    assert g.weight(0, 12) == 0
    assert g.weight(0, 28) == 1  # offset 28 = -1 mod 29
    assert g.weight(3, 30) == 1  # cross edges all weigh 1
    assert g.weight(30, 35) == 0  # and the small side is empty inside


def test_counterexample_triangle_deficit_at_n_36():
    """Each small-side vertex lies in exactly 319 weight-3 triangles.

    A triangle through a B-vertex has weight 3 iff its other two vertices are
    an adjacent pair inside A, and the circulant has 29 * 11 = 319 edges.
    The 5/9-level count needed is (5/9) C(36, 2) = 350.
    """
    g, desc = counterexample_29_36(36)
    a = desc.partition["A"]
    v = desc.partition["B"][0]
    triangles = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if g.clique_weight((v, a[i], a[j])) == 3:
                triangles += 1
    assert triangles == 319
    assert triangles < Fraction(5, 9) * comb(36, 2) == 350


def test_counterexample_scales_with_n():
    g, desc = counterexample_29_36(72)
    assert len(desc.partition["A"]) == 58
    assert g.min_weighted_degree() == 58
    assert g.weight(0, 22) == 1
    assert g.weight(0, 23) == 0
    # circulant with offsets 1..22 is 44-regular inside A
    edges_inside_a = sum(1 for i in range(58) for j in range(i + 1, 58) if g.weight(i, j) == 1)
    assert edges_inside_a == 58 * 44 // 2


@pytest.mark.parametrize("n", [0, 35, 37, 18])
def test_counterexample_rejects_non_divisible_sizes(n):
    with pytest.raises(ValueError):
        counterexample_29_36(n)


# ------------------------------------------------------------ random grids


def test_random_weighting_is_deterministic_per_seed():
    a = random_weighting(8, 4, seed=5)
    b = random_weighting(8, 4, seed=5)
    c = random_weighting(8, 4, seed=6)
    assert a == b
    assert a != c


def test_random_weighting_draws_are_pinned():
    """The seeded grid draws themselves, so a change to the stream shows."""
    g = random_weighting(4, 10, seed=2, min_degree=Fraction(3, 5))
    assert [g.weight(i, j) for i, j in g.pairs()] == [
        Fraction(4, 5), Fraction(4, 5), Fraction(4, 5), Fraction(9, 10), Fraction(4, 5), Fraction(1)]
    h = random_weighting(4, 6, seed=2)
    assert [h.weight(i, j) for i, j in h.pairs()] == [
        Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1, 3)]


def test_random_weighting_respects_the_grid():
    g = random_weighting(10, 1, seed=1)
    assert all(g.weight(i, j) in (0, 1) for i, j in g.pairs())
    h = random_weighting(10, 6, seed=1)
    assert all((6 * h.weight(i, j)).denominator == 1 for i, j in h.pairs())


def test_min_degree_conditioned_sampler_meets_the_target():
    g = random_weighting(12, 10, seed=3, min_degree=Fraction(4, 5))
    assert g.min_weighted_degree() >= Fraction(4, 5) * 12
    # the sampler draws from the top of the grid rather than rejecting forever
    assert all(g.weight(i, j) >= Fraction(9, 10) for i, j in g.pairs())


def test_min_degree_conditioned_rejects_unreachable_targets():
    with pytest.raises(BudgetExceededError):
        random_weighting(6, 4, seed=0, min_degree=Fraction(1))


def test_weight_distribution_validates_its_fields():
    with pytest.raises(ValueError, match="grid denominator"):
        random_weighting(6, 0, seed=0)
    with pytest.raises(ValueError, match="outside"):
        random_weighting(6, 4, seed=0, min_degree=Fraction(3, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 16),
    d=st.integers(1, 24),
    k=st.integers(0, 12),
    q=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_one_conditioned_draw_meets_the_min_degree(n, d, k, q, seed):
    """The top-of-grid draw needs no second try: the fact the sampler relies on."""
    md = min(Fraction(k, q), 1) * Fraction(n - 1, n)  # reachable: md * n <= n - 1
    g = random_weighting(n, d, seed=seed, min_degree=md)
    assert g.min_weighted_degree() >= md * n
    per_edge = md * n / (n - 1)
    assert all(g.weight(i, j) >= per_edge for i, j in g.pairs())


def test_package_exports_resolve_and_the_sampler_config_is_gone():
    names = heavyfactors.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(heavyfactors, name) for name in names)
    for gone in ("WeightDistribution", "uniform_grid", "min_degree_conditioned"):
        assert gone not in names and not hasattr(heavyfactors, gone)


# ------------------------------------------------- descriptors and rebuild


def test_descriptor_json_round_trip():
    _, desc = prop2_construction(3, Fraction(2, 3), 9)
    doc = desc.to_json()
    assert doc["kind"] == KIND_PROP2 and doc["t"] == "2/3"
    again = ConstructionDescriptor.from_json(doc)
    assert again == desc


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=KIND_PROP2, n=9, r=3, t=Fraction(2, 3)),
        dict(kind=KIND_PROP2, n=9, r=3, t=Fraction(2, 3), scale=Fraction(999, 1000)),
        dict(kind=KIND_HS, n=8, r=4),
        dict(kind=KIND_COUNTEREXAMPLE, n=36),
        dict(kind=KIND_RANDOM, n=7, seed=11, grid_denominator=5),
        dict(kind=KIND_RANDOM, n=8, seed=2, grid_denominator=10, min_degree=Fraction(3, 5)),
    ],
)
def test_rebuild_reproduces_each_kind_bit_exactly(kwargs):
    graph, desc = build(**kwargs)
    assert rebuild(desc) == graph
    assert rebuild(ConstructionDescriptor.from_json(desc.to_json())) == graph


GRID_FRACTIONS = st.builds(lambda k, q: Fraction(min(k, q), q), st.integers(0, 12), st.integers(1, 12))


@st.composite
def build_arguments(draw):
    """Valid `build` keywords for every construction kind, with or without a scale."""
    kind = draw(st.sampled_from([KIND_PROP2, KIND_HS, KIND_COUNTEREXAMPLE, KIND_RANDOM]))
    if kind == KIND_COUNTEREXAMPLE:
        kwargs = dict(n=36)
    elif kind == KIND_RANDOM:
        n = draw(st.integers(2, 12))
        md = draw(st.one_of(st.none(), GRID_FRACTIONS.map(lambda f: f * Fraction(n - 1, n))))
        kwargs = dict(n=n, seed=draw(st.integers(0, 2 ** 32)),
                      grid_denominator=draw(st.integers(1, 20)), min_degree=md)
    else:
        r = draw(st.integers(2, 5))
        kwargs = dict(n=r * draw(st.integers(2, 4)), r=r)
        if kind == KIND_PROP2:
            kwargs["t"] = draw(GRID_FRACTIONS)
    kwargs["scale"] = draw(st.one_of(st.none(), GRID_FRACTIONS))
    return kind, kwargs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arguments=build_arguments())
def test_descriptor_json_round_trip_rebuilds_every_kind(arguments):
    kind, kwargs = arguments
    graph, desc = build(kind, **kwargs)
    doc = json.loads(dumps_canonical(desc.to_json()))
    again = ConstructionDescriptor.from_json(doc)
    assert again == desc
    assert again.to_json() == doc
    assert rebuild(again) == graph


def test_build_validates_kind_and_required_fields():
    with pytest.raises(ValueError):
        build("no-such-kind", n=6)
    with pytest.raises(ValueError):
        build(KIND_PROP2, n=6)
    with pytest.raises(ValueError):
        build(KIND_RANDOM, n=6)


def test_build_applies_the_scale_to_graph_and_descriptor():
    graph, desc = build(KIND_PROP2, n=6, r=3, t=Fraction(1, 2), scale=Fraction(1, 2))
    assert desc.scale == Fraction(1, 2)
    assert graph.weight(0, 1) == Fraction(1, 2)
    base, _ = prop2_construction(3, Fraction(1, 2), 6)
    assert graph == base.scale(Fraction(1, 2))
