"""Deterministic extremal weightings and the seeded grid sampler."""

from fractions import Fraction
from itertools import combinations
from math import ceil, comb
from random import Random

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

import heavyfactors
from heavyfactors import (
    ConstructionDescriptor,
    FactorParams,
    WeightedCompleteGraph,
    build,
    dumps_canonical,
    counterexample_29_36,
    enumerate_all_factors,
    find_heavy_factor,
    hs_sharpness_construction,
    hs_sharpness_parts,
    is_heavy,
    prop2_construction,
    prop2_min_degree,
    random_weighting,
    rebuild,
)
from heavyfactors import lab
from heavyfactors.constructions import (
    KIND_COUNTEREXAMPLE,
    KIND_HS,
    KIND_PROP2,
    KIND_RANDOM,
    _sample_grid_floor,
)

from conftest import assert_fraction_path


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
        assert not is_heavy(g, triple, params, strict=True)


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
        assert all(not is_heavy(g, blk, params, strict=True) for blk in inside_b)
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


@pytest.mark.parametrize("r,n,message", [
    (3, 8, "r=3 does not divide n=8"),
    (1, 4, "need r >= 2, got r=1"),
    (3, 3, "need n > r so the short side is nonempty, got n=3, r=3"),
    (3, 0, "need n > r so the short side is nonempty, got n=0, r=3"),
    (0, 12, "need r >= 2, got r=0"),
])
def test_both_seeds_refuse_one_shape_with_one_message(r, n, message):
    """prop2's clique side and the hs-sharpness short part both hold n/r - 1 vertices.

    prop2's closed-form degree refuses the shapes its weighting refuses.
    """
    with pytest.raises(ValueError) as prop2:
        prop2_construction(r, Fraction(1, 2), n)
    with pytest.raises(ValueError) as hs:
        hs_sharpness_construction(r, n)
    with pytest.raises(ValueError) as closed_form:
        prop2_min_degree(r, Fraction(1, 2), n)
    assert str(prop2.value) == str(hs.value) == str(closed_form.value) == message


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


# ------------------------------------- integer rows vs a plain Fraction table


TABLE_SHAPES = [(2, 4), (2, 6), (3, 6), (3, 9), (4, 8), (4, 12), (5, 15)]


def test_prop2_and_hs_are_their_fraction_tables():
    for r, n in TABLE_SHAPES:
        k = n // r
        for t in [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), 1]:
            g, _ = prop2_construction(r, t, n)
            assert_fraction_path(g, n, {(i, j): Fraction(t) if i >= k - 1 else Fraction(1)
                                        for i, j in combinations(range(n), 2)})
        part_of = {v: idx for idx, part in enumerate(hs_sharpness_parts(r, n)) for v in part}
        g, _ = hs_sharpness_construction(r, n)
        assert_fraction_path(g, n, {(i, j): Fraction(int(part_of[i] != part_of[j]))
                                    for i, j in combinations(range(n), 2)})


@pytest.mark.parametrize("n", [36, 72])
def test_counterexample_is_the_fraction_table(n):
    a = 29 * n // 36
    offsets = range(1, 11 * n // 36 + 1)
    table = {}
    for i, j in combinations(range(n), 2):
        circulant = j < a and ((j - i) in offsets or (i - j) % a in offsets)
        table[i, j] = Fraction(int(circulant or (i < a <= j)))
    g, _ = counterexample_29_36(n)
    assert_fraction_path(g, n, table)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), d=st.integers(1, 24), seed=st.integers(0, 2**16),
       md=st.sampled_from([None, Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]))
def test_random_weighting_is_the_fraction_table(n, d, seed, md):
    """The same `randint(lo, d)` draws, pair by pair in lexicographic order."""
    per_edge = Fraction(0) if md is None else md * n / (n - 1)
    if per_edge > 1:
        return
    rng = Random(seed)
    lo = max(0, -(-per_edge.numerator * d // per_edge.denominator))
    table = {p: Fraction(rng.randint(lo, d), d) for p in combinations(range(n), 2)}
    assert_fraction_path(random_weighting(n, d, seed, md), n, table)


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
    with pytest.raises(ValueError, match="sampling failure: degree target 6/1 needs per-edge weight 6/5 > 1 at n=6"):
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


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_negative_per_edge_floor_draws_from_the_whole_grid(seed):
    """Every grid value is at or above a negative floor, so the draw is the floor-0 one."""
    below = _sample_grid_floor(Random(seed), 12, 20, Fraction(-1))
    assert below == _sample_grid_floor(Random(seed), 12, 20, Fraction(0))


def randint_draws(rng, n, d, per_edge):
    """The grid sampler's draws, one `rng.randint(ceil(per_edge * d), d)` per pair in `pairs()` order, kept as the reference."""
    lo = max(0, ceil(per_edge * d))
    return [rng.randint(lo, d) for _ in combinations(range(n), 2)]


def assert_graph_is_the_draws(graph, n, d, draws):
    """`graph` has exactly the weights draws[k] / d, pairs in `pairs()` order, in lowest terms."""
    plain = WeightedCompleteGraph.from_flat(n, [Fraction(x, d) for x in draws])
    assert (graph.rows, graph.den) == (plain.rows, plain.den)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 20), d=st.integers(1, 24), seed=st.integers(0, 2**32),
       floor=st.sampled_from(["zero", "verify", "one"]),
       t=st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
       margin=st.sampled_from([Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)]))
def test_grid_sampler_makes_the_draws_of_randint(n, d, seed, floor, t, margin):
    """The same weights as a `randint` loop, and the stream left in the same state.

    The floors: 0 (lo = 0, the whole grid), verify's (1/2 + t/2 + margin) n
    / (n - 1), and exactly 1 (lo = d, one grid value, yet every draw takes
    a bit).
    """
    per_edge = {"zero": Fraction(0), "one": Fraction(1),
                "verify": (Fraction(1, 2) + t / 2 + margin) * n / (n - 1)}[floor]
    assume(per_edge <= 1)
    rng, reference = Random(seed), Random(seed)
    graph = _sample_grid_floor(rng, n, d, per_edge)
    assert_graph_is_the_draws(graph, n, d, randint_draws(reference, n, d, per_edge))
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("r,t,n,trials", [(3, Fraction(1, 3), 12, 4), (2, Fraction(0), 8, 3), (4, Fraction(1, 2), 16, 2)])
def test_verify_trials_draw_from_one_stream_like_randint(monkeypatch, r, t, n, trials):
    """Each trial's graph is the next one a `randint` loop over one seeded stream gives."""
    solved = []

    def record(graph, params, strict=False):
        solved.append(graph)
        return find_heavy_factor(graph, params, strict)

    monkeypatch.setattr(lab, "find_heavy_factor", record)
    report = lab.verify_theorem3_empirically(r, t, trials, n, seed=5, grid_denominator=20)
    assert report.passes == trials == len(solved)
    per_edge = (Fraction(1, 2) + t / 2 + Fraction(1, 10)) * n / (n - 1)
    reference = Random(5)
    for graph in solved:
        assert_graph_is_the_draws(graph, n, 20, randint_draws(reference, n, 20, per_edge))


def test_grid_sampler_refuses_a_floor_above_the_grid():
    """No grid value is at or above a floor over 1, and a grid below 1 has no values: errors before any draw."""
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="sampling failure: degree target 21/4 needs per-edge weight 21/20 > 1 at n=6"):
        _sample_grid_floor(rng, 6, 20, Fraction(21, 20))
    for d in (0, -3):
        with pytest.raises(ValueError, match=f"grid denominator must be >= 1, got {d}"):
            _sample_grid_floor(rng, 6, d, Fraction(0))
    assert rng.getstate() == state


def test_package_exports_resolve_and_the_sampler_config_is_gone():
    names = heavyfactors.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(heavyfactors, name) for name in names)
    for gone in ("WeightDistribution", "uniform_grid", "min_degree_conditioned"):
        assert gone not in names and not hasattr(heavyfactors, gone)


# ------------------------------------------------- descriptors and rebuild


@pytest.mark.parametrize("field", ["kind", "n"])
def test_descriptor_without_kind_or_n_is_refused_naming_the_field(field):
    """A descriptor is read from a file, so a missing field is an input error, not a KeyError."""
    _, desc = prop2_construction(3, Fraction(2, 3), 9)
    doc = desc.to_json()
    del doc[field]
    with pytest.raises(ValueError) as err:
        ConstructionDescriptor.from_json(doc)
    assert str(err.value) == f"construction descriptor is missing field {field!r}"


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
    """A random weighting left without a seed or grid draws at seed 0 on grid 12, as `hfl generate` does."""
    with pytest.raises(ValueError):
        build("no-such-kind", n=6)
    with pytest.raises(ValueError, match="^construction descriptor is missing field 'r'$"):
        build(KIND_PROP2, n=6)
    with pytest.raises(ValueError, match="^construction kind 'random-min-degree' does not read field 'r'$"):
        build(KIND_RANDOM, n=6, r=3)
    assert build(KIND_RANDOM, n=6) == build(KIND_RANDOM, n=6, seed=0, grid_denominator=12)


@pytest.mark.parametrize("kind,kwargs,unread", [
    pytest.param(kind, kwargs, name, id=f"{kind}-{name}")
    for kind, kwargs, unread in [
        (KIND_PROP2, dict(n=36, r=3, t=Fraction(2, 3)), ["seed", "grid_denominator", "min_degree"]),
        (KIND_HS, dict(n=36, r=3), ["t", "seed", "grid_denominator", "min_degree"]),
        (KIND_COUNTEREXAMPLE, dict(n=36), ["r", "t", "seed", "grid_denominator", "min_degree"]),
        (KIND_RANDOM, dict(n=36), ["r", "t"]),
    ]
    for name in unread
])
def test_build_refuses_a_field_its_kind_does_not_read(kind, kwargs, unread):
    """The library side of `hfl generate`'s refusal: the same check, the same message."""
    value = {"r": 3, "t": Fraction(1, 2), "seed": 1, "grid_denominator": 6, "min_degree": Fraction(1, 2)}[unread]
    with pytest.raises(ValueError) as err:
        build(kind, **kwargs, **{unread: value})
    assert str(err.value) == f"construction kind {kind!r} does not read field {unread!r}"
    build(kind, **kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(n="9", r=3, t=Fraction(2, 3)), "field 'n' must be an integer, got '9'"),
    (dict(n=True, r=3, t=Fraction(2, 3)), "field 'n' must be an integer, got True"),
    (dict(n=9, r=3.0, t=Fraction(2, 3)), "field 'r' must be an integer, got 3.0"),
], ids=["n-string", "n-bool", "r-float"])
def test_build_refuses_a_field_that_is_not_an_integer(kwargs, message):
    with pytest.raises(ValueError) as err:
        build(KIND_PROP2, **kwargs)
    assert str(err.value) == f"construction descriptor {message}"


def test_build_refuses_a_seed_that_is_not_an_integer():
    """A string seed used to seed the generator and draw a graph."""
    with pytest.raises(ValueError) as err:
        build(KIND_RANDOM, n=6, seed="x")
    assert str(err.value) == "construction descriptor field 'seed' must be an integer, got 'x'"


@pytest.mark.parametrize("call,message", [
    (lambda: WeightedCompleteGraph(3.0), "vertex count must be an integer, got 3.0"),
    (lambda: WeightedCompleteGraph.constant(3.0, 1), "vertex count must be an integer, got 3.0"),
    (lambda: prop2_construction(3, Fraction(1, 2), 9.0), "vertex count must be an integer, got 9.0"),
    (lambda: prop2_construction(3.0, Fraction(1, 2), 9), "r must be an integer, got 3.0"),
    (lambda: hs_sharpness_construction(3, 9.0), "vertex count must be an integer, got 9.0"),
    (lambda: counterexample_29_36(36.0), "vertex count must be an integer, got 36.0"),
    (lambda: random_weighting(6.0, 4, 0), "vertex count must be an integer, got 6.0"),
    (lambda: random_weighting(6, 4.0, 0), "grid denominator must be an integer, got 4.0"),
    (lambda: random_weighting(6, 4, "x"), "seed must be an integer, got 'x'"),
], ids=["graph", "constant", "prop2-n", "prop2-r", "hs", "counterexample", "random-n", "random-grid",
        "random-seed"])
def test_public_constructors_refuse_a_count_grid_or_seed_that_is_not_an_integer(call, message):
    """Each count, grid and seed goes through `core._integer`, as `build`'s descriptor fields do."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_random_weighting_needs_two_vertices():
    with pytest.raises(ValueError) as err:
        random_weighting(1, 4, 0)
    assert str(err.value) == "need n >= 2, got n=1"


PROP2_DOC = build(KIND_PROP2, n=9, r=3, t=Fraction(2, 3))[1].to_json()
HS_DOC = build(KIND_HS, n=8, r=4)[1].to_json()
RANDOM_DOC = build(KIND_RANDOM, n=6, seed=1)[1].to_json()


@pytest.mark.parametrize("doc,message", [
    ({**PROP2_DOC, "n": "9"}, "construction descriptor field 'n' must be an integer, got '9'"),
    ({**PROP2_DOC, "n": True}, "construction descriptor field 'n' must be an integer, got True"),
    ({**PROP2_DOC, "r": "3"}, "construction descriptor field 'r' must be an integer, got '3'"),
    ({**RANDOM_DOC, "seed": "x"}, "construction descriptor field 'seed' must be an integer, got 'x'"),
    ({**RANDOM_DOC, "grid_denominator": None},
     "construction descriptor field 'grid_denominator' must be an integer, got None"),
    ({**PROP2_DOC, "partition": 5}, "construction descriptor field 'partition' must map labels to vertex lists"),
    ({**PROP2_DOC, "partition": {"A": 5}},
     "construction descriptor field 'partition' must map labels to vertex lists"),
    ({**PROP2_DOC, "colour": "red"}, "construction descriptor has no field 'colour'"),
    ({**HS_DOC, "t": "1/2"}, "construction kind 'hs-sharpness' does not read field 't'"),
    ({**PROP2_DOC, "seed": 0}, "construction kind 'prop2' does not read field 'seed'"),
    ({k: v for k, v in PROP2_DOC.items() if k != "r"}, "construction descriptor is missing field 'r'"),
    ({**PROP2_DOC, "kind": "prop3"}, "unknown construction kind 'prop3'"),
    ({**PROP2_DOC, "kind": ["prop2"]}, "unknown construction kind ['prop2']"),
    ([PROP2_DOC], "construction descriptor must be a JSON object, got list"),
    ({**PROP2_DOC, "partition": {"A": [0], "B": list(range(1, 9))}},
     "construction descriptor field 'partition' is not the partition of the rebuilt graph"),
    ({k: v for k, v in PROP2_DOC.items() if k != "partition"},
     "construction descriptor field 'partition' is not the partition of the rebuilt graph"),
    ({**RANDOM_DOC, "partition": {"A": [0, 1, 2, 3, 4, 5]}},
     "construction descriptor field 'partition' is not the partition of the rebuilt graph"),
    ({**PROP2_DOC, "t": None}, "construction descriptor field 't' must be an exact rational, not a NoneType"),
    ({**RANDOM_DOC, "min_degree": None},
     "construction descriptor field 'min_degree' must be an exact rational, not a NoneType"),
    ({**PROP2_DOC, "t": "0.5"}, "decimal notation is not accepted: '0.5'"),
    ({**PROP2_DOC, "t": 0.5}, "construction descriptor field 't' must be an exact rational, not a float"),
    ({**PROP2_DOC, "scale": True}, "construction descriptor field 'scale' must be an exact rational, not a bool"),
], ids=["n-string", "n-bool", "r-string", "seed-string", "grid-null", "partition-int", "partition-part-int",
        "unknown-key", "hs-t", "prop2-seed", "prop2-no-r", "unknown-kind", "kind-list", "not-a-dict",
        "partition-other", "partition-missing", "random-partition", "t-null", "min-degree-null", "t-decimal-text",
        "t-float", "scale-bool"])
def test_a_mutated_descriptor_document_is_refused_naming_the_field(doc, message):
    """A descriptor file is outside input: every fault is a ValueError, never a TypeError or AttributeError."""
    with pytest.raises(ValueError) as err:
        rebuild(ConstructionDescriptor.from_json(doc))
    assert str(err.value) == message


def test_build_applies_the_scale_to_graph_and_descriptor():
    graph, desc = build(KIND_PROP2, n=6, r=3, t=Fraction(1, 2), scale=Fraction(1, 2))
    assert desc.scale == Fraction(1, 2)
    assert graph.weight(0, 1) == Fraction(1, 2)
    base, _ = prop2_construction(3, Fraction(1, 2), 6)
    assert graph == base.scale(Fraction(1, 2))
