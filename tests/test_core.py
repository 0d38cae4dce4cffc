"""Exact arithmetic, graph values, heaviness predicates, and graph JSON."""

import json
from fractions import Fraction
from itertools import combinations
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import heavyfactors as hf
from heavyfactors import core
from heavyfactors import (
    CliqueFactor,
    FactorParams,
    GraphFormatError,
    WeightedCompleteGraph,
    dumps_canonical,
    format_rational,
    graph_from_json,
    graph_to_json,
    is_heavy,
    is_overweight_edge,
    load_graph,
    parse_rational,
    save_graph,
)

from conftest import assert_fraction_path, pair_table, random_grid_graph


# ---------------------------------------------------------------- rationals


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2/3", Fraction(2, 3)),
        (" 2/3 ", Fraction(2, 3)),
        ("6/4", Fraction(3, 2)),
        ("0/7", Fraction(0)),
        ("5", Fraction(5)),
        ("-1/3", Fraction(-1, 3)),
    ],
)
def test_parse_rational_accepts_fraction_notation(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["0.5", "1e-3", "2E2", "", "   ", "a/b", "1/0", "1/2/3", "1.0/2"])
def test_parse_rational_rejects_non_rational_text(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text,message", [
    ("0.5", "decimal notation is not accepted: '0.5'"),
    ("-1E3", "decimal notation is not accepted: '-1E3'"),
    (".5", "decimal notation is not accepted: '.5'"),
    ("one", "not a rational: 'one'"),
    ("inf", "not a rational: 'inf'"),
    ("1.0/2", "not a rational: '1.0/2'"),
    (None, "not a rational: None"),
    (True, "not a rational: True"),
], ids=["decimal", "exponent", "bare-point", "one", "inf", "decimal-numerator", "none", "true"])
def test_parse_rational_calls_text_decimal_only_when_it_reads_as_a_decimal_number(text, message):
    """An `e` alone does not make text decimal: "one", None and True are not rationals."""
    with pytest.raises(ValueError) as err:
        parse_rational(text)
    assert str(err.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: FactorParams(3, "0.5"), "decimal notation is not accepted: '0.5'"),
    (lambda: FactorParams(3, True), "level t must be an exact rational, not a bool"),
    (lambda: FactorParams(3, None), "level t must be an exact rational, not a NoneType"),
    (lambda: FactorParams(True, Fraction(1, 2)), "r must be an integer, got True"),
    (lambda: FactorParams("3", Fraction(1, 2)), "r must be an integer, got '3'"),
    (lambda: hf.build("prop2", n=9, r=3, t="0.5"), "decimal notation is not accepted: '0.5'"),
    (lambda: WeightedCompleteGraph.constant(3, True), "constant weight must be an exact rational, not a bool"),
    (lambda: CliqueFactor.from_blocks([(0, 1, 2), (3, 4, 5)]).validate(6.0, 3),
     "vertex count must be an integer, got 6.0"),
    (lambda: CliqueFactor.from_blocks([(0, 1), (2, 3)]).validate(4, True), "r must be an integer, got True"),
    (lambda: hf.enumerate_all_factors(6.0, 3), "vertex count must be an integer, got 6.0"),
    (lambda: hf.scheme2_partition(ONES, 3.0, 1, 4, 2), "r must be an integer, got 3.0"),
    (lambda: hf.scheme2_partition(ONES, 3, "x", 4, 2), "seed must be an integer, got 'x'"),
    (lambda: hf.lemma1_bound(Fraction(9, 10), Fraction(1, 2), 3, 12.0), "vertex count must be an integer, got 12.0"),
    (lambda: hf.t_r_threshold(3.0), "r must be an integer, got 3.0"),
    (lambda: hf.scheme2_factor(ONES, HALF, seed="x"), "seed must be an integer, got 'x'"),
    (lambda: hf.scheme2_factor(ONES, HALF, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: hf.scheme2_factor(ONES, HALF, seed=0, retries=1.5), "retries must be an integer, got 1.5"),
    (lambda: hf.random_weighting(6, 4, seed="x"), "seed must be an integer, got 'x'"),
    (lambda: hf.adversarial_search(3, Fraction(1, 2), 6, True), "seed must be an integer, got True"),
    (lambda: hf.verify_theorem3_empirically(3, Fraction(1, 3), 4, 6, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: hf.prop2_min_degree(3, Fraction(1, 2), 12.0), "vertex count must be an integer, got 12.0"),
    (lambda: hf.evaluate_lower_bounds(3, Fraction(1, 2), 6, solver_cap="x"), "solver cap must be an integer, got 'x'"),
    (lambda: hf.evaluate_lower_bounds(3, Fraction(1, 2), 6, solver_cap=12.5),
     "solver cap must be an integer, got 12.5"),
    (lambda: hf.evaluate_lower_bounds(3, Fraction(1, 2), 6, solver_cap=True),
     "solver cap must be an integer, got True"),
    (lambda: hf.scan_report([3], [Fraction(1, 2)], 6, solver_cap=1.5), "solver cap must be an integer, got 1.5"),
    (lambda: hf.adversarial_search(3, Fraction(1, 2), 6, 0, solver_cap=None),
     "solver cap must be an integer, got None"),
], ids=["t-decimal-text", "t-bool", "t-none", "r-bool", "r-text", "build-t-decimal-text", "constant-bool",
        "validate-n-float", "validate-r-bool", "enumerate_all_factors-n-float", "scheme2_partition-r-float",
        "scheme2_partition-seed-text", "lemma1_bound-n-float", "t_r_threshold-r-float", "scheme2_factor-seed-text",
        "scheme2_factor-seed-float", "scheme2_factor-retries-float", "random_weighting-seed-text",
        "adversarial_search-seed-bool", "verify_theorem3-seed-float", "prop2_min_degree-n-float",
        "evaluate_lower_bounds-cap-text", "evaluate_lower_bounds-cap-float", "evaluate_lower_bounds-cap-bool",
        "scan_report-cap-float", "adversarial_search-cap-none"])
def test_integers_and_rationals_are_read_by_one_check_each(call, message):
    """Text is read as the command line reads it; a bool or None is a ValueError, never a TypeError or a number.

    The shape rule reads its own r and n, so every entry that checks a block shape refuses them alike.
    """
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_rational_text_reads_as_the_fraction_it_spells():
    assert FactorParams(3, "1/2") == FactorParams(3, Fraction(1, 2))
    assert FactorParams(3, 1).t == Fraction(1)
    assert hf.build("prop2", n=9, r=3, t="2/3") == hf.build("prop2", n=9, r=3, t=Fraction(2, 3))
    assert WeightedCompleteGraph.constant(3, " 1/3 ") == WeightedCompleteGraph.constant(3, Fraction(1, 3))


def test_format_rational_always_prints_denominator():
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(1) == "1/1"
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(0)) == "0/1"


def test_rational_round_trip_is_exact():
    rng = Random(20250811)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(x)) == x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.fractions())
def test_format_then_parse_is_the_identity(x):
    text = format_rational(x)
    assert text == f"{x.numerator}/{x.denominator}"
    assert parse_rational(text) == x
    assert parse_rational(str(x.numerator)) == x.numerator


RATIONAL_ALPHABET = st.sampled_from("0123456789/-+ .eE_x")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(st.text(), st.text(RATIONAL_ALPHABET, max_size=12)))
def test_parse_rational_returns_a_fraction_or_raises_value_error(text):
    """Any text parses to a Fraction or raises ValueError; decimals never parse."""
    try:
        x = parse_rational(text)
    except ValueError:
        return
    assert isinstance(x, Fraction)
    assert not any(c in text for c in ".eE")
    assert parse_rational(format_rational(x)) == x


# ------------------------------------------------------------- graph values


def test_constant_graph_degrees_and_total():
    g = WeightedCompleteGraph.constant(6, Fraction(1, 2))
    for v in range(6):
        assert g.weighted_degree(v) == Fraction(5, 2)
    assert g.min_weighted_degree() == Fraction(5, 2)
    assert g.total_weight() == Fraction(15, 2)


def test_min_weighted_degree_needs_two_vertices():
    with pytest.raises(ValueError) as err:
        WeightedCompleteGraph(1).min_weighted_degree()
    assert str(err.value) == "min weighted degree needs at least two vertices"


def test_weight_is_symmetric_and_validated():
    g = WeightedCompleteGraph(4, {(0, 1): Fraction(1, 3), (2, 3): Fraction(1)})
    assert g.weight(0, 1) == g.weight(1, 0) == Fraction(1, 3)
    assert g.weight(0, 2) == 0
    with pytest.raises(ValueError):
        g.weight(1, 1)
    with pytest.raises(ValueError):
        g.weight(0, 4)


def test_constructor_rejects_floats_and_out_of_range_weights():
    with pytest.raises(ValueError):
        WeightedCompleteGraph(3, {(0, 1): 0.5})
    with pytest.raises(ValueError):
        WeightedCompleteGraph(3, {(0, 1): Fraction(3, 2)})
    with pytest.raises(ValueError):
        WeightedCompleteGraph(3, {(0, 1): Fraction(-1, 2)})
    with pytest.raises(ValueError):
        WeightedCompleteGraph(0)


def test_constructor_rejects_a_pair_given_twice():
    with pytest.raises(ValueError, match=r"pair \(0, 1\) given twice"):
        WeightedCompleteGraph(3, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1)})


@pytest.mark.parametrize("call,message", [
    (lambda: WeightedCompleteGraph(0), "need at least one vertex, got n=0"),
    (lambda: WeightedCompleteGraph(-2), "need at least one vertex, got n=-2"),
    (lambda: WeightedCompleteGraph.constant(0, 1), "need at least one vertex, got n=0"),
    (lambda: WeightedCompleteGraph(3, {(0, 1): 0.5}), "edge (0, 1): weight must be an exact rational, not a float"),
    (lambda: WeightedCompleteGraph(3, {(1, 0): Fraction(3, 2)}), "edge (0, 1): weight 3/2 outside [0, 1]"),
    (lambda: WeightedCompleteGraph(3, {(0, 2): Fraction(-1, 2)}), "edge (0, 2): weight -1/2 outside [0, 1]"),
    (lambda: WeightedCompleteGraph(3, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1)}), "pair (0, 1) given twice"),
    (lambda: WeightedCompleteGraph(3, {(0, 3): 1}), "edge (0, 3): vertex 3 out of range for n=3"),
    (lambda: WeightedCompleteGraph.from_flat(3, [1]), "flat weight vector has wrong length"),
    (lambda: WeightedCompleteGraph.constant(3, 2), "constant weight 2/1 outside [0, 1]"),
], ids=["n=0", "n<0", "constant-n=0", "float", "above-1", "below-0", "twice", "pair", "flat", "constant"])
def test_constructor_messages_are_pinned(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_each_weight_is_checked_once_where_it_enters(tmp_path, monkeypatch):
    """Every weight goes through `_unit`: a file's once per distinct weight text, a mapping's once per pair."""
    g = random_grid_graph(Random(41), 12, denominator=7)
    path = tmp_path / "g.json"
    save_graph(path, g)
    texts = {text for _, _, text in graph_to_json(g)["edges"]}
    calls = []
    unit = core._unit
    monkeypatch.setattr(core, "_unit", lambda value, what: calls.append(what) or unit(value, what))
    assert load_graph(path) == g
    assert calls == ["weight"] * len(texts)
    assert 1 < len(texts) < 66
    calls.clear()
    table = {p: g.weight(*p) for p in g.pairs()}
    assert WeightedCompleteGraph(12, table) == g
    assert calls == [f"edge ({i}, {j}): weight" for i, j in table] and len(calls) == 66


def test_degree_sum_identity_on_random_graphs():
    """Sum of weighted degrees counts every edge twice."""
    rng = Random(7)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_grid_graph(rng, n, denominator=6)
        assert sum(g.weighted_degree(v) for v in range(n)) == 2 * g.total_weight()
        assert g.min_weighted_degree() == min(g.weighted_degree(v) for v in range(n))


def test_degree_splits_across_a_partition_of_the_other_vertices():
    rng = Random(11)
    for _ in range(20):
        n = rng.randint(3, 9)
        g = random_grid_graph(rng, n, denominator=5)
        v = rng.randrange(n)
        others = [u for u in range(n) if u != v]
        cut = rng.randint(0, len(others))
        a, b = others[:cut], others[cut:]
        assert g.weighted_degree_to(v, a) + g.weighted_degree_to(v, b) == g.weighted_degree(v)


def test_weighted_degree_to_rejects_bad_target_sets():
    g = WeightedCompleteGraph.constant(4, Fraction(1))
    with pytest.raises(ValueError):
        g.weighted_degree_to(0, [0, 1])
    with pytest.raises(ValueError):
        g.weighted_degree_to(0, [1, 1])


def test_clique_weight_matches_half_of_internal_degree_sums():
    rng = Random(13)
    for _ in range(20):
        n = rng.randint(4, 9)
        g = random_grid_graph(rng, n, denominator=7)
        k = rng.randint(2, n)
        vs = rng.sample(range(n), k)
        internal = sum(g.weighted_degree_to(v, [u for u in vs if u != v]) for v in vs)
        assert 2 * g.clique_weight(vs) == internal
    assert g.clique_weight(range(g.n)) == g.total_weight()


def test_clique_weight_rejects_singletons_and_duplicates():
    g = WeightedCompleteGraph.constant(4, Fraction(1))
    with pytest.raises(ValueError):
        g.clique_weight([2])
    with pytest.raises(ValueError):
        g.clique_weight([1, 1, 2])


def test_scale_is_exact_and_pointwise():
    rng = Random(17)
    g = random_grid_graph(rng, 7, denominator=9)
    s = g.scale(Fraction(1, 3))
    for i, j in g.pairs():
        assert s.weight(i, j) == g.weight(i, j) / 3
    assert g.scale(1) == g
    with pytest.raises(ValueError):
        g.scale(Fraction(4, 3))


def test_with_weight_changes_one_edge_and_preserves_the_original():
    g = WeightedCompleteGraph.constant(5, Fraction(1, 2))
    h = g.with_weight(1, 3, Fraction(1))
    assert h.weight(1, 3) == 1
    assert g.weight(1, 3) == Fraction(1, 2)
    changed = [(i, j) for i, j in g.pairs() if g.weight(i, j) != h.weight(i, j)]
    assert changed == [(1, 3)]


def test_graph_equality_and_hash_follow_the_weight_vector():
    a = WeightedCompleteGraph.constant(4, Fraction(1, 2))
    b = WeightedCompleteGraph.constant(4, Fraction(1, 2))
    c = b.with_weight(0, 1, Fraction(1))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_induced_subgraph_preserves_weights():
    rng = Random(19)
    g = random_grid_graph(rng, 8, denominator=5)
    sub, vmap = g.induced([6, 2, 4])
    assert vmap == (2, 4, 6)
    for a in range(3):
        for b in range(a + 1, 3):
            assert sub.weight(a, b) == g.weight(vmap[a], vmap[b])
    with pytest.raises(ValueError):
        g.induced([1, 1])
    with pytest.raises(ValueError):
        g.induced([7, 8])


# ------------------------------------------ integer rows vs a Fraction table

GRID_DENOMINATORS = [1, 2, 3, 4, 6, 7, 12]


@st.composite
def grid_weights(draw):
    d = draw(st.sampled_from(GRID_DENOMINATORS))
    return Fraction(draw(st.integers(0, d)), d)


def table_weight(table, i, j):
    return table[min(i, j), max(i, j)]


def assert_matches_table(g, n, table, subsets):
    """Every accessor of `g` against sums over the plain Fraction `table`."""
    assert g.n == n
    assert g.den == lcm(1, *(w.denominator for w in table.values()))
    assert g == WeightedCompleteGraph(n, table) and hash(g) == hash(WeightedCompleteGraph(n, table))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert g.weight(i, j) == table_weight(table, i, j)
        others = [u for u in range(n) if u != i]
        assert g.weighted_degree(i) == sum((table_weight(table, i, u) for u in others), Fraction(0))
    if n >= 2:
        assert g.min_weighted_degree() == min(g.weighted_degree(v) for v in range(n))
    assert g.total_weight() == sum(table.values(), Fraction(0))
    for vs in subsets:
        vs = [v for v in vs if v < n]
        if len(vs) >= 2:
            assert g.clique_weight(vs) == sum(
                (table[p] for p in combinations(sorted(vs), 2)), Fraction(0))
        for v in range(n):
            targets = [u for u in vs if u != v]
            assert g.weighted_degree_to(v, targets) == sum(
                (table_weight(table, v, u) for u in targets), Fraction(0))
    for s in {Fraction(0), Fraction(1, 2), Fraction(5, 7), Fraction(1), *table.values()}:
        assert g.threshold_masks(s) == tuple(
            sum(1 << u for u in range(n) if u != v and table_weight(table, v, u) >= s) for v in range(n))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 7),
       factor=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(6, 7), Fraction(999, 1000), Fraction(1)]))
def test_integer_rows_match_a_plain_fraction_table(data, n, factor):
    pairs = list(combinations(range(n), 2))
    flat = data.draw(st.lists(grid_weights(), min_size=len(pairs), max_size=len(pairs)))
    subsets = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=4))
    table = pair_table(n, flat)
    g = WeightedCompleteGraph.from_flat(n, flat)
    assert_matches_table(g, n, table, subsets)

    scaled = {p: w * factor for p, w in table.items()}
    assert_matches_table(g.scale(factor), n, scaled, subsets)

    # every move equals the graph built from its weights, whether the move
    # raises the common denominator, keeps it, or drops its last use
    for _ in range(data.draw(st.integers(0, 6)) if pairs else 0):
        i, j = data.draw(st.sampled_from(pairs))
        table[i, j] = data.draw(grid_weights())
        g = g.with_weight(j, i, table[i, j])
        assert g == WeightedCompleteGraph.from_flat(n, [table[p] for p in pairs])
        assert_matches_table(g, n, table, subsets)

    vs = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    sub, vmap = g.induced(vs)
    assert vmap == tuple(vs)
    sub_table = {(a, b): table[vs[a], vs[b]] for a, b in combinations(range(len(vs)), 2)}
    assert_matches_table(sub, len(vs), sub_table, subsets)


def test_with_weight_raises_and_lowers_the_common_denominator():
    halves = WeightedCompleteGraph.constant(4, Fraction(1, 2))
    sevenths = halves.with_weight(0, 1, Fraction(3, 7))
    assert sevenths.den == 14
    thirds = sevenths.with_weight(1, 0, Fraction(1, 3))  # replaces the only /7 edge
    assert thirds.den == 6
    direct = WeightedCompleteGraph(4, {(i, j): Fraction(1, 3) if (i, j) == (0, 1) else Fraction(1, 2)
                                       for i, j in combinations(range(4), 2)})
    assert thirds == direct and hash(thirds) == hash(direct)
    assert sevenths.with_weight(0, 1, Fraction(1, 2)) == halves
    assert halves.with_weight(2, 3, Fraction(0)).with_weight(2, 3, Fraction(1, 2)) == halves
    assert WeightedCompleteGraph.constant(4, Fraction(0)).den == 1


# -------------------------------------------------------- threshold graphs


def test_threshold_subgraph_keeps_exactly_the_heavy_edges():
    g = WeightedCompleteGraph(4, {(0, 1): Fraction(1), (1, 2): Fraction(1, 2), (2, 3): Fraction(1, 4)})
    assert g.threshold_masks(Fraction(1, 2)) == (0b0010, 0b0101, 0b0010, 0b0000)
    assert g.threshold_masks(Fraction(0)) == (0b1110, 0b1101, 0b1011, 0b0111)


def test_threshold_subgraph_boundary_uses_at_least():
    g = WeightedCompleteGraph(3, {(0, 1): Fraction(1, 2)})
    assert g.threshold_masks(Fraction(1, 2)) == (0b010, 0b001, 0b000)
    assert g.threshold_masks(Fraction(501, 1000)) == (0, 0, 0)


def test_threshold_subgraph_is_monotone_in_the_threshold():
    rng = Random(23)
    for _ in range(15):
        g = random_grid_graph(rng, 7, denominator=8)
        lo = g.threshold_masks(Fraction(1, 4))
        hi = g.threshold_masks(Fraction(3, 4))
        assert all(h & ~l == 0 for h, l in zip(hi, lo))


def test_threshold_degree_lower_bound_from_weighted_degree():
    """A weighted degree forces many edges above any cut x < 1.

    If deg_w(v) >= d then at most (n-1-h) edges at v have weight <= x, where
    h counts edges of weight > x, so d <= h + (n-1-h) x and
    h >= (d - (n-1) x) / (1 - x).  This is the counting step that turns the
    (1+t)/2 degree bound into a dense threshold subgraph.
    """
    rng = Random(29)
    x = Fraction(1, 2)
    for _ in range(30):
        n = rng.randint(3, 10)
        g = random_grid_graph(rng, n, denominator=10)
        for v in range(n):
            h = sum(1 for u in range(n) if u != v and g.weight(u, v) > x)
            bound = (g.weighted_degree(v) - (n - 1) * x) / (1 - x)
            assert h >= bound


# ------------------------------------------------------------- params, sets


def test_factor_params_derive_the_heavy_threshold():
    p = FactorParams(r=3, t=Fraction(2, 3))
    assert p.heavy_threshold == 2
    q = FactorParams(r=5, t=Fraction(1, 2))
    assert q.heavy_threshold == 5


@pytest.mark.parametrize("r,t", [(1, Fraction(1, 2)), (2, Fraction(3, 2)), (2, Fraction(-1, 2))])
def test_factor_params_reject_bad_boxes(r, t):
    with pytest.raises(ValueError):
        FactorParams(r=r, t=t)


def test_factor_params_reject_float_levels():
    with pytest.raises(ValueError):
        FactorParams(r=3, t=0.5)


ONES = WeightedCompleteGraph.constant(6, Fraction(1))
HALF = FactorParams(3, Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda: ONES.scale(0.1),
    lambda: ONES.threshold_masks(0.3),
    lambda: hf.prop2_construction(3, 0.5, 9),
    lambda: hf.prop2_min_degree(3, 0.5, 9),
    lambda: hf.random_weighting(6, 4, 0, min_degree=0.5),
    lambda: hf.build("random-min-degree", n=6, grid_denominator=4, min_degree=0.5),
    lambda: hf.build("prop2", n=9, r=3, t=Fraction(1, 2), scale=0.5),
    lambda: hf.evaluate_lower_bounds(3, 2 / 3, 9),
    lambda: hf.scan_report([3], [0.5], 6),
    lambda: hf.verify_theorem3_empirically(3, Fraction(1, 3), 1, 9, 0, margin=0.1),
    lambda: hf.scheme2_factor(ONES, HALF, 0, epsilon=0.1),
    lambda: hf.scheme2_partition(ONES, 3, 0, 0.5, 0),
    lambda: hf.matching_base_case(ONES, 0.5),
    lambda: hf.bipartite_threshold_matching(
        hf.build_bipartite_average(ONES, [(0, 1)], [2]), 0.5),
    lambda: hf.lemma1_bound(0.9, 0.5, 3, 9),
    lambda: hf.format_rational(0.1),
    lambda: hf.scan_report([3.7], [Fraction(1, 2)], 9),
], ids=["scale", "threshold_masks", "prop2_construction",
        "prop2_min_degree", "random_weighting", "build-min_degree", "build-scale",
        "evaluate_lower_bounds", "scan_report", "verify-margin", "scheme2_factor-epsilon",
        "scheme2_partition", "matching_base_case", "bipartite_threshold_matching", "lemma1_bound",
        "format_rational", "scan_report-r"])
def test_every_rational_entry_refuses_floats(call):
    """A float would round every boundary; each entry refuses it through one check.

    An r is an integer, so scan_report refuses it through the integer check instead.
    """
    with pytest.raises(ValueError, match="must be an exact rational, not a float|r must be an integer, got 3.7"):
        call()


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-1, 2)], ids=["3/2", "-1/2"])
@pytest.mark.parametrize("call", [
    lambda v: WeightedCompleteGraph(3, {(0, 1): v}),
    lambda v: WeightedCompleteGraph.constant(3, v),
    lambda v: ONES.with_weight(0, 1, v),
    lambda v: ONES.scale(v),
    lambda v: FactorParams(3, v),
    lambda v: graph_from_json({"n": 3, "edges": [[0, 1, format_rational(v)]]}),
    lambda v: hf.prop2_construction(3, v, 9),
    lambda v: hf.random_weighting(6, 4, 0, min_degree=v),
    lambda v: hf.lemma1_bound(v, Fraction(1, 2), 3, 9),
    lambda v: hf.prop2_min_degree(3, v, 9),
    lambda v: hf.matching_base_case(WeightedCompleteGraph.constant(4, 1), v),
    lambda v: hf.bipartite_threshold_matching(hf.build_bipartite_average(ONES, [(0, 1)], [2]), v),
], ids=["constructor", "constant", "with_weight", "scale", "FactorParams", "graph_from_json",
        "prop2_construction", "random_weighting-min_degree", "lemma1_bound-delta", "prop2_min_degree",
        "matching_base_case", "bipartite_threshold_matching"])
def test_every_unit_entry_refuses_values_outside_the_unit_interval(call, value):
    """A weight, level, scale or density outside [0, 1] is refused by `_unit`, the only raise with this text."""
    with pytest.raises(ValueError, match=rf"{format_rational(value)} outside \[0, 1\]$"):
        call(value)


AT_MAXIMUM = (ONES, FactorParams(3, Fraction(1)), hf.HeavyCollection((frozenset({0, 1, 2}),), overweight_count=0))


@pytest.mark.parametrize("call,message", [
    (lambda: WeightedCompleteGraph(3, {(1, 1): 1}), "edge (1, 1): repeats vertex 1"),
    (lambda: ONES.weight(-1, 2), "edge: vertex -1 out of range for n=6"),
    (lambda: ONES.weight(2, 2), "edge: repeats vertex 2"),
    (lambda: ONES.with_weight(6, 0, 1), "edge (6, 0): vertex 6 out of range for n=6"),
    (lambda: ONES.with_weight(4, 4, 1), "edge (4, 4): repeats vertex 4"),
    (lambda: ONES.weighted_degree(6), "degree: vertex 6 out of range for n=6"),
    (lambda: ONES.weighted_degree_to(0, [1, 7]), "source and targets: vertex 7 out of range for n=6"),
    (lambda: ONES.weighted_degree_to(0, [1, 0]), "source and targets: repeats vertex 0"),
    (lambda: ONES.weighted_degree_to(0, iter([2, 2])), "source and targets: repeats vertex 2"),
    (lambda: ONES.clique_weight([0, 1, 6]), "clique: vertex 6 out of range for n=6"),
    (lambda: ONES.clique_weight([3, 1, 3]), "clique: repeats vertex 3"),
    (lambda: ONES.induced([-2, 0]), "induced set: vertex -2 out of range for n=6"),
    (lambda: ONES.induced([5, 5]), "induced set: repeats vertex 5"),
    (lambda: ONES.induced([]), "need at least one vertex, got n=0"),
    (lambda: CliqueFactor.from_blocks([[0, 1], [2, 4]]).validate(4, 2), "factor: vertex 4 out of range for n=4"),
    (lambda: hf.build_bipartite_average(ONES, [(1, 2)], [3, 3]), "cliques and right side: repeats vertex 3"),
    (lambda: hf.build_bipartite_average(ONES, [(1, 2)], [2]), "cliques and right side: repeats vertex 2"),
    (lambda: hf.check_facts_at_maximum(*AT_MAXIMUM, (3, 4, 6)), "designated set: vertex 6 out of range for n=6"),
    (lambda: hf.check_facts_at_maximum(*AT_MAXIMUM, (3, 4, 4)), "designated set: repeats vertex 4"),
    (lambda: hf.heavy_cliques_containing(ONES, 6, HALF), "heavy cliques containing: vertex 6 out of range for n=6"),
    (lambda: ONES.weight(1.0, 2), "edge: vertex must be an integer, got 1.0"),
    (lambda: ONES.clique_weight([0, 1, 2.0]), "clique: vertex must be an integer, got 2.0"),
    (lambda: ONES.induced([0.5, 1]), "induced set: vertex must be an integer, got 0.5"),
    (lambda: ONES.weighted_degree(True), "degree: vertex must be an integer, got True"),
    (lambda: core._vertex_set((0, "x"), 3, "pair"), "pair: vertex must be an integer, got 'x'"),
    (lambda: WeightedCompleteGraph(3, {(0, "a"): Fraction(1, 2)}), "edge (0, a): vertex must be an integer, got 'a'"),
], ids=["constructor-repeat", "weight-range", "weight-repeat", "with_weight-range",
        "with_weight-repeat", "weighted_degree", "weighted_degree_to-range", "weighted_degree_to-source",
        "weighted_degree_to-target", "clique_weight-range", "clique_weight-repeat", "induced-range",
        "induced-repeat", "induced-empty", "validate", "bipartite-right", "bipartite-clique", "designated-range",
        "designated-repeat", "heavy_cliques_containing-range", "weight-float", "clique_weight-float",
        "induced-float", "weighted_degree-bool", "vertex-set-text", "constructor-text"])
def test_every_vertex_set_entry_refuses_a_vertex_out_of_range_and_a_repeat(call, message):
    """Each entry refuses through `_vertex_set`, the only raise of these faults; an empty induced set is no graph.

    A vertex that is not an int (a float, a bool or text) is refused by name before the set is sorted.
    """
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: hf.find_heavy_factor(ONES, HALF, strict="yes"), "strict must be a bool, got 'yes'"),
    (lambda: hf.find_heavy_factor(ONES, HALF, strict=0), "strict must be a bool, got 0"),
    (lambda: is_heavy(ONES, (0, 1, 2), HALF, strict=1), "strict must be a bool, got 1"),
    (lambda: hf.daykin_haggkvist_check(ONES, HALF, strict="x"), "strict must be a bool, got 'x'"),
    (lambda: hf.heavy_cliques_containing(WeightedCompleteGraph.constant(2, 1), 0, HALF, strict=None),
     "strict must be a bool, got None"),
    (lambda: core._least_numerator(Fraction(1, 2), 4, strict=1), "strict must be a bool, got 1"),
], ids=["solve-text", "solve-int", "is_heavy-int", "daykin_haggkvist-text", "heavy_cliques-n-below-r-none",
        "least_numerator-int"])
def test_the_tie_flag_is_a_bool(call, message):
    """A flag that is not a bool is refused before any search, and never written into a certificate."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def bars(den):
    """Rational bars on the grid k/den and off it, negative and above 1 included."""
    return st.one_of(st.builds(Fraction, st.integers(-3 * den, 3 * den), st.just(den)),
                     st.fractions(-3, 3, max_denominator=4 * den))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), den=st.integers(1, 60), strict=st.booleans(),
       r=st.integers(2, 6), t=st.fractions(0, 1, max_denominator=12))
def test_the_integer_cut_and_the_heaviness_comparison_agree(data, den, strict, r, t):
    """`_least_numerator` is the least k past the bar, and `admits` holds exactly from that k on.

    These are the two homes of the tie rule: every integer sum is cut by the
    first, every Fraction weight is compared by the second.
    """
    x = data.draw(bars(den))
    k = core._least_numerator(x, den, strict)
    meets = Fraction.__gt__ if strict else Fraction.__ge__
    assert meets(Fraction(k, den), x) and not meets(Fraction(k - 1, den), x)

    params = FactorParams(r, t)
    cut = core._least_numerator(params.heavy_threshold, den, strict)
    for j in range(cut - den - 1, cut + den + 1):
        assert params.admits(Fraction(j, den), strict) == (j >= cut)


def test_heavy_boundary_separates_the_two_predicates():
    g = WeightedCompleteGraph(3, {(0, 1): Fraction(1), (0, 2): Fraction(1), (1, 2): Fraction(0)})
    p = FactorParams(r=3, t=Fraction(2, 3))
    assert g.clique_weight([0, 1, 2]) == p.heavy_threshold
    assert is_heavy(g, [0, 1, 2], p)
    assert not is_heavy(g, [0, 1, 2], p, strict=True)
    with pytest.raises(ValueError):
        is_heavy(g, [0, 1], p)


def test_overweight_edge_boundary_and_unreachable_bar():
    g = WeightedCompleteGraph(4, {(0, 1): Fraction(1, 2)})
    assert is_overweight_edge(g, (0, 1), FactorParams(r=2, t=Fraction(1, 2)))
    assert not is_overweight_edge(g, (0, 1), FactorParams(r=2, t=Fraction(51, 100)))
    # bar t*C(r,2) = 3/2 exceeds any single weight, so nothing qualifies
    ones = WeightedCompleteGraph.constant(4, Fraction(1))
    heavy_bar = FactorParams(r=3, t=Fraction(1, 2))
    assert not any(is_overweight_edge(ones, e, heavy_bar) for e in ones.pairs())


def test_clique_factor_canonical_order_and_validation():
    f = CliqueFactor.from_blocks([[5, 3, 4], [2, 0, 1]])
    assert f.blocks == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert frozenset().union(*f.blocks) == frozenset(range(6))
    f.validate(6, 3)
    with pytest.raises(ValueError):
        f.validate(6, 2)
    with pytest.raises(ValueError):
        CliqueFactor.from_blocks([[0, 1, 2], [2, 3, 4]]).validate(6, 3)
    with pytest.raises(ValueError):
        CliqueFactor.from_blocks([[0, 1, 2]]).validate(6, 3)


# ------------------------------------------------------------------- JSON


def test_graph_json_round_trip_lists_every_pair():
    rng = Random(31)
    g = random_grid_graph(rng, 6, denominator=9)
    doc = graph_to_json(g)
    assert len(doc["edges"]) == 15
    assert graph_from_json(doc) == g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 10), denominator=st.integers(1, 13))
def test_graph_json_round_trip_on_grid_graphs(seed, n, denominator):
    g = random_grid_graph(Random(seed), n, denominator=denominator)
    doc = graph_to_json(g)
    assert graph_from_json(doc) == g
    assert graph_from_json(json.loads(dumps_canonical(doc))) == g
    assert graph_to_json(graph_from_json(doc)) == doc


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.text(max_size=6),
                         st.sampled_from(["1/2", "2/3", "1", "0/1", "3/2", "1/0", "0.5", "-1/4"]))
EDGE_ENTRIES = st.one_of(
    st.tuples(st.integers(-1, 7), st.integers(-1, 7), JSON_SCALARS).map(list),
    st.lists(JSON_SCALARS, max_size=4),
    JSON_SCALARS,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=st.one_of(
    st.fixed_dictionaries({"n": st.one_of(st.integers(-1, 7), JSON_SCALARS)},
                          optional={"edges": st.one_of(st.lists(EDGE_ENTRIES, max_size=8), JSON_SCALARS)}),
    st.lists(JSON_SCALARS, max_size=3),
    JSON_SCALARS,
))
def test_graph_from_json_parses_or_names_the_fault(doc):
    """Fuzzed documents either load or raise GraphFormatError, nothing else."""
    try:
        g = graph_from_json(doc)
    except GraphFormatError:
        return
    assert g.n == doc["n"]
    assert graph_from_json(graph_to_json(g)) == g
    for i, j, text in doc.get("edges", []):
        assert g.weight(i, j) == parse_rational(text)


def test_graph_json_reads_sparse_documents():
    doc = {"n": 4, "edges": [[0, 1, "1/2"], [3, 2, "1/1"]]}
    g = graph_from_json(doc)
    assert g.weight(0, 1) == Fraction(1, 2)
    assert g.weight(2, 3) == 1
    assert g.weight(0, 2) == 0


MALFORMED_DOCUMENTS = [
    ([1, 2], "object", "graph document must be a JSON object"),
    ({"edges": []}, "'n'", "missing field 'n'"),
    ({"n": True}, "'n'", "field 'n': vertex count must be an integer, got True"),
    ({"n": 0}, "'n'", "field 'n': need at least one vertex, got n=0"),
    ({"n": 3, "edges": {}}, "'edges'", "field 'edges' must be a list"),
    ({"n": 3, "edges": [[0, 1]]}, "edges[0]", 'edges[0]: expected [i, j, "num/den"]'),
    ({"n": 3, "edges": [[0, 0, "1/2"]]}, "edges[0]", "edges[0]: pair (0, 0): repeats vertex 0"),
    ({"n": 3, "edges": [[0, 3, "1/2"]]}, "edges[0]", "edges[0]: pair (0, 3): vertex 3 out of range for n=3"),
    ({"n": 3, "edges": [[0, True, "1/2"]]}, "edges[0]", "edges[0]: pair (0, True): vertex must be an integer, got True"),
    ({"n": 3, "edges": [[0, 1, "0.5"]]}, "edges[0]", "edges[0]: decimal notation is not accepted: '0.5'"),
    ({"n": 3, "edges": [[0, 1, "3/2"]]}, "edges[0]", "edges[0]: weight 3/2 outside [0, 1]"),
    ({"n": 3, "edges": [[0, 1, "1/2"], [1, 0, "1/2"]]}, "edges[1]", "edges[1]: duplicate pair (0, 1)"),
    ({"n": 3, "edges": [[2, 1, "-2/4"]]}, "edges[0]", "edges[0]: weight -1/2 outside [0, 1]"),
    ({"n": 3, "edges": [[0, 1, "1/0"]]}, "edges[0]", "edges[0]: zero denominator: '1/0'"),
    ({"n": 3, "edges": [[0, 1, "x"]]}, "edges[0]", "edges[0]: not a rational: 'x'"),
    ({"n": 3, "edges": [[0, 1, " "]]}, "edges[0]", "edges[0]: empty rational"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "edges[0]", "edges[0]: weight 2/1 outside [0, 1]"),
    # the weight texts repeat, so the errors below come after memo hits
    ({"n": 4, "edges": [[0, 1, "1/2"], [0, 2, "2/4"], [1, 2, "1/2"], [0, 3, "1/3x"], [1, 3, "1/2"]]},
     "edges[3]", "edges[3]: not a rational: '1/3x'"),
    ({"n": 4, "edges": [[0, 1, "1/2"], [0, 2, "1/2"], [1, 2, "1/2"], [3, 1, "3/2"]]},
     "edges[3]", "edges[3]: weight 3/2 outside [0, 1]"),
    ({"n": 3, "edges": [[0, 1, "1/2"], [0, 2, "1/2"], [1, 0, "1/2"]]}, "edges[2]", "edges[2]: duplicate pair (0, 1)"),
    ({"n": 4, "edges": [[0, 1, "1/2"], [0, 2, "x"], [1, 2, "x"], [0, 3, "x"]]},
     "edges[1]", "edges[1]: not a rational: 'x'"),
    ({"n": 3, "edges": [[0, 1, "1/2"], [0, 2, 0.5]]}, "edges[1]", "edges[1]: decimal notation is not accepted: 0.5"),
    ({"n": 3, "edges": [[0, 1, 1], [0, 2, True]]}, "edges[1]", "edges[1]: not a rational: True"),
    # a construction descriptor has an `n` but is not a graph
    ({"kind": "prop2", "n": 6, "r": 3, "t": "2/3"}, "'kind'",
     "unexpected field 'kind': a graph document has only 'n' and 'edges'"),
    ({"n": 3, "edges": [], "weights": []}, "'weights'",
     "unexpected field 'weights': a graph document has only 'n' and 'edges'"),
    # a vertex that is not an int is refused before the pair is sorted
    ({"n": 3, "edges": [[0, "x", "1/2"]]}, "edges[0]", "edges[0]: pair (0, x): vertex must be an integer, got 'x'"),
    ({"n": 3, "edges": [[0, 1, None]]}, "edges[0]", "edges[0]: not a rational: None"),
    ({"n": 3, "edges": [[0, 1, "three"]]}, "edges[0]", "edges[0]: not a rational: 'three'"),
    ({"n": "3", "edges": []}, "'n'", "field 'n': vertex count must be an integer, got '3'"),
]


@pytest.mark.parametrize("doc,needle,message", MALFORMED_DOCUMENTS,
                         ids=[f"doc{k}-{needle}" for k, (_, needle, _) in enumerate(MALFORMED_DOCUMENTS)])
def test_graph_json_rejects_malformed_documents(doc, needle, message):
    """Each message in full; `needle` is the field it must name."""
    with pytest.raises(GraphFormatError) as err:
        graph_from_json(doc)
    assert str(err.value) == message
    assert needle in message


@st.composite
def sparse_documents(draw):
    """Documents listing some pairs, either way round, with unreduced texts such as "2/4" and "0/5"."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    edges = []
    for i, j in pairs[:draw(st.integers(0, len(pairs)))]:
        d = draw(st.sampled_from(GRID_DENOMINATORS))
        k = draw(st.integers(1, 3))
        text = f"{k * draw(st.integers(0, d))}/{k * d}" if draw(st.booleans()) else str(draw(st.integers(0, 1)))
        edges.append([j, i, text] if draw(st.booleans()) else [i, j, text])
    return {"n": n, "edges": edges}


# One weight per group, each group spelled several ways, JSON ints included.
SPELLINGS = [["1/2", "2/4", " 1/2 "], [1, "1", "1/1"], ["0/5", 0, "0"]]


@st.composite
def respelled_documents(draw):
    """Documents on up to 40 vertices, pairs either way round, where 0, 1/2 and 1 recur in several spellings.

    The other weights are grid texts, so a document mixes repeated and rare texts.
    """
    n = draw(st.integers(1, 40))
    rng = Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    edges = []
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            if rng.random() < 0.7:
                text = rng.choice(rng.choice(SPELLINGS))
            else:
                d = rng.choice(GRID_DENOMINATORS)
                text = f"{rng.randint(0, d)}/{d}"
            edges.append([j, i, text] if rng.random() < 0.5 else [i, j, text])
    rng.shuffle(edges)
    return {"n": n, "edges": edges}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=st.one_of(sparse_documents(), respelled_documents()))
def test_graph_from_json_is_the_fraction_constructor(doc):
    table = {(min(i, j), max(i, j)): parse_rational(text) for i, j, text in doc["edges"]}
    assert_fraction_path(graph_from_json(doc), doc["n"], table)


def test_graph_from_json_parses_each_distinct_text_once(monkeypatch):
    """An n = 60 file on the /20 grid has 1,770 weight texts but at most 21 distinct ones."""
    g = random_grid_graph(Random(43), 60, denominator=20)
    doc = json.loads(dumps_canonical(graph_to_json(g)))
    calls = []
    parse = core.parse_rational
    monkeypatch.setattr(core, "parse_rational", lambda text: calls.append(text) or parse(text))
    assert graph_from_json(doc) == g
    assert len(doc["edges"]) == 1770
    assert len(calls) == len(set(calls)) <= 21


@pytest.mark.parametrize("entry,pair,weight", [
    ([2, 0, "1/2"], (0, 2), Fraction(1, 2)), ((0, 2, "1/3"), (0, 2), Fraction(1, 3)),
    ([0, 2, 1], (0, 2), Fraction(1)), ([0, 2, " 1/4"], (0, 2), Fraction(1, 4)),
], ids=["reversed", "tuple", "int-text", "spaced-text"])
def test_graph_from_json_reads_entries_save_graph_does_not_write(entry, pair, weight):
    """An entry that fails the exact-type test takes the checked path to the same pair and weight."""
    g = random_grid_graph(Random(47), 9, denominator=6)
    doc = json.loads(dumps_canonical(graph_to_json(g)))
    doc["edges"][1] = entry  # edges[1] is the pair (0, 2)
    assert graph_from_json(doc) == g.with_weight(*pair, weight)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 10), denominator=st.integers(1, 13),
       factor=st.fractions(0, 1, max_denominator=12), w=grid_weights())
def test_graph_to_json_writes_what_format_rational_writes(seed, n, denominator, factor, w):
    """On grid graphs and their scaled and one-edge images, whose numerators share factors with `den`."""
    g = random_grid_graph(Random(seed), n, denominator=denominator)
    for h in (g, g.scale(factor), g.with_weight(0, n - 1, w)):
        assert graph_to_json(h) == {
            "n": n, "edges": [[i, j, format_rational(h.weight(i, j))] for i, j in h.pairs()]}


def test_save_and_load_round_trip(tmp_path):
    rng = Random(37)
    g = random_grid_graph(rng, 5, denominator=4)
    path = tmp_path / "g.json"
    save_graph(path, g)
    assert load_graph(path) == g
    # byte determinism of the serialized form
    save_graph(tmp_path / "g2.json", g)
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


@st.composite
def writer_graphs(draw):
    """Graphs on 1 to 25 vertices: grid graphs mixing several denominators, constant graphs, scaled images."""
    n = draw(st.integers(1, 25))
    rng = Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["grid", "mixed", "constant"]))
    if kind == "constant":
        g = WeightedCompleteGraph.constant(n, draw(grid_weights()))
    else:
        denominators = GRID_DENOMINATORS if kind == "mixed" else [draw(st.sampled_from(GRID_DENOMINATORS))]
        flat = [Fraction(rng.randint(0, d), d) for d in
                (rng.choice(denominators) for _ in range(n * (n - 1) // 2))]
        g = WeightedCompleteGraph.from_flat(n, flat)
    if draw(st.booleans()):
        g = g.scale(draw(st.fractions(0, 1, max_denominator=1000)))
    return g


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(g=writer_graphs())
def test_save_graph_writes_the_canonical_json_bytes(writer_dir, g):
    path = writer_dir / "g.json"
    save_graph(path, g)
    assert path.read_bytes() == dumps_canonical(graph_to_json(g)).encode("utf-8")
    assert load_graph(path) == g


@pytest.mark.parametrize("graph,text", [
    (WeightedCompleteGraph.constant(1, 0), '{\n  "edges": [],\n  "n": 1\n}\n'),
    (WeightedCompleteGraph.constant(2, Fraction(2, 4)),
     '{\n  "edges": [\n    [\n      0,\n      1,\n      "1/2"\n    ]\n  ],\n  "n": 2\n}\n'),
], ids=["n1", "n2"])
def test_save_graph_small_files_are_pinned(tmp_path, graph, text):
    path = tmp_path / "g.json"
    save_graph(path, graph)
    assert path.read_text(encoding="utf-8") == text == dumps_canonical(graph_to_json(graph))
    assert load_graph(path) == graph


def test_load_graph_reports_json_syntax_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,\n  "edges": [[0 1]]}\n', encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert "line" in str(err.value)


def test_load_graph_rejects_a_document_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}: invalid JSON: nested too deeply to parse"


def test_dumps_canonical_sorts_keys_and_ends_with_newline():
    text = dumps_canonical({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [2, 3], "b": 1}
