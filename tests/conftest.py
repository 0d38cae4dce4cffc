"""Shared helpers for the test suite.

Graphs used in randomized sweeps are drawn from a /D grid so every weight is
an exact rational with a small denominator.  Samplers take an explicit
`random.Random` instance; tests own their seeds and every sweep is
reproducible.
"""

import os
from fractions import Fraction
from itertools import combinations
from random import Random

import heavyfactors
from heavyfactors import WeightedCompleteGraph

# Tests that start `python -m heavyfactors.cli` or `python -O -c ...` must
# import the same package as the suite, whether it is installed or found
# through pytest's `pythonpath` setting.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(os.path.abspath(heavyfactors.__file__))),
    os.environ.get("PYTHONPATH"),
]))


def pair_table(n: int, flat) -> dict:
    """{(i, j): weight} for i < j from one weight per pair in lexicographic order.

    The plain Fraction table the references in the tests sum, independent of
    how the graph under test stores its weights.
    """
    return dict(zip(combinations(range(n), 2), flat))


def assert_fraction_path(g: WeightedCompleteGraph, n: int, table: dict) -> None:
    """`g` is, field for field, the graph the plain Fraction constructor builds from `table`."""
    ref = WeightedCompleteGraph(n, table)
    assert (g.n, g.rows, g.den, g.degrees, hash(g)) == (ref.n, ref.rows, ref.den, ref.degrees, hash(ref))


def random_grid_weights(rng: Random, n: int, denominator: int = 4) -> list[Fraction]:
    """Uniform i.i.d. weights from {0/D, 1/D, ..., D/D}, one per pair."""
    return [Fraction(rng.randint(0, denominator), denominator) for _ in range(n * (n - 1) // 2)]


def random_grid_graph(rng: Random, n: int, denominator: int = 4) -> WeightedCompleteGraph:
    return WeightedCompleteGraph.from_flat(n, random_grid_weights(rng, n, denominator))


def sparse_grid_weights(rng: Random, n: int, denominator: int = 12, zero_prob: float = 0.9) -> list[Fraction]:
    """Mostly-zero weights; nonzero entries land on the /D grid.

    Useful for exercising small heavy families: with most edges at 0 the
    maximum heavy collections stay tiny and exhaustive structure checks are
    cheap.
    """
    flat = []
    for _ in range(n * (n - 1) // 2):
        if rng.random() < zero_prob:
            flat.append(Fraction(0))
        else:
            flat.append(Fraction(rng.randint(1, denominator), denominator))
    return flat


def sparse_grid_graph(rng: Random, n: int, denominator: int = 12, zero_prob: float = 0.9) -> WeightedCompleteGraph:
    return WeightedCompleteGraph.from_flat(n, sparse_grid_weights(rng, n, denominator, zero_prob))


def eroded_graph(rng: Random, n: int, target: Fraction, denominator: int = 10,
                 attempts: int = 30) -> WeightedCompleteGraph:
    """All-ones graph with random edges lowered while min degree stays >= target."""
    g = WeightedCompleteGraph.constant(n, Fraction(1))
    for _ in range(attempts):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        w = Fraction(rng.randint(0, denominator), denominator)
        if w >= g.weight(i, j):
            continue
        candidate = g.with_weight(i, j, w)
        if candidate.min_weighted_degree() >= target:
            g = candidate
    return g
