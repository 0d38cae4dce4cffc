"""Generators for the extremal weightings the threshold story is built on.

Three deterministic families and one seeded sampler:

* the two-class weighting whose scaled copies certify every lower bound the
  lab reports: a clique side A of k-1 vertices joined by weight 1 to
  everything, and weight t inside the big side B, so any r-block inside B is
  exactly at the heaviness boundary and never above it;
* the complete-multipartite 0/1 weighting with one oversized and one
  undersized part, whose minimum degree (1 - 1/r) n - 1 admits no factor by
  pigeonhole on the short part;
* the 36-divisible triangle counterexample: a 29n/36 / 7n/36 split with a
  circulant inside the big side tuned so each small-side vertex lies in too
  few full-weight triangles for the natural 5/9 level to survive;
* seeded grid-valued random weightings, optionally conditioned on a minimum
  degree by drawing every edge from the top of the grid, so one draw meets it.

Each deterministic generator also returns a descriptor that reproduces the
graph bit-exactly, so files on disk can say where they came from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from .core import (
    BudgetExceededError,
    CertificationError,
    WeightedCompleteGraph,
    _check_block_shape,
    _exact,
    format_rational,
    parse_rational,
)

KIND_PROP2 = "prop2"
KIND_HS = "hs-sharpness"
KIND_COUNTEREXAMPLE = "counterexample-29-36"
KIND_RANDOM = "random-min-degree"


@dataclass(frozen=True)
class ConstructionDescriptor:
    """Everything needed to rebuild a generated weighting bit-exactly."""

    kind: str
    n: int
    r: int | None = None
    t: Fraction | None = None
    seed: int | None = None
    scale: Fraction | None = None
    grid_denominator: int | None = None
    min_degree: Fraction | None = None
    partition: dict = field(default_factory=dict)  # label -> sorted vertex tuple

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "n": self.n}
        if self.r is not None:
            doc["r"] = self.r
        if self.t is not None:
            doc["t"] = format_rational(self.t)
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.scale is not None:
            doc["scale"] = format_rational(self.scale)
        if self.grid_denominator is not None:
            doc["grid_denominator"] = self.grid_denominator
        if self.min_degree is not None:
            doc["min_degree"] = format_rational(self.min_degree)
        if self.partition:
            doc["partition"] = {label: list(vs) for label, vs in self.partition.items()}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ConstructionDescriptor":
        return cls(
            kind=doc["kind"],
            n=doc["n"],
            r=doc.get("r"),
            t=parse_rational(doc["t"]) if "t" in doc else None,
            seed=doc.get("seed"),
            scale=parse_rational(doc["scale"]) if "scale" in doc else None,
            grid_denominator=doc.get("grid_denominator"),
            min_degree=parse_rational(doc["min_degree"]) if "min_degree" in doc else None,
            partition={k: tuple(v) for k, v in doc.get("partition", {}).items()},
        )


def prop2_construction(r: int, t, n: int) -> tuple[WeightedCompleteGraph, ConstructionDescriptor]:
    """Two-class weighting: A = first n/r - 1 vertices, weight t inside B.

    Every edge touching A has weight 1; edges inside B = {n/r - 1, ..., n - 1}
    have weight t.  Any r vertices of B span weight exactly t * C(r, 2), so no
    block inside B is ever strictly heavy, and pigeonhole forces one: a factor
    has n/r blocks but only n/r - 1 vertices outside B.  The minimum weighted
    degree is min{n - 1, k - 1 + t (n - k)} with k = n/r.
    """
    _check_block_shape(r, n)
    if n <= r:
        raise ValueError(f"need n > r so the clique side is nonempty, got n={n}, r={r}")
    tt = _exact(t, "t")
    if tt < 0 or tt > 1:
        raise ValueError(f"level t={tt} outside [0, 1]")
    k = n // r
    a_side = tuple(range(k - 1))
    b_side = tuple(range(k - 1, n))
    rows = [[0 if i == j else tt.numerator if min(i, j) >= k - 1 else tt.denominator
             for j in range(n)] for i in range(n)]
    graph = WeightedCompleteGraph._from_rows(n, rows, tt.denominator)
    desc = ConstructionDescriptor(
        kind=KIND_PROP2, n=n, r=r, t=tt,
        partition={"A": a_side, "B": b_side},
    )
    return graph, desc


def prop2_min_degree(r: int, t, n: int) -> Fraction:
    """Closed form min{n - 1, k - 1 + t (n - k)} for the two-class weighting."""
    k = n // r
    return min(Fraction(n - 1), Fraction(k - 1) + _exact(t, "t") * (n - k))


def hs_sharpness_parts(r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Part sizes n/r + 1, then r - 2 parts of n/r, then n/r - 1, consecutive."""
    _check_block_shape(r, n)
    if n <= r:
        raise ValueError(f"need n > r so the short part is nonempty, got n={n}, r={r}")
    k = n // r
    sizes = [k + 1] + [k] * (r - 2) + [k - 1]
    parts = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    return tuple(parts)


def hs_sharpness_construction(r: int, n: int) -> tuple[WeightedCompleteGraph, ConstructionDescriptor]:
    """Complete multipartite 0/1 weighting with one long and one short part.

    Edges between parts weigh 1, edges inside a part weigh 0.  At level t = 1
    a heavy r-block must take one vertex per part, and there are only
    n/r - 1 vertices in the short part, so no factor exists even though the
    minimum weighted degree is (1 - 1/r) n - 1.
    """
    parts = hs_sharpness_parts(r, n)
    part_of = {v: idx for idx, part in enumerate(parts) for v in part}
    rows = [[int(part_of[i] != part_of[j]) for j in range(n)] for i in range(n)]
    graph = WeightedCompleteGraph._from_rows(n, rows, 1)
    desc = ConstructionDescriptor(
        kind=KIND_HS, n=n, r=r,
        partition={f"part{idx}": part for idx, part in enumerate(parts)},
    )
    return graph, desc


def counterexample_29_36(n: int) -> tuple[WeightedCompleteGraph, ConstructionDescriptor]:
    """The 0/1 weighting separating the triangle threshold from 5/9 at level 2/3.

    A = first 29n/36 vertices, B = last 7n/36.  All A-B edges weigh 1; inside
    A a circulant with offsets 1..11n/36 (so (11n/18)-regular) weighs 1;
    everything else weighs 0.  Minimum weighted degree is 29n/36 (attained on
    both sides), yet each B-vertex lies in exactly (29n/36)(11n/36) triangles
    of weight 3, fewer than a 5/9-level lower bound for triangle factors
    requires.
    """
    if n % 36 != 0 or n <= 0:
        raise ValueError(f"need n divisible by 36, got n={n}")
    a_size = 29 * n // 36
    offset_max = 11 * n // 36
    a_side = tuple(range(a_size))
    b_side = tuple(range(a_size, n))
    rows = [[0] * n for _ in range(n)]
    for i in range(a_size):
        for off in range(1, offset_max + 1):
            j = (i + off) % a_size
            rows[i][j] = rows[j][i] = 1
        for j in b_side:
            rows[i][j] = rows[j][i] = 1
    graph = WeightedCompleteGraph._from_rows(n, rows, 1)
    desc = ConstructionDescriptor(
        kind=KIND_COUNTEREXAMPLE, n=n,
        partition={"A": a_side, "B": b_side},
    )
    return graph, desc


def _sample_grid_floor(rng: random.Random, n: int, d: int, per_edge: Fraction) -> WeightedCompleteGraph:
    """Every edge uniform on the grid values k/d at or above `per_edge`.

    Every degree is then at least (n - 1) * per_edge on the one draw; the
    degree check below keeps that a checked fact (CertificationError).  The
    caller rejects per_edge > 1 first: for d >= 1 that is exactly when no
    grid value is left.
    """
    lo = max(0, -((-per_edge.numerator * d) // per_edge.denominator))  # ceil(per_edge * d), at least 0
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.randint(lo, d)
    graph = WeightedCompleteGraph._from_rows(n, rows, d)
    target = (n - 1) * per_edge
    degree = graph.min_weighted_degree()
    if degree < target:
        raise CertificationError(
            f"sampled min degree {format_rational(degree)} "
            f"below the target {format_rational(target)}"
        )
    return graph


def random_weighting(n: int, grid_denominator: int, seed: int,
                     min_degree=None) -> WeightedCompleteGraph:
    """Seeded weighting with every edge weight on the grid {0, 1/d, ..., 1}.

    d is `grid_denominator`.  With min_degree=None each weight is uniform on
    the whole grid.  With a target delta, each weight is uniform on the top
    of the grid, at or above ceil(d * delta * n / (n - 1)) / d, so the one
    draw already has every degree at least delta * n; plain rejection would
    be hopeless for the targets this is used with.  A delta * n that needs a
    per-edge weight above 1 raises BudgetExceededError.
    """
    if grid_denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {grid_denominator}")
    md = None if min_degree is None else _exact(min_degree, "min degree")
    if md is not None and (md < 0 or md > 1):
        raise ValueError(f"min degree fraction {md} outside [0, 1]")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    per_edge = Fraction(0)
    if md is not None:
        per_edge = md * n / (n - 1)
        if per_edge > 1:
            raise BudgetExceededError(
                f"min degree {format_rational(md)} * n is unreachable: "
                f"needs per-edge weight {format_rational(per_edge)} > 1"
            )
    return _sample_grid_floor(random.Random(seed), n, grid_denominator, per_edge)


def build(kind: str, *, n: int, r: int | None = None, t=None, seed: int | None = None,
          grid_denominator: int | None = None, min_degree=None,
          scale=None) -> tuple[WeightedCompleteGraph, ConstructionDescriptor]:
    """Uniform front end over all generators; used by the CLI and `rebuild`."""
    if kind == KIND_PROP2:
        if r is None or t is None:
            raise ValueError("prop2 needs r and t")
        graph, desc = prop2_construction(r, t, n)
    elif kind == KIND_HS:
        if r is None:
            raise ValueError("hs-sharpness needs r")
        graph, desc = hs_sharpness_construction(r, n)
    elif kind == KIND_COUNTEREXAMPLE:
        graph, desc = counterexample_29_36(n)
    elif kind == KIND_RANDOM:
        if grid_denominator is None:
            raise ValueError("random weighting needs a grid denominator")
        if seed is None:
            seed = 0
        md = None if min_degree is None else _exact(min_degree, "min degree")
        graph = random_weighting(n, grid_denominator, seed, md)
        desc = ConstructionDescriptor(
            kind=KIND_RANDOM, n=n, seed=seed,
            grid_denominator=grid_denominator, min_degree=md,
        )
    else:
        raise ValueError(f"unknown construction kind {kind!r}")
    if scale is not None:
        f = _exact(scale, "scale factor")
        graph = graph.scale(f)
        desc = replace(desc, scale=f)
    return graph, desc


def rebuild(desc: ConstructionDescriptor) -> WeightedCompleteGraph:
    """Reconstruct the exact weighting a descriptor came from."""
    graph, _ = build(
        desc.kind, n=desc.n, r=desc.r, t=desc.t, seed=desc.seed,
        grid_denominator=desc.grid_denominator, min_degree=desc.min_degree,
        scale=desc.scale,
    )
    return graph
