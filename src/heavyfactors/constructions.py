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
graph bit-exactly, so files on disk can say where they came from.  `KINDS`
is the one table of which fields each kind reads besides `n` and `scale`,
and which of them it may omit.  A descriptor is checked once, where it
enters, by `_checked_descriptor`: from `build`'s keywords and from a JSON
document.  `rebuild` goes through `build` and refuses a descriptor whose
partition is not the one the rebuilt graph has.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from .core import (
    WeightedCompleteGraph,
    _check_block_shape,
    _exact,
    _integer,
    _least_numerator,
    _require,
    _unit,
    format_rational,
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
        """Each field that is set, a rational `_FIELD_CHECKS` reads with `_exact` written as text."""
        doc = {"kind": self.kind}
        for name, check in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if value is not None:
                doc[name] = format_rational(value) if check is _exact else value
        if self.partition:
            doc["partition"] = {label: list(vs) for label, vs in self.partition.items()}
        return doc

    @classmethod
    def from_json(cls, doc) -> "ConstructionDescriptor":
        """The descriptor a JSON document holds, checked as `build` checks its keywords."""
        if not isinstance(doc, dict):
            raise ValueError(f"construction descriptor must be a JSON object, got {type(doc).__name__}")
        return _checked_descriptor(doc)


def _seed_shape(r: int, n: int) -> int:
    """n / r, by the shape rule of both seeds: integers r >= 2 dividing n, and n > r leaving n/r - 1 short."""
    _check_block_shape(r, n)
    if n <= r:
        raise ValueError(f"need n > r so the short side is nonempty, got n={n}, r={r}")
    return n // r


def prop2_construction(r: int, t, n: int) -> tuple[WeightedCompleteGraph, ConstructionDescriptor]:
    """Two-class weighting: A = first n/r - 1 vertices, weight t inside B.

    Every edge touching A has weight 1; edges inside B = {n/r - 1, ..., n - 1}
    have weight t.  Any r vertices of B span weight exactly t * C(r, 2), so no
    block inside B is ever strictly heavy, and pigeonhole forces one: a factor
    has n/r blocks but only n/r - 1 vertices outside B.  The minimum weighted
    degree is min{n - 1, k - 1 + t (n - k)} with k = n/r.
    """
    k = _seed_shape(r, n)
    tt = _unit(t, "level t")
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
    """Closed form min{n - 1, k - 1 + t (n - k)} for the two-class weighting.

    r, t and n are refused where `prop2_construction` refuses them.
    """
    k = _seed_shape(r, n)
    return min(Fraction(n - 1), Fraction(k - 1) + _unit(t, "level t") * (n - k))


def hs_sharpness_parts(r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Part sizes n/r + 1, then r - 2 parts of n/r, then n/r - 1, consecutive."""
    k = _seed_shape(r, n)
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
    if _integer(n, "vertex count") % 36 != 0 or n <= 0:
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


def _grid_denominator(d: int) -> int:
    """`d`, refused unless an integer of at least 1: the grid rule of the sampler and the annealer."""
    if _integer(d, "grid denominator") < 1:
        raise ValueError(f"grid denominator must be >= 1, got {d}")
    return d


def _sample_grid_floor(rng: random.Random, n: int, d: int, per_edge: Fraction) -> WeightedCompleteGraph:
    """Every edge uniform on the grid values k/d at or above `per_edge`.

    Every degree is then at least (n - 1) * per_edge on the one draw; the
    degree check below keeps that a checked fact (CertificationError).  A
    grid denominator d < 1 and a floor per_edge > 1, which leaves no grid
    value in [0, 1], raise ValueError before anything is drawn; for d >= 1
    every floor up to 1 leaves at least the value d/d.

    Each weight is lo + x for x uniform below width = d + 1 - lo, drawn as
    `random.Random.randint(lo, d)` draws it: one `getrandbits` of
    width.bit_length() bits per try, until a try falls below width.  The
    values and the stream's state afterwards are randint's, without its
    three Python calls per edge.
    """
    _grid_denominator(d)
    target = (n - 1) * per_edge
    if per_edge > 1:
        raise ValueError(
            f"sampling failure: degree target {format_rational(target)} needs "
            f"per-edge weight {format_rational(per_edge)} > 1 at n={n}"
        )
    lo = max(0, _least_numerator(per_edge, d))
    width = d + 1 - lo
    bits = width.bit_length()
    draw = rng.getrandbits
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        x = draw(bits)
        while x >= width:
            x = draw(bits)
        rows[i][j] = rows[j][i] = lo + x
    graph = WeightedCompleteGraph._from_rows(n, rows, d)
    degree = graph.min_weighted_degree()
    _require(degree >= target, f"sampled min degree {format_rational(degree)} "
                               f"below the target {format_rational(target)}")
    return graph


def random_weighting(n: int, grid_denominator: int, seed: int,
                     min_degree=None) -> WeightedCompleteGraph:
    """Seeded weighting with every edge weight on the grid {0, 1/d, ..., 1}.

    d is `grid_denominator`.  With min_degree=None each weight is uniform on
    the whole grid.  With a target delta, each weight is uniform on the top
    of the grid, at or above ceil(d * delta * n / (n - 1)) / d, so the one
    draw already has every degree at least delta * n; plain rejection would
    be hopeless for the targets this is used with.  A delta * n that needs a
    per-edge weight above 1 raises the sampler's ValueError.
    """
    md = None if min_degree is None else _unit(min_degree, "min degree")
    if _integer(n, "vertex count") < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    per_edge = Fraction(0) if md is None else md * n / (n - 1)
    return _sample_grid_floor(random.Random(_integer(seed, "seed")), n, grid_denominator, per_edge)


# kind -> (the fields it needs, {field it may omit: the value read in its place}, generator);
# every kind also reads n and scale
KINDS = {
    KIND_PROP2: (("r", "t"), {}, lambda d: prop2_construction(d.r, d.t, d.n)),
    KIND_HS: (("r",), {}, lambda d: hs_sharpness_construction(d.r, d.n)),
    KIND_COUNTEREXAMPLE: ((), {}, lambda d: counterexample_29_36(d.n)),
    KIND_RANDOM: ((), {"seed": 0, "grid_denominator": 12, "min_degree": None},
                  lambda d: (random_weighting(d.n, d.grid_denominator, d.seed, d.min_degree), d)),
}
_DESCRIPTOR_FIELDS = ConstructionDescriptor.__dataclass_fields__.keys()
# field -> its check; `_exact` also reads rational text as the command line does
_FIELD_CHECKS = {"n": _integer, "r": _integer, "seed": _integer, "grid_denominator": _integer,
                 "t": _exact, "scale": _exact, "min_degree": _exact}


def _checked_descriptor(fields: dict) -> ConstructionDescriptor:
    """The descriptor the given `fields` hold, the kind's defaults filled in: the one check of a descriptor.

    Each refusal is a ValueError, which names the field unless it is text
    `parse_rational` refuses; ranges and shapes are the generators' own checks.
    """
    for name in ("kind", "n"):
        if name not in fields:
            raise ValueError(f"construction descriptor is missing field {name!r}")
    for name in fields:
        if name not in _DESCRIPTOR_FIELDS:
            raise ValueError(f"construction descriptor has no field {name!r}")
    kind = fields["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown construction kind {kind!r}")
    needs, defaults, _ = KINDS[kind]
    for name in fields:
        if name not in ("kind", "n", "scale", "partition", *needs, *defaults):
            raise ValueError(f"construction kind {kind!r} does not read field {name!r}")
    for name in needs:
        if name not in fields:
            raise ValueError(f"construction descriptor is missing field {name!r}")
    checked = {name: check(fields[name], f"construction descriptor field {name!r}")
               for name, check in _FIELD_CHECKS.items() if name in fields}
    fields = {**defaults, **fields, **checked}
    partition = fields.get("partition", {})
    if not isinstance(partition, dict) or not all(isinstance(vs, (list, tuple)) for vs in partition.values()):
        raise ValueError("construction descriptor field 'partition' must map labels to vertex lists")
    fields["partition"] = {label: tuple(vs) for label, vs in partition.items()}
    return ConstructionDescriptor(**fields)


def build(kind: str, *, n: int, r: int | None = None, t=None, seed: int | None = None,
          grid_denominator: int | None = None, min_degree=None,
          scale=None) -> tuple[WeightedCompleteGraph, ConstructionDescriptor]:
    """The graph of one construction kind and its descriptor; used by the CLI and `rebuild`.

    A keyword left at None is not given.  The descriptor is checked and made
    first, so a field the kind does not read, one it needs and lacks, or one
    of the wrong type is refused before anything is generated; a random
    weighting left without a seed or grid draws from seed 0 on grid 12.
    """
    given = dict(kind=kind, n=n, r=r, t=t, seed=seed, grid_denominator=grid_denominator,
                 min_degree=min_degree, scale=scale)
    desc = _checked_descriptor({name: value for name, value in given.items() if value is not None})
    graph, made = KINDS[kind][2](desc)
    if desc.scale is not None:
        graph = graph.scale(desc.scale)
    return graph, replace(desc, partition=made.partition)


def rebuild(desc: ConstructionDescriptor) -> WeightedCompleteGraph:
    """Reconstruct the exact weighting a descriptor came from; refuse a partition it does not have."""
    graph, built = build(**{name: value for name, value in vars(desc).items() if name != "partition"})
    if desc.partition != built.partition:
        raise ValueError("construction descriptor field 'partition' is not the partition of the rebuilt graph")
    return graph
