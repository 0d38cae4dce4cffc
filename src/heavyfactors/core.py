"""Exact-rational weighted complete graphs and the heaviness vocabulary.

An edge weighting of the complete graph K_n assigns every unordered pair a
weight in [0, 1].  Everything here is exact: a graph holds its weights as
integers over one common denominator, its accessors return weights, degrees
and clique weights as `fractions.Fraction` values, and the heavy / overweight
predicates compare them with no floating point anywhere.  For clique size r
and level t, an r-set is heavy when its total edge weight reaches
t * C(r, 2); the strict variant demands strictly more.  The boundary
matters: the two families of weightings that pin the extremal threshold
differ exactly in whether ties count, so both predicates are first-class and
every caller says which one it means.

Graphs are immutable values.  Derived graphs (scaled, induced, single edge
replaced) are new objects, which keeps certificates trivially re-checkable.

A weight is checked once, where it enters: in a public constructor or in
`graph_from_json`, whose messages name `edges[k]`.  A graph file's weights
are checked once per distinct text and land in integer rows, with no
Fraction per edge.  Package code that holds integer weights over one
denominator calls `_from_rows`, which trusts them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence


class GraphFormatError(ValueError):
    """A graph JSON document is malformed; message names the offending field."""


class CapExceededError(RuntimeError):
    """An enumeration or solver cap would be exceeded; raised, never truncated."""


class BudgetExceededError(RuntimeError):
    """A retry or resample budget ran out before producing a feasible result."""


class CertificationError(RuntimeError):
    """A certified result failed its own check.

    Raised when the exact solver finds a factor where a certificate claims
    none exists, or when a record's degree is not what it was built to have.
    """


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer string) into a Fraction.

    Decimal and scientific notation are rejected: weights travel end-to-end as
    exact rationals and a silent float would defeat every boundary test.
    """
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational")
    if any(c in s for c in ".eE"):
        raise ValueError(f"decimal notation is not accepted: {text!r}")
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc
    except ValueError as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value) -> str:
    """Serialize a rational as "num/den", denominator always printed."""
    f = _exact(value, "value")
    return f"{f.numerator}/{f.denominator}"


def _exact(value, what: str) -> Fraction:
    """`value` as a Fraction; the one float check of every public entry taking a rational."""
    if isinstance(value, float):
        raise ValueError(f"{what} must be an exact rational, not a float")
    return Fraction(value)


def _coerce_weight(w, where: str) -> Fraction:
    f = _exact(w, where)
    if f < 0 or f > 1:
        raise ValueError(f"{where}: weight {f} outside [0, 1]")
    return f


class WeightedCompleteGraph:
    """Complete graph on vertices 0..n-1 with symmetric rational edge weights.

    Held once, in lowest terms: `rows[i][j]` (diagonal 0) and `degrees[v]` are
    the integer numerators of w(i, j) and of v's degree over one denominator
    `den`, so equal weightings are equal values with equal hashes.  Accessors
    sum integers and return one Fraction; every builder goes through `_freeze`.
    """

    __slots__ = ("n", "rows", "den", "degrees")

    def __init__(self, n: int, weights: Mapping[tuple[int, int], Fraction] | None = None):
        exact = {}
        for (i, j), w in (weights or {}).items():
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid vertex pair ({i}, {j}) for n={n}")
            if i > j:
                i, j = j, i
            if (i, j) in exact:
                raise ValueError(f"pair ({i}, {j}) given twice")
            exact[i, j] = _coerce_weight(w, f"edge ({i}, {j})")
        den = lcm(*(w.denominator for w in exact.values()))
        rows = [[0] * n for _ in range(n)]
        for (i, j), w in exact.items():
            rows[i][j] = rows[j][i] = w.numerator * (den // w.denominator)
        self._freeze(n, rows, den)

    @classmethod
    def from_flat(cls, n: int, flat: Sequence[Fraction]) -> "WeightedCompleteGraph":
        """Graph from one weight per pair, pairs in `pairs()` order."""
        if len(flat) != n * (n - 1) // 2:
            raise ValueError("flat weight vector has wrong length")
        return cls(n, dict(zip(combinations(range(n), 2), flat)))

    @classmethod
    def _from_rows(cls, n: int, rows, den: int) -> "WeightedCompleteGraph":
        """Trusted: `rows` are symmetric integer numerators in [0, den], zero on the diagonal."""
        g = cls.__new__(cls)
        g._freeze(n, rows, den)
        return g

    def _freeze(self, n: int, rows, den: int) -> None:
        """The one constructor: reduce rows/den to lowest terms, derive the degrees."""
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        g = gcd(den, *(x for row in rows for x in row))
        if g > 1:
            den //= g
            rows = [[x // g for x in row] for row in rows]
        self.n = n
        self.den = den
        self.rows = tuple(map(tuple, rows))
        self.degrees = tuple(map(sum, self.rows))

    @classmethod
    def constant(cls, n: int, w) -> "WeightedCompleteGraph":
        ww = _coerce_weight(w, "constant weight")
        rows = [[0 if i == j else ww.numerator for j in range(n)] for i in range(n)]
        return cls._from_rows(n, rows, ww.denominator)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All unordered pairs (i, j) with i < j in lexicographic order."""
        return combinations(range(self.n), 2)

    def _check_pair(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
            raise ValueError(f"invalid vertex pair ({i}, {j}) for n={self.n}")

    def least_numerator(self, x, strict: bool = False) -> int:
        """Least integer k with k / den >= x (strict: > x): the bar for sums of `rows`."""
        f = _exact(x, "bar")
        if strict:
            return f.numerator * self.den // f.denominator + 1
        return -(-f.numerator * self.den // f.denominator)

    def weight(self, i: int, j: int) -> Fraction:
        self._check_pair(i, j)
        return Fraction(self.rows[i][j], self.den)

    def weighted_degree(self, v: int) -> Fraction:
        """Sum of the weights of all n-1 edges at v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return Fraction(self.degrees[v], self.den)

    def min_weighted_degree(self) -> Fraction:
        if self.n < 2:
            raise ValueError("min weighted degree needs at least two vertices")
        return Fraction(min(self.degrees), self.den)

    def weighted_degree_to(self, v: int, targets: Iterable[int]) -> Fraction:
        """Sum of weights from v into the vertex set `targets` (v excluded)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        total = 0
        seen = set()
        for u in targets:
            if u == v:
                raise ValueError(f"target set contains the source vertex {v}")
            if u in seen:
                raise ValueError(f"duplicate target vertex {u}")
            self._check_pair(v, u)
            seen.add(u)
            total += self.rows[v][u]
        return Fraction(total, self.den)

    def clique_weight(self, vertices: Iterable[int]) -> Fraction:
        """Total edge weight inside the vertex set (needs at least 2 vertices)."""
        vs = sorted(vertices)
        if len(vs) < 2:
            raise ValueError("clique weight needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("clique vertex set contains duplicates")
        self._check_pair(vs[0], vs[-1])
        return Fraction(sum(self.rows[a][b] for a, b in combinations(vs, 2)), self.den)

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.degrees) // 2, self.den)

    def scale(self, factor) -> "WeightedCompleteGraph":
        """Multiply every weight by `factor` in [0, 1]; exact, no rounding."""
        f = _exact(factor, "scale factor")
        if f < 0 or f > 1:
            raise ValueError(f"scale factor {f} outside [0, 1]")
        rows = [[x * f.numerator for x in row] for row in self.rows]
        return WeightedCompleteGraph._from_rows(self.n, rows, self.den * f.denominator)

    def with_weight(self, i: int, j: int, w) -> "WeightedCompleteGraph":
        """New graph equal to this one except for the single edge (i, j)."""
        self._check_pair(i, j)
        ww = _coerce_weight(w, f"edge ({i}, {j})")
        den = lcm(self.den, ww.denominator)
        rows = [[x * (den // self.den) for x in row] for row in self.rows]
        rows[i][j] = rows[j][i] = ww.numerator * (den // ww.denominator)
        return WeightedCompleteGraph._from_rows(self.n, rows, den)

    def threshold_masks(self, s) -> tuple[int, ...]:
        """The level-s threshold subgraph as adjacency masks.

        Bit u of mask v is set when u != v and w(u, v) >= s, decided on the
        integer rows against `least_numerator(s)`.
        """
        cut = self.least_numerator(s)
        return tuple(sum(1 << u for u, w in enumerate(row) if w >= cut and u != v)
                     for v, row in enumerate(self.rows))

    def induced(self, vertices: Iterable[int]) -> tuple["WeightedCompleteGraph", tuple[int, ...]]:
        """Induced sub-weighting plus the sorted vertex map back to this graph."""
        vs = tuple(sorted(vertices))
        if len(vs) < 1 or len(set(vs)) != len(vs):
            raise ValueError("induced vertex set must be nonempty and duplicate-free")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise ValueError("induced vertex set out of range")
        rows = [[self.rows[a][b] for b in vs] for a in vs]
        return WeightedCompleteGraph._from_rows(len(vs), rows, self.den), vs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedCompleteGraph)
            and self.n == other.n
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.den, self.rows))

    def __repr__(self) -> str:
        return f"WeightedCompleteGraph(n={self.n})"


@dataclass(frozen=True)
class FactorParams:
    """Clique size r >= 2 and weight level t in [0, 1].

    `heavy_threshold` is the derived bar t * C(r, 2) an r-set's total edge
    weight is compared against; single edges are compared against the same bar
    for the overweight predicate.
    """

    r: int
    t: Fraction
    heavy_threshold: Fraction = field(init=False)

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 2:
            raise ValueError(f"clique size r must be an integer >= 2, got {self.r!r}")
        t = _exact(self.t, "t")
        if t < 0 or t > 1:
            raise ValueError(f"level t={t} outside [0, 1]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "heavy_threshold", t * comb(self.r, 2))

    def admits(self, weight: Fraction, strict: bool = False) -> bool:
        """True when `weight` meets the bar (strict: exceeds it).

        The one heaviness comparison: block weights, single overweight edges
        and the oracle all go through here.
        """
        if strict:
            return weight > self.heavy_threshold
        return weight >= self.heavy_threshold


def _block_weight(graph: WeightedCompleteGraph, vertices: Iterable[int], params: FactorParams) -> Fraction:
    vs = tuple(vertices)
    if len(vs) != params.r:
        raise ValueError(f"expected {params.r} vertices, got {len(vs)}")
    return graph.clique_weight(vs)


def is_heavy(graph: WeightedCompleteGraph, vertices: Iterable[int], params: FactorParams) -> bool:
    """True when the r-set's total edge weight is at least t * C(r, 2)."""
    return params.admits(_block_weight(graph, vertices, params))


def is_strictly_heavy(graph: WeightedCompleteGraph, vertices: Iterable[int], params: FactorParams) -> bool:
    """True when the r-set's total edge weight exceeds t * C(r, 2)."""
    return params.admits(_block_weight(graph, vertices, params), strict=True)


def is_overweight_edge(graph: WeightedCompleteGraph, edge: tuple[int, int], params: FactorParams) -> bool:
    """True when a single edge already carries t * C(r, 2) on its own.

    For t * C(r, 2) > 1 no edge can qualify; the predicate is then constantly
    False rather than an error, since callers probe arbitrary parameter boxes.
    """
    i, j = edge
    return params.admits(graph.weight(i, j))


def _check_block_shape(r: int, n: int) -> None:
    """Raise ValueError unless {0..n-1} splits into blocks of r >= 2 vertices."""
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")


@dataclass(frozen=True)
class CliqueFactor:
    """Partition of the vertex set into equal-size blocks, one clique each.

    Blocks are canonicalized: each is a frozenset, ordered by smallest member.
    """

    blocks: tuple[frozenset, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "CliqueFactor":
        canon = tuple(sorted((frozenset(b) for b in blocks), key=min))
        return cls(canon)

    @property
    def covered(self) -> frozenset:
        out = frozenset()
        for b in self.blocks:
            out |= b
        return out

    def validate(self, n: int, r: int) -> None:
        """Raise unless the blocks partition {0..n-1} into n/r sets of size r."""
        if n % r != 0:
            raise ValueError(f"r={r} does not divide n={n}")
        if len(self.blocks) != n // r:
            raise ValueError(f"expected {n // r} blocks, got {len(self.blocks)}")
        seen = set()
        for b in self.blocks:
            if len(b) != r:
                raise ValueError(f"block {sorted(b)} does not have size {r}")
            if seen & b:
                raise ValueError(f"block {sorted(b)} overlaps an earlier block")
            seen |= b
        if seen != set(range(n)):
            raise ValueError("blocks do not cover every vertex exactly once")

    def block_weights(self, graph: WeightedCompleteGraph) -> tuple[Fraction, ...]:
        return tuple(graph.clique_weight(b) for b in self.blocks)


def graph_to_json(graph: WeightedCompleteGraph) -> dict:
    """JSON document for a weighting; every pair is written explicitly.

    Each distinct numerator is written once, in lowest terms, as `format_rational` would.
    """
    rows, den = graph.rows, graph.den
    texts = {}
    for x in set().union(*rows):
        g = gcd(x, den)
        texts[x] = f"{x // g}/{den // g}"
    return {"n": graph.n, "edges": [[i, j, texts[rows[i][j]]] for i, j in graph.pairs()]}


def graph_from_json(doc) -> WeightedCompleteGraph:
    """Parse and validate the JSON graph document; missing pairs default to 0.

    Each distinct weight text is parsed and range-checked once.  A pair holds
    the index of its text, 0 while it is not given, and the indices become
    integer numerators over the lcm of the distinct weights at the end.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    if "n" not in doc:
        raise GraphFormatError("missing field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphFormatError(f"field 'n' must be a positive integer, got {n!r}")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list")
    texts = {}
    values = [Fraction(0)]
    index = [[0] * n for _ in range(n)]
    for pos, entry in enumerate(edges):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise GraphFormatError(f"edges[{pos}]: expected [i, j, \"num/den\"]")
        i, j, wtext = entry
        if not (isinstance(i, int) and isinstance(j, int)) or isinstance(i, bool) or isinstance(j, bool):
            raise GraphFormatError(f"edges[{pos}]: vertex indices must be integers")
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(f"edges[{pos}]: invalid pair ({i}, {j}) for n={n}")
        if index[i][j]:
            raise GraphFormatError(f"edges[{pos}]: duplicate pair ({min(i, j)}, {max(i, j)})")
        try:
            # parse_rational reads only str(wtext), so a text that parsed once
            # parses to the same weight again; a bad text raises at its first use.
            key = str(wtext)
            k = texts.get(key)
            if k is None:
                w = parse_rational(wtext)
                if w < 0 or w > 1:
                    raise ValueError(f"weight {format_rational(w)} outside [0, 1]")
                k = texts[key] = len(values)
                values.append(w)
        except ValueError as exc:
            raise GraphFormatError(f"edges[{pos}]: {exc}") from exc
        index[i][j] = index[j][i] = k
    den = lcm(*(w.denominator for w in values))
    nums = [w.numerator * (den // w.denominator) for w in values]
    return WeightedCompleteGraph._from_rows(n, [[nums[k] for k in row] for row in index], den)


def save_graph(path, graph: WeightedCompleteGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(graph_to_json(graph)))


def load_graph(path) -> WeightedCompleteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise GraphFormatError(f"{path}: invalid JSON: nested too deeply to parse") from exc
    return graph_from_json(doc)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed indentation, no timestamps."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
