"""Exact-rational weighted complete graphs and the heaviness vocabulary.

An edge weighting of the complete graph K_n assigns every unordered pair a
weight in [0, 1].  Everything here is exact: a graph holds its weights as
integers over one common denominator, its accessors return weights, degrees
and clique weights as `fractions.Fraction` values, and the heavy / overweight
predicates compare them with no floating point anywhere.  For clique size r
and level t, an r-set is heavy when its total edge weight reaches
t * C(r, 2); the strict variant demands strictly more.  The boundary
matters: the two families of weightings that pin the extremal threshold
differ exactly in whether ties count, so every caller passes a `strict`
flag, to `FactorParams.admits` for a Fraction weight and to
`_least_numerator`, the one integer cut of a rational bar, for integer sums.

Graphs are immutable values.  Derived graphs (scaled, induced, single edge
replaced) are new objects, which keeps certificates trivially re-checkable.

A weight is checked once, where it enters: in a public constructor or in
`graph_from_json`, whose messages name `edges[k]`, and always by `_unit`,
the one [0, 1] check of every weight, level, scale and density.  A graph
file's weights are checked once per distinct text and land in integer rows,
with no Fraction per edge.  An entry as `save_graph` writes it passes on its exact
types alone; any other entry takes the checks that name its fault.  Package
code that holds integer weights over one denominator calls `_from_rows`,
which trusts them.

A rational is read by `_exact` (text by `parse_rational`), an integer (a
vertex count, r, a seed, a vertex) by `_integer`, which takes an `int` and no
other type, a tie flag by `_flag`, which takes a `bool` and no other type, and
a vertex set (a pair, a clique, degree targets, an induced set, a factor's
union) by `_vertex_set`, the one check of distinct vertices in range(n).

A graph file is the canonical JSON text of `graph_to_json`: sorted keys,
two-space indent, every pair listed.  `save_graph` writes those bytes itself,
one line pattern per pair joined once, because `json.dumps` with an indent
runs CPython's pure-Python encoder; `dumps_canonical` writes every other
document.  Both graph writers take each weight's text from `_weight_texts`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
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

    Decimal and scientific notation ("0.5", "1e3": text `Fraction` reads) are
    rejected: weights travel end-to-end as exact rationals and a silent float
    would defeat every boundary test.
    """
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational")
    num, slash, den = s.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(s))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc
    except ValueError:
        pass
    try:
        Fraction(s)
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    raise ValueError(f"decimal notation is not accepted: {text!r}")


def format_rational(value) -> str:
    """Serialize a rational as "num/den", denominator always printed."""
    f = _exact(value, "value")
    return f"{f.numerator}/{f.denominator}"


def _exact(value, what: str) -> Fraction:
    """`value` as a Fraction, text as `parse_rational` reads it: the one reader of a rational, refusing other types."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"{what} must be an exact rational, not a {type(value).__name__}")


def _least_numerator(x, den: int, strict: bool = False) -> int:
    """Least integer k with k / den >= x (strict: > x): the one integer cut of a rational bar over `den`."""
    f = _exact(x, "bar")
    if _flag(strict, "strict"):
        return f.numerator * den // f.denominator + 1
    return -(-f.numerator * den // f.denominator)


def _unit(value, what: str) -> Fraction:
    """`value` as a Fraction in [0, 1]: the one range check of every weight, level, scale and density."""
    f = _exact(value, what)
    if f < 0 or f > 1:
        raise ValueError(f"{what} {format_rational(f)} outside [0, 1]")
    return f


def _nonnegative(value, what: str):
    """`value`, refused when negative: the one check of every cap, budget, retry count and epsilon."""
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def _integer(value, what: str) -> int:
    """`value`, refused unless its type is `int` (a bool is not): the one integer check of every count, size, seed and vertex."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _flag(value, what: str) -> bool:
    """`value`, refused unless its type is `bool`: the one check of every tie flag."""
    if type(value) is not bool:
        raise ValueError(f"{what} must be a bool, got {value!r}")
    return value


def _vertex_count(n: int) -> int:
    """`n`, refused unless an integer of at least 1: the one check that a vertex count leaves a graph to build."""
    if _integer(n, "vertex count") < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return n


def _vertex_set(vertices, n: int, what: str) -> tuple[int, ...]:
    """`vertices` sorted: the one check that they are distinct integers in range(n), each type checked before the sort."""
    vs = list(vertices)
    for v in vs:
        if type(v) is not int:  # an all-int set pays one type test per vertex, not a call
            _integer(v, f"{what}: vertex")
    vs.sort()
    if vs and (vs[0] < 0 or vs[-1] >= n):
        raise ValueError(f"{what}: vertex {vs[0] if vs[0] < 0 else vs[-1]} out of range for n={n}")
    if len(set(vs)) != len(vs):
        raise ValueError(f"{what}: repeats vertex {next(a for a, b in zip(vs, vs[1:]) if a == b)}")
    return tuple(vs)


def _require(ok: bool, what: str) -> None:
    """Raise CertificationError unless `ok`: the one raise of a failed check, which `python -O` keeps."""
    if not ok:
        raise CertificationError(what)


class WeightedCompleteGraph:
    """Complete graph on vertices 0..n-1 with symmetric rational edge weights.

    Held once, in lowest terms: `rows[i][j]` (diagonal 0) and `degrees[v]` are
    the integer numerators of w(i, j) and of v's degree over one denominator
    `den`, so equal weightings are equal values with equal hashes.  Accessors
    sum integers and return one Fraction; every builder goes through `_freeze`.
    """

    __slots__ = ("n", "rows", "den", "degrees")

    def __init__(self, n: int, weights: Mapping[tuple[int, int], Fraction] | None = None):
        _vertex_count(n)
        exact = {}
        for (i, j), w in (weights or {}).items():
            i, j = _vertex_set((i, j), n, f"edge ({i}, {j})")
            if (i, j) in exact:
                raise ValueError(f"pair ({i}, {j}) given twice")
            exact[i, j] = _unit(w, f"edge ({i}, {j}): weight")
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
        _vertex_count(n)
        g = gcd(den, *chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[x // g for x in row] for row in rows]
        self.n = n
        self.den = den
        self.rows = tuple(map(tuple, rows))
        self.degrees = tuple(map(sum, self.rows))

    @classmethod
    def constant(cls, n: int, w) -> "WeightedCompleteGraph":
        _vertex_count(n)
        ww = _unit(w, "constant weight")
        rows = [[0 if i == j else ww.numerator for j in range(n)] for i in range(n)]
        return cls._from_rows(n, rows, ww.denominator)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All unordered pairs (i, j) with i < j in lexicographic order."""
        return combinations(range(self.n), 2)

    def weight(self, i: int, j: int) -> Fraction:
        _vertex_set((i, j), self.n, "edge")
        return Fraction(self.rows[i][j], self.den)

    def weighted_degree(self, v: int) -> Fraction:
        """Sum of the weights of all n-1 edges at v."""
        _vertex_set((v,), self.n, "degree")
        return Fraction(self.degrees[v], self.den)

    def min_weighted_degree(self) -> Fraction:
        if self.n < 2:
            raise ValueError("min weighted degree needs at least two vertices")
        return Fraction(min(self.degrees), self.den)

    def weighted_degree_to(self, v: int, targets: Iterable[int]) -> Fraction:
        """Sum of weights from v into the vertex set `targets` (v excluded)."""
        targets = tuple(targets)
        _vertex_set((v, *targets), self.n, "source and targets")
        return Fraction(sum(self.rows[v][u] for u in targets), self.den)

    def clique_weight(self, vertices: Iterable[int]) -> Fraction:
        """Total edge weight inside the vertex set (needs at least 2 vertices)."""
        vs = _vertex_set(vertices, self.n, "clique")
        if len(vs) < 2:
            raise ValueError("clique weight needs at least two vertices")
        return Fraction(sum(self.rows[a][b] for a, b in combinations(vs, 2)), self.den)

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.degrees) // 2, self.den)

    def scale(self, factor) -> "WeightedCompleteGraph":
        """Multiply every weight by `factor` in [0, 1]; exact, no rounding."""
        f = _unit(factor, "scale factor")
        rows = [[x * f.numerator for x in row] for row in self.rows]
        return WeightedCompleteGraph._from_rows(self.n, rows, self.den * f.denominator)

    def with_weight(self, i: int, j: int, w) -> "WeightedCompleteGraph":
        """New graph equal to this one except for the single edge (i, j)."""
        _vertex_set((i, j), self.n, f"edge ({i}, {j})")
        ww = _unit(w, f"edge ({i}, {j}): weight")
        den = lcm(self.den, ww.denominator)
        rows = [[x * (den // self.den) for x in row] for row in self.rows]
        rows[i][j] = rows[j][i] = ww.numerator * (den // ww.denominator)
        return WeightedCompleteGraph._from_rows(self.n, rows, den)

    def threshold_masks(self, s) -> tuple[int, ...]:
        """The level-s threshold subgraph as adjacency masks.

        Bit u of mask v is set when u != v and w(u, v) >= s, decided on the
        integer rows against the one cut, `_least_numerator(s, den)`.
        """
        cut = _least_numerator(s, self.den)
        return tuple(sum(1 << u for u, w in enumerate(row) if w >= cut and u != v)
                     for v, row in enumerate(self.rows))

    def induced(self, vertices: Iterable[int]) -> tuple["WeightedCompleteGraph", tuple[int, ...]]:
        """Induced sub-weighting plus the sorted vertex map back to this graph."""
        vs = _vertex_set(vertices, self.n, "induced set")
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
        _check_block_shape(self.r, self.r)  # r divides itself, so only a non-integer or r < 2 is refused
        t = _unit(self.t, "level t")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "heavy_threshold", t * comb(self.r, 2))

    def admits(self, weight: Fraction, strict: bool = False) -> bool:
        """True when `weight` meets the bar (strict: exceeds it).

        The one heaviness comparison of a Fraction, called by `is_heavy` for
        blocks and by `is_overweight_edge` for single edges.
        """
        if _flag(strict, "strict"):
            return weight > self.heavy_threshold
        return weight >= self.heavy_threshold


def is_heavy(graph: WeightedCompleteGraph, vertices: Iterable[int], params: FactorParams,
             strict: bool = False) -> bool:
    """True when the r-set's total edge weight is at least t * C(r, 2) (strict: exceeds it)."""
    vs = tuple(vertices)
    if len(vs) != params.r:
        raise ValueError(f"expected {params.r} vertices, got {len(vs)}")
    return params.admits(graph.clique_weight(vs), strict)


def is_overweight_edge(graph: WeightedCompleteGraph, edge: tuple[int, int], params: FactorParams) -> bool:
    """True when a single edge already carries t * C(r, 2) on its own.

    For t * C(r, 2) > 1 no edge can qualify; the predicate is then constantly
    False rather than an error, since callers probe arbitrary parameter boxes.
    """
    i, j = edge
    return params.admits(graph.weight(i, j))


def _check_block_shape(r: int, n: int) -> None:
    """Raise ValueError unless r and n are integers and {0..n-1} splits into blocks of r >= 2 vertices."""
    _integer(r, "r")
    _integer(n, "vertex count")
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")


def _disjoint_blocks(blocks: Iterable[frozenset], size: int) -> set:
    """The union of `blocks`; raise ValueError unless each has `size` vertices and misses the earlier ones."""
    seen = set()
    for b in blocks:
        if len(b) != size:
            raise ValueError(f"block {sorted(b)} does not have size {size}")
        if not seen.isdisjoint(b):
            raise ValueError(f"block {sorted(b)} overlaps an earlier block")
        seen.update(b)
    return seen


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

    def validate(self, n: int, r: int) -> None:
        """Raise unless the blocks partition {0..n-1} into n/r sets of size r."""
        _check_block_shape(r, n)
        if len(self.blocks) != n // r:
            raise ValueError(f"expected {n // r} blocks, got {len(self.blocks)}")
        # n/r disjoint r-sets hold n distinct vertices, so they cover range(n) unless one is out of range
        _vertex_set(_disjoint_blocks(self.blocks, r), n, "factor")


def _weight_texts(graph: WeightedCompleteGraph) -> dict[int, str]:
    """Each distinct numerator of `graph.rows` -> its weight in lowest terms, as `format_rational` writes it."""
    den = graph.den
    texts = {}
    for x in set().union(*graph.rows):
        g = gcd(x, den)
        texts[x] = f"{x // g}/{den // g}"
    return texts


def graph_to_json(graph: WeightedCompleteGraph) -> dict:
    """JSON document for a weighting; every pair is written explicitly."""
    rows, texts = graph.rows, _weight_texts(graph)
    return {"n": graph.n, "edges": [[i, j, texts[rows[i][j]]] for i, j in graph.pairs()]}


def graph_from_json(doc) -> WeightedCompleteGraph:
    """Parse and validate the JSON graph document; missing pairs default to 0.

    A document holds `n` and `edges` and nothing else, so another document
    that happens to have an `n` (a construction descriptor) is refused.  Each
    distinct weight text is parsed and range-checked once.  A pair holds
    the index of its text, 0 while it is not given, and the indices become
    integer numerators over the lcm of the distinct weights at the end.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    for key in doc:
        if key not in ("n", "edges"):
            raise GraphFormatError(f"unexpected field {key!r}: a graph document has only 'n' and 'edges'")
    if "n" not in doc:
        raise GraphFormatError("missing field 'n'")
    try:
        n = _vertex_count(doc["n"])
    except ValueError as exc:
        raise GraphFormatError(f"field 'n': {exc}") from exc
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list")
    texts = {}
    values = [Fraction(0)]
    index = [[0] * n for _ in range(n)]
    for pos, entry in enumerate(edges):
        try:
            i, j, key = entry
        except (TypeError, ValueError):  # not three items
            i = None
        # an entry as `save_graph` writes it passes on exact types alone; any
        # other entry takes the checks that name its fault
        if not (type(entry) is list and type(i) is int and type(j) is int and 0 <= i < j < n
                and type(key) is str):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise GraphFormatError(f"edges[{pos}]: expected [i, j, \"num/den\"]")
            i, j, wtext = entry
            try:
                i, j = _vertex_set((i, j), n, f"pair ({i}, {j})")
            except ValueError as exc:
                raise GraphFormatError(f"edges[{pos}]: {exc}") from exc
            key = str(wtext)
        row = index[i]
        if row[j]:
            raise GraphFormatError(f"edges[{pos}]: duplicate pair ({i}, {j})")
        # parse_rational reads only str(wtext), so a text that parsed once
        # parses to the same weight again; a bad text raises at its first use.
        k = texts.get(key)
        if k is None:
            try:
                w = _unit(parse_rational(entry[2]), "weight")
            except ValueError as exc:
                raise GraphFormatError(f"edges[{pos}]: {exc}") from exc
            k = texts[key] = len(values)
            values.append(w)
        row[j] = index[j][i] = k
    den = lcm(*(w.denominator for w in values))
    nums = [w.numerator * (den // w.denominator) for w in values]
    return WeightedCompleteGraph._from_rows(n, [list(map(nums.__getitem__, row)) for row in index], den)


def save_graph(path, graph: WeightedCompleteGraph) -> None:
    """Write the bytes of `dumps_canonical(graph_to_json(graph))`, built as one join."""
    rows, texts = graph.rows, _weight_texts(graph)
    edges = ",\n".join(f'    [\n      {i},\n      {j},\n      "{texts[rows[i][j]]}"\n    ]'
                       for i, j in graph.pairs())
    body = f"[\n{edges}\n  ]" if edges else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "edges": {body},\n  "n": {graph.n}\n}}\n')


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
