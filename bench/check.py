"""Output checks that do not trust the library.

Nothing here imports `heavyfactors`.  Graph files and result documents are
parsed with the standard library and every weight comparison is redone in
this module's own `Fraction` arithmetic, so a defect in the library's I/O,
predicates or solver cannot also hide in the check.

Each `check_*` function returns None for a correct job and a one-line reason
otherwise.  A correct document that differs from its golden copy is drift,
reported separately by `drifted`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb

SCALE = Fraction(999, 1000)


def rational(text) -> Fraction:
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


def fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Graph:
    """Weights of a graph document, keyed by sorted vertex pair."""

    def __init__(self, n: int, weights: dict):
        self.n = n
        self.w = weights

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        doc = json.loads(text)
        n = doc["n"]
        weights = {(i, j): Fraction(0) for i, j in combinations(range(n), 2)}
        for i, j, w in doc["edges"]:
            key = (min(i, j), max(i, j))
            if key not in weights or i == j:
                raise ValueError(f"bad pair ({i}, {j})")
            weights[key] = rational(w)
            if not 0 <= weights[key] <= 1:
                raise ValueError(f"weight {w} outside [0, 1]")
        return cls(n, weights)

    def weight(self, i: int, j: int) -> Fraction:
        return self.w[(i, j) if i < j else (j, i)]

    def block_weight(self, block) -> Fraction:
        return sum((self.weight(a, b) for a, b in combinations(sorted(block), 2)), Fraction(0))

    def min_degree(self) -> Fraction:
        return min(
            sum((self.weight(v, u) for u in range(self.n) if u != v), Fraction(0))
            for v in range(self.n)
        )

    def twin_classes(self) -> int:
        """Number of classes of vertices u, v with w(u, x) = w(v, x) for all other x."""
        reps: list[int] = []
        for v in range(self.n):
            for u in reps:
                if all(self.weight(u, x) == self.weight(v, x)
                       for x in range(self.n) if x not in (u, v)):
                    break
            else:
                reps.append(v)
        return len(reps)


def prop2_weights(n: int, r: int, t: Fraction) -> dict:
    """The two-class weighting scaled by 999/1000: 1 at the first n/r - 1 vertices, t elsewhere."""
    k = n // r
    return {(i, j): SCALE * (1 if i < k - 1 else t) for i, j in combinations(range(n), 2)}


def hs_parts(n: int, r: int) -> list[range]:
    k = n // r
    sizes = [k + 1] + [k] * (r - 2) + [k - 1]
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    return [range(s, s + size) for s, size in zip(starts, sizes)]


def infeasible_by_construction(graph: Graph, spec: dict) -> str | None:
    """Reason the input is not one whose infeasibility the construction proves, or None.

    prop2: every weight is at most the scaled two-class weight.  A factor has
    n/r blocks but only n/r - 1 vertices carry weight-1 edges, so some block
    lies among the others and weighs at most (999/1000) t C(r, 2), below the
    bar; lowering weights keeps that true.
    hs-sharpness at t = 1: a heavy block needs all its edges at weight 1, so
    no two of its vertices share a part, and the short part has only n/r - 1
    vertices for n/r blocks.
    """
    n, r = graph.n, spec["r"]
    if spec["family"] == "prop2":
        bound = prop2_weights(n, r, rational(spec["t"]))
        for pair, w in graph.w.items():
            if w > bound[pair]:
                return f"edge {pair} weight {fmt(w)} exceeds the construction's {fmt(bound[pair])}"
        return None
    if spec["family"] == "hs":
        for part in hs_parts(n, r):
            for a, b in combinations(part, 2):
                if graph.weight(a, b) != 0:
                    return f"edge ({a}, {b}) inside a part is not 0"
        return None
    return f"unknown family {spec['family']!r}"


def check_certify(doc: dict, code, spec: dict, graph: Graph) -> str | None:
    reason = infeasible_by_construction(graph, spec)
    if reason:
        return f"input: {reason}"
    if code != 1:
        return f"exit code {code}, expected 1 (exhausted)"
    if doc.get("outcome") != "exhausted" or doc.get("blocks") is not None:
        return f"outcome {doc.get('outcome')!r} on an input with no factor"
    if (doc.get("n"), doc.get("r"), doc.get("t"), doc.get("strict")) != (
            graph.n, spec["r"], spec["t"], spec["strict"]):
        return "document does not echo the request"
    return None


def check_verify(doc: dict, code, spec: dict, golden: dict) -> str | None:
    if (doc.get("r"), doc.get("n"), doc.get("t"), doc.get("trials")) != (
            spec["r"], spec["n"], spec["t"], spec["trials"]):
        return "document does not echo the request"
    violations = doc.get("violations")
    if not isinstance(violations, list):
        return "no violation list"
    if (doc.get("passes"), len(violations)) != (golden["passes"], golden["violations"]):
        return (f"passes/violations {doc.get('passes')}/{len(violations)} differ from "
                f"golden {golden['passes']}/{golden['violations']}")
    if code != (0 if golden["violations"] == 0 else 1):
        return f"exit code {code}"
    return None


def check_anneal(doc: dict, code, spec: dict, weighting: Graph) -> str | None:
    if code != 0:
        return f"exit code {code}"
    n, r, t = spec["n"], spec["r"], rational(spec["t"])
    k = n // r
    seed_value = SCALE * min(Fraction(n - 1), Fraction(k - 1) + t * (n - k))
    cert = doc.get("certificate") or {}
    if doc.get("certified") is not True or cert.get("outcome") != "exhausted" \
            or cert.get("strict") is not True:
        return "record is not certified by a strict exhaustion"
    value = rational(doc["value"])
    if value < seed_value:
        return f"value {fmt(value)} below the prop2 seed value {fmt(seed_value)}"
    if weighting.n != n or weighting.min_degree() != value:
        return f"value {fmt(value)} is not the weighting's minimum degree"
    return None


def check_scheme2(doc: dict, code, spec: dict, graph: Graph) -> str | None:
    r, t = spec["r"], rational(spec["t"])
    if code == 1:
        ok = doc.get("outcome") == "none-found" and doc.get("blocks") is None
        return None if ok else "exit code 1 without a none-found document"
    if code != 0 or doc.get("outcome") != "factor":
        return f"exit code {code}, outcome {doc.get('outcome')!r}"
    blocks = doc.get("blocks") or []
    seen = sorted(v for b in blocks for v in b)
    if seen != list(range(graph.n)) or any(len(b) != r for b in blocks):
        return "blocks are not a partition into r-sets"
    bar = t * comb(r, 2)
    weights = [graph.block_weight(b) for b in blocks]
    if any(w < bar for w in weights):
        return f"a block weighs less than {fmt(bar)}"
    if doc.get("block_weights") != [fmt(w) for w in weights]:
        return "reported block weights are wrong"
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def drifted(text: str, golden: dict | None) -> bool:
    return golden is not None and digest(text) != golden["sha"]
