"""Experiment harness around the extremal threshold.

For clique size r and level t, the threshold is the least minimum weighted
degree above which a heavy factor can no longer be avoided.  Lower bounds
come from exhibiting weightings where every factor keeps a block at or below
the bar; the strict-mode exact solver certifies exactly that, so every
certified record here is a finite-n theorem, not an estimate.  It says that
no factor of strictly heavy blocks exists, not that no factor of blocks at
or above the bar does: an annealed record can still admit one.

Pieces: closed-form evaluation of the two-class seed weighting (scaled a hair
below 1 so its boundary blocks drop strictly under the bar), a simulated-
annealing adversary that perturbs one grid-valued edge at a time while the
strict solver keeps certifying infeasibility, a sampling check that graphs
at the proven degree line plus a margin, (1/2 + t/2 + margin) n, digest into
factors, and a scan that tabulates the seed records against the conjectured
asymptote 1/r + (1 - 1/r) t and the proven ceiling 1/2 + t/2.

The degree values in records are absolute (already multiplied by n); the
conjecture and ceiling columns are densities in [0, 1].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .constructions import _grid_denominator, _sample_grid_floor, _seed_shape, prop2_construction, prop2_min_degree
from .core import (
    CapExceededError,
    FactorParams,
    WeightedCompleteGraph,
    _check_block_shape,
    _exact,
    _integer,
    _nonnegative,
    _require,
    _unit,
    _vertex_count,
    format_rational,
)
from .solver import DEFAULT_SOLVER_CAP, SolveCertificate, find_heavy_factor

DEFAULT_SCALE = Fraction(999, 1000)
# annealing temperature, geometric from start to end over the budget, in
# units of min degree / n
TEMP_START = 0.25
TEMP_END = 0.005


@dataclass(frozen=True)
class BoundRecord:
    """A lower-bound witness: weighting, its min degree, and certification.

    `certificate` is set only when the strict exact solver proved on this run
    that every factor of `graph` keeps a block at or below the bar, and
    `certified` says whether it is.  `value` is the minimum weighted degree,
    absolute (not divided by `graph.n`).
    """

    r: int
    t: Fraction
    value: Fraction
    source: str
    graph: WeightedCompleteGraph
    certificate: SolveCertificate | None
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _require_exhausted(certificate: SolveCertificate, what: str) -> None:
    """Raise CertificationError unless the strict search came back exhausted."""
    factor = certificate.factor
    blocks = None if factor is None else [sorted(b) for b in factor.blocks]
    _require(blocks is None, f"{what} weighting admits a strictly heavy factor {blocks}")


def evaluate_lower_bounds(r: int, t, n: int, *,
                          solver_cap: int = DEFAULT_SOLVER_CAP) -> BoundRecord:
    """Two-class weighting scaled by DEFAULT_SCALE as a certified lower-bound record.

    Scaling by a factor strictly below 1 pushes the boundary blocks (those at
    exactly the bar) strictly under it, which is what the strict certificate
    needs.  The min degree of the scaled graph is checked against the closed
    form before anything else.  Above the solver cap the record is returned
    uncertified with a note; at t=0 no weighting can certify anything (every
    block is heavy at level 0) and the record is flagged degenerate.  A cap
    that is not a nonnegative integer is rejected.
    """
    _nonnegative(_integer(solver_cap, "solver cap"), "solver cap")
    tt = _exact(t, "t")
    graph, _desc = prop2_construction(r, tt, n)
    scaled = graph.scale(DEFAULT_SCALE)
    value = scaled.min_weighted_degree()
    expected = DEFAULT_SCALE * prop2_min_degree(r, tt, n)
    _require(value == expected, f"scaled prop2 weighting has min degree {format_rational(value)}, "
                                f"closed form gives {format_rational(expected)}")
    certificate = None
    note = ""
    if tt == 0:
        note = "degenerate: every block is heavy at level 0, nothing to certify"
    elif n <= solver_cap:
        certificate = find_heavy_factor(scaled, FactorParams(r, tt), strict=True)
        _require_exhausted(certificate, "prop2 seed")
    else:
        note = f"uncertified: n={n} above solver cap {solver_cap}"
    return BoundRecord(r=r, t=tt, value=value, source="prop2", graph=scaled,
                       certificate=certificate, note=note)


def adversarial_search(r: int, t, n: int, seed: int, grid_denominator: int = 12,
                       budget: int = 0, *, solver_cap: int = DEFAULT_SOLVER_CAP) -> BoundRecord:
    """Simulated annealing over grid weightings, feasibility = strict exhaustion.

    Starts from `evaluate_lower_bounds`'s scaled two-class record and
    proposes single-edge moves to random grid values; a move is even
    considered only if the strict solver still finds no factor, so every
    state visited is a certified witness, and the best is certified once
    more before it is returned.  The objective is the minimum weighted
    degree.  With no improvement inside the budget the seed record itself
    is returned.  So it is at t=0 and with budget 0 (the default),
    uncertified when n is above the solver cap; otherwise an uncertified
    seed record (n above the cap) raises CapExceededError, since the
    annealing needs the exact solver.
    """
    d = _grid_denominator(grid_denominator)
    _nonnegative(_integer(budget, "budget"), "budget")
    _integer(seed, "seed")
    seed_record = evaluate_lower_bounds(r, t, n, solver_cap=solver_cap)
    tt = seed_record.t
    if tt == 0 or budget == 0:
        return seed_record
    if not seed_record.certified:
        raise CapExceededError(
            f"adversarial search needs the exact solver: n={n} above cap {solver_cap}"
        )
    params = FactorParams(r, tt)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    current, current_val = seed_record.graph, seed_record.value
    best, best_val = current, current_val
    for step in range(budget):
        i, j = pairs[rng.randrange(len(pairs))]
        w = Fraction(rng.randint(0, d), d)
        if w == current.weight(i, j):
            continue
        candidate = current.with_weight(i, j, w)
        if find_heavy_factor(candidate, params, strict=True).factor is not None:
            continue
        candidate_val = candidate.min_weighted_degree()
        if candidate_val >= current_val:
            accept = True
        else:
            progress = step / budget
            temp = TEMP_START * (TEMP_END / TEMP_START) ** progress
            gap = float((current_val - candidate_val) / n)
            accept = rng.random() < math.exp(-gap / temp)
        if accept:
            current = candidate
            current_val = candidate_val
            if current_val > best_val:
                best = current
                best_val = current_val
    if best_val == seed_record.value:
        return seed_record
    certificate = find_heavy_factor(best, params, strict=True)
    _require_exhausted(certificate, f"adversarial(seed={seed}) best")
    return BoundRecord(r=r, t=tt, value=best_val, source=f"adversarial(seed={seed})",
                       graph=best, certificate=certificate)


@dataclass(frozen=True)
class TrialViolation:
    trial: int
    min_degree: Fraction
    nodes_explored: int


@dataclass(frozen=True)
class TrialReport:
    """Outcome of sampling graphs at the conjectured degree and solving them.

    A violation is a sampled graph meeting the degree floor with no heavy
    factor.  At small n that is a counterexample *candidate* for a finite-n
    strengthening, not a disproof of anything asymptotic.  `to_json` still
    writes a constant `"hard_failure": false` key, so verify documents keep
    their bytes.
    """

    r: int
    t: Fraction
    n: int
    trials: int
    degree_target: Fraction
    passes: int
    violations: tuple

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "t": format_rational(self.t),
            "n": self.n,
            "trials": self.trials,
            "degree_target": format_rational(self.degree_target),
            "passes": self.passes,
            "violations": [
                {
                    "trial": v.trial,
                    "min_degree": format_rational(v.min_degree),
                    "nodes_explored": v.nodes_explored,
                }
                for v in self.violations
            ],
            "hard_failure": False,
        }


def verify_theorem3_empirically(r: int, t, trials: int, n: int, seed: int, *,
                                margin=Fraction(1, 10), grid_denominator: int = 20) -> TrialReport:
    """Sample graphs with min degree >= (1/2 + t/2 + margin) n; expect factors.

    Edge weights are uniform on the top of the grid, at least
    ceil(D * target / (n-1)) / D, which already guarantees the degree floor
    (the sampler checks it and raises CertificationError otherwise).  A
    negative target, 1/2 + t/2 + margin < 0, which every weighting meets,
    raises ValueError here; the sampler itself refuses a grid denominator
    below 1 and an unreachable floor (target / (n-1) > 1), which no
    weighting in [0, 1] can meet.  All are refused before anything is
    drawn.  The sampler is `random_weighting`'s, fed from this function's
    own seeded stream.

    With margin > 0 every sampled edge weighs more than t: the per-edge floor
    (1/2 + t/2 + margin) n / (n-1) exceeds t for every t <= 1.  Every r-set
    is then heavy, so every partition is a factor, the search finds one on
    its first descent and `violations` is always empty.  The report checks
    the sampler and the solver's feasible path, not the degree threshold.
    A violation, were one found, is only a finite-n counterexample candidate;
    the report carries no verdict beyond the list.
    """
    tt = _exact(t, "t")
    _check_block_shape(r, n)
    if _integer(trials, "trials") < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    delta = Fraction(1, 2) + tt / 2 + _exact(margin, "margin")
    target = delta * n
    if delta < 0:
        raise ValueError(f"degree target {format_rational(target)} is negative: "
                         f"1/2 + t/2 + margin = {format_rational(delta)} < 0")
    per_edge = target / (n - 1)
    rng = random.Random(_integer(seed, "seed"))
    params = FactorParams(r, tt)
    passes = 0
    violations = []
    for trial in range(trials):
        graph = _sample_grid_floor(rng, n, grid_denominator, per_edge)
        certificate = find_heavy_factor(graph, params, strict=False)
        if certificate.factor is not None:
            passes += 1
        else:
            violations.append(TrialViolation(
                trial=trial,
                min_degree=graph.min_weighted_degree(),
                nodes_explored=certificate.nodes_explored,
            ))
    return TrialReport(
        r=r, t=tt, n=n, trials=trials, degree_target=target,
        passes=passes, violations=tuple(violations),
    )


@dataclass(frozen=True)
class ScanCell:
    r: int
    t: Fraction
    prop2_value: Fraction
    conjecture: Fraction
    upper_bound: Fraction
    certified: bool


@dataclass(frozen=True)
class ConjectureReport:
    """Grid of seed records at n vertices against the conjectured and proven lines."""

    n: int
    cells: tuple
    flags: tuple


def scan_report(r_values, t_values, n: int, *,
                solver_cap: int = DEFAULT_SOLVER_CAP) -> ConjectureReport:
    """Tabulate the seed record of every (r, t) pair.

    Every refusal comes before the first cell: a solver cap that is not a
    nonnegative integer, an n below 1, an r that `FactorParams` refuses (not
    an integer, or below 2) and a t outside [0, 1].  Pairs the seed has no
    weighting for are skipped and flagged with the seed's own refusal: r
    does not divide n, or r >= n, which leaves its short side empty.  Each
    computed cell is `evaluate_lower_bounds(r, t, n, solver_cap=...)`: its
    prop2 column is the record's value, which the record has checked
    against the scaled closed form, and it is certified when n is within
    the cap.  Flags also call out any non-monotone trend in r (for fixed t
    the normalized bound should not grow) and any cell whose normalized
    bound exceeds the conjectured line.
    """
    _nonnegative(_integer(solver_cap, "solver cap"), "solver cap")
    _vertex_count(n)
    rs = sorted({FactorParams(r, 0).r for r in r_values})
    ts = sorted({_unit(t, "level t") for t in t_values})
    if not rs or not ts:
        raise ValueError("need at least one r and one t")
    cells = []
    flags = []
    for r in rs:
        for t in ts:
            label = f"r={r} t={format_rational(t)}"
            try:
                _seed_shape(r, n)
            except ValueError as exc:
                flags.append(f"{label}: skipped, {exc}")
                continue
            record = evaluate_lower_bounds(r, t, n, solver_cap=solver_cap)
            conjecture = Fraction(1, r) + (1 - Fraction(1, r)) * t
            cells.append(ScanCell(r=r, t=t, prop2_value=record.value, conjecture=conjecture,
                                  upper_bound=Fraction(1, 2) + t / 2, certified=record.certified))
            if record.value / n > conjecture:
                flags.append(
                    f"{label}: normalized bound {format_rational(record.value / n)} "
                    f"exceeds the conjectured {format_rational(conjecture)}"
                )
    for t in ts:
        column = [c for c in cells if c.t == t]
        for lo, hi in zip(column, column[1:]):
            if hi.prop2_value / n > lo.prop2_value / n:
                flags.append(
                    f"t={format_rational(t)}: normalized bound grows from "
                    f"r={lo.r} to r={hi.r}"
                )
    return ConjectureReport(n=n, cells=tuple(cells), flags=tuple(flags))


CSV_HEADER = "r,t,n,prop2_value,conjecture,upper_bound,certified"


def conjecture_report_csv(report: ConjectureReport) -> str:
    """Deterministic CSV, rationals as num/den, booleans as true/false."""
    lines = [CSV_HEADER]
    for c in report.cells:
        lines.append(",".join([
            str(c.r),
            format_rational(c.t),
            str(report.n),
            format_rational(c.prop2_value),
            format_rational(c.conjecture),
            format_rational(c.upper_bound),
            "true" if c.certified else "false",
        ]))
    return "\n".join(lines) + "\n"
