"""Experiment harness around the extremal threshold.

For clique size r and level t, the threshold is the least minimum weighted
degree above which a heavy factor can no longer be avoided.  Lower bounds
come from exhibiting weightings where every factor keeps a block strictly
below the bar; the strict-mode exact solver certifies exactly that, so every
certified record here is a finite-n theorem, not an estimate.

Pieces: closed-form evaluation of the two-class seed weighting (scaled a hair
below 1 so its boundary blocks drop strictly under the bar), a simulated-
annealing adversary that perturbs one grid-valued edge at a time while the
strict solver keeps certifying infeasibility, a sampling check that graphs
meeting the conjectured degree digest into factors, and a scan that tabulates
everything against the conjectured asymptote 1/r + (1 - 1/r) t and the proven
ceiling 1/2 + t/2.

The degree values in records are absolute (already multiplied by n); the
conjecture and ceiling columns are densities in [0, 1].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .constructions import _sample_grid_floor, prop2_construction, prop2_min_degree
from .core import (
    CapExceededError,
    CertificationError,
    FactorParams,
    WeightedCompleteGraph,
    _check_block_shape,
    _exact,
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
    absolute (not divided by n).
    """

    r: int
    t: Fraction
    n: int
    value: Fraction
    source: str
    graph: WeightedCompleteGraph
    certificate: SolveCertificate | None
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _require_exhausted(certificate: SolveCertificate, what: str) -> None:
    """Raise unless the strict search came back exhausted (a check `python -O` keeps)."""
    if certificate.factor is not None:
        raise CertificationError(
            f"{what} weighting admits a strictly heavy factor "
            f"{[sorted(b) for b in certificate.factor.blocks]}"
        )


def evaluate_lower_bounds(r: int, t, n: int, *,
                          solver_cap: int = DEFAULT_SOLVER_CAP) -> BoundRecord:
    """Two-class weighting scaled by DEFAULT_SCALE as a certified lower-bound record.

    Scaling by a factor strictly below 1 pushes the boundary blocks (those at
    exactly the bar) strictly under it, which is what the strict certificate
    needs.  The min degree of the scaled graph is checked against the closed
    form before anything else.  Above the solver cap the record is returned
    uncertified with a note; at t=0 no weighting can certify anything (every
    block is heavy at level 0) and the record is flagged degenerate.
    """
    tt = _exact(t, "t")
    graph, _desc = prop2_construction(r, tt, n)
    scaled = graph.scale(DEFAULT_SCALE)
    value = scaled.min_weighted_degree()
    expected = DEFAULT_SCALE * prop2_min_degree(r, tt, n)
    if value != expected:
        raise CertificationError(
            f"scaled prop2 weighting has min degree {format_rational(value)}, "
            f"closed form gives {format_rational(expected)}"
        )
    certificate = None
    note = ""
    if tt == 0:
        note = "degenerate: every block is heavy at level 0, nothing to certify"
    elif n <= solver_cap:
        certificate = find_heavy_factor(scaled, FactorParams(r, tt), strict=True)
        _require_exhausted(certificate, "prop2 seed")
    else:
        note = f"uncertified: n={n} above solver cap {solver_cap}"
    return BoundRecord(
        r=r, t=tt, n=n, value=value, source="prop2", graph=scaled,
        certificate=certificate, note=note,
    )


def adversarial_search(r: int, t, n: int, seed: int, grid_denominator: int = 12,
                       budget: int = 1000, *, solver_cap: int = DEFAULT_SOLVER_CAP) -> BoundRecord:
    """Simulated annealing over grid weightings, feasibility = strict exhaustion.

    Starts from the scaled two-class record and proposes single-edge moves to
    random grid values; a move is even considered only if the strict solver
    still finds no factor, so every state visited is a certified witness.
    The objective is the minimum weighted degree.  With no improvement inside
    the budget the seed record itself is returned.  So it is at t=0 and with
    budget 0, uncertified when n is above the solver cap; only the annealing
    needs the exact solver, and above the cap it raises CapExceededError.
    """
    if grid_denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {grid_denominator}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    seed_record = evaluate_lower_bounds(r, t, n, solver_cap=solver_cap)
    return _anneal(seed_record, seed, grid_denominator, budget, solver_cap)


def _anneal(seed_record: BoundRecord, seed: int, grid_denominator: int, budget: int,
            solver_cap: int) -> BoundRecord:
    """`adversarial_search`'s annealing from a seed record; the caller has checked the grid and budget."""
    r, tt, n = seed_record.r, seed_record.t, seed_record.n
    if tt == 0 or budget == 0:
        return seed_record
    if n > solver_cap:
        raise CapExceededError(
            f"adversarial search needs the exact solver: n={n} above cap {solver_cap}"
        )
    params = FactorParams(r, tt)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    d = grid_denominator
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
    return BoundRecord(
        r=r, t=tt, n=n, value=best_val, source=f"adversarial(seed={seed})",
        graph=best, certificate=certificate,
    )


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
    (the sampler checks it and raises CertificationError otherwise); an
    unreachable floor (target / (n-1) > 1) raises, since no weighting in
    [0, 1] can meet it.  The sampler is `random_weighting`'s, fed from this
    function's own seeded stream.

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
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if grid_denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {grid_denominator}")
    delta = Fraction(1, 2) + tt / 2 + _exact(margin, "margin")
    target = delta * n
    per_edge = target / (n - 1)
    if per_edge > 1:
        raise ValueError(
            f"sampling failure: degree target {format_rational(target)} needs "
            f"per-edge weight {format_rational(per_edge)} > 1 at n={n}"
        )
    rng = random.Random(seed)
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
    n: int
    prop2_value: Fraction
    adversarial_value: Fraction
    conjecture: Fraction
    upper_bound: Fraction
    certified: bool


@dataclass(frozen=True)
class ConjectureReport:
    """Grid of lower-bound records against the conjectured and proven lines."""

    n: int
    seed: int
    cells: tuple
    flags: tuple


def scan_report(r_values, t_values, n: int, seed: int, *, budget: int = 0,
                grid_denominator: int = 12,
                solver_cap: int = DEFAULT_SOLVER_CAP) -> ConjectureReport:
    """Tabulate seed and adversarial bounds for every (r, t) pair.

    Pairs where r does not divide n are skipped and flagged.  The default
    budget of 0 makes the adversarial column equal the certified seed record;
    a positive budget needs n within the solver cap.  Flags also call out any
    non-monotone trend in r (for fixed t the normalized bound should not
    grow) and any cell whose normalized bound reaches the conjectured line.
    """
    if grid_denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {grid_denominator}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    rs = list(r_values)
    for r in rs:
        if isinstance(r, bool) or not isinstance(r, int):
            raise ValueError(f"r must be an exact integer, not a {type(r).__name__}")
    rs = sorted(set(rs))
    ts = sorted(set(_exact(t, "t") for t in t_values))
    if not rs or not ts:
        raise ValueError("need at least one r and one t")
    cells = []
    flags = []
    index = 0
    for r in rs:
        for t in ts:
            label = f"r={r} t={format_rational(t)}"
            if n % r != 0:
                flags.append(f"{label}: skipped, r does not divide n={n}")
                continue
            base = evaluate_lower_bounds(r, t, n, solver_cap=solver_cap)
            adv = base
            if budget > 0:
                adv = _anneal(base, seed + 9973 * index, grid_denominator, budget, solver_cap)
            index += 1
            conjecture = Fraction(1, r) + (1 - Fraction(1, r)) * t
            upper = Fraction(1, 2) + t / 2
            cells.append(ScanCell(
                r=r, t=t, n=n,
                prop2_value=base.value,
                adversarial_value=adv.value,
                conjecture=conjecture,
                upper_bound=upper,
                certified=base.certified and adv.certified,
            ))
            if adv.value / n > conjecture:
                flags.append(
                    f"{label}: normalized bound {format_rational(adv.value / n)} "
                    f"exceeds the conjectured {format_rational(conjecture)}"
                )
    for t in ts:
        column = [c for c in cells if c.t == t]
        for lo, hi in zip(column, column[1:]):
            if hi.adversarial_value / n > lo.adversarial_value / n:
                flags.append(
                    f"t={format_rational(t)}: normalized bound grows from "
                    f"r={lo.r} to r={hi.r}"
                )
    return ConjectureReport(n=n, seed=seed, cells=tuple(cells), flags=tuple(flags))


CSV_HEADER = "r,t,n,prop2_value,adversarial_value,conjecture,upper_bound,certified"


def conjecture_report_csv(report: ConjectureReport) -> str:
    """Deterministic CSV, rationals as num/den, booleans as true/false."""
    lines = [CSV_HEADER]
    for c in report.cells:
        lines.append(",".join([
            str(c.r),
            format_rational(c.t),
            str(c.n),
            format_rational(c.prop2_value),
            format_rational(c.adversarial_value),
            format_rational(c.conjecture),
            format_rational(c.upper_bound),
            "true" if c.certified else "false",
        ]))
    return "\n".join(lines) + "\n"
