"""Lower-bound records, annealing adversary, degree-sampling trials, scans."""

import subprocess
import sys
from fractions import Fraction

import pytest

from heavyfactors import (
    CapExceededError,
    CertificationError,
    CliqueFactor,
    FactorParams,
    SolveCertificate,
    adversarial_search,
    conjecture_report_csv,
    evaluate_lower_bounds,
    find_heavy_factor,
    prop2_min_degree,
    scan_report,
    verify_theorem3_empirically,
)
from heavyfactors import lab
from heavyfactors.constructions import _sample_grid_floor
from heavyfactors.lab import CSV_HEADER


# ----------------------------------------------------------- seed records


def test_certified_record_at_the_reference_box():
    rec = evaluate_lower_bounds(3, Fraction(2, 3), 9)
    assert rec.value == Fraction(2997, 500)  # (999/1000) * 6
    assert rec.source == "prop2"
    assert rec.certified and rec.note == ""
    assert rec.certificate.outcome == "exhausted" and rec.certificate.strict
    assert rec.graph.min_weighted_degree() == rec.value


def test_certified_record_for_pairs():
    rec = evaluate_lower_bounds(2, Fraction(1, 2), 8)
    assert rec.value == Fraction(999, 200)  # (999/1000) * 5
    assert rec.certified


def test_level_zero_record_is_degenerate():
    rec = evaluate_lower_bounds(3, Fraction(0), 6)
    assert not rec.certified and rec.certificate is None
    assert "degenerate" in rec.note
    assert rec.value == Fraction(999, 1000)  # (999/1000) * min(5, 1)


def test_record_above_the_solver_cap_is_uncertified():
    rec = evaluate_lower_bounds(3, Fraction(2, 3), 15)
    assert not rec.certified and rec.certificate is None
    assert "solver cap" in rec.note
    assert rec.value == Fraction(999, 1000) * prop2_min_degree(3, Fraction(2, 3), 15)


def test_certified_records_re_verify_from_their_graphs():
    """A record is self-contained: graph, value, and certificate must re-check."""
    for r, t, n in [(3, Fraction(2, 3), 9), (2, Fraction(1, 2), 8), (4, Fraction(1, 2), 8)]:
        rec = evaluate_lower_bounds(r, t, n)
        assert rec.graph.min_weighted_degree() == rec.value
        again = find_heavy_factor(rec.graph, FactorParams(r, t), strict=True)
        assert again.factor is None
        assert again == rec.certificate


def _factor_certificate(graph, params, strict=False):
    blocks = [range(i, i + params.r) for i in range(0, graph.n, params.r)]
    return SolveCertificate(params, strict, CliqueFactor.from_blocks(blocks), 1)


def test_a_factor_found_at_certification_raises(monkeypatch):
    """Both certification points check the certificate, not an assert."""
    monkeypatch.setattr(lab, "find_heavy_factor", _factor_certificate)
    with pytest.raises(CertificationError, match="prop2 seed"):
        evaluate_lower_bounds(3, Fraction(2, 3), 9)

    # every graph is exhausted when first seen and has a factor on the recheck,
    # so the adversary improves freely and fails at its final certification
    seen = set()

    def factor_on_recheck(graph, params, strict=False):
        if graph in seen:
            return _factor_certificate(graph, params, strict)
        seen.add(graph)
        return SolveCertificate(params, strict, None, 1)

    monkeypatch.setattr(lab, "find_heavy_factor", factor_on_recheck)
    with pytest.raises(CertificationError, match="adversarial"):
        adversarial_search(3, Fraction(1, 3), 6, seed=0, budget=50)


def test_certification_check_survives_optimized_mode():
    script = (
        "from fractions import Fraction\n"
        "from heavyfactors import CertificationError, CliqueFactor, SolveCertificate, lab\n"
        "lab.find_heavy_factor = lambda g, p, strict=False: SolveCertificate(\n"
        "    p, strict, CliqueFactor.from_blocks([range(i, i + p.r) for i in range(0, g.n, p.r)]), 1)\n"
        "try:\n"
        "    lab.evaluate_lower_bounds(3, Fraction(2, 3), 9)\n"
        "except CertificationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class ZeroRng:
    """A stub stream that draws 0 from every range, ignoring the grid floor."""

    def randint(self, lo, hi):
        return 0


def test_degree_checks_raise_certification_errors(monkeypatch):
    """The seed's closed form and the sampler's degree floor are explicit checks."""
    monkeypatch.setattr(lab, "prop2_min_degree", lambda r, t, n: Fraction(0))
    with pytest.raises(CertificationError, match="closed form"):
        evaluate_lower_bounds(3, Fraction(2, 3), 9)
    with pytest.raises(CertificationError, match="below the target"):
        _sample_grid_floor(ZeroRng(), 12, 20, Fraction(1, 2))


def test_degree_checks_survive_optimized_mode():
    script = (
        "from fractions import Fraction\n"
        "from heavyfactors import CertificationError, lab\n"
        "from heavyfactors.constructions import _sample_grid_floor\n"
        "class ZeroRng:\n"
        "    def randint(self, lo, hi):\n"
        "        return 0\n"
        "lab.prop2_min_degree = lambda r, t, n: Fraction(0)\n"
        "for call in (lambda: lab.evaluate_lower_bounds(3, Fraction(2, 3), 9),\n"
        "             lambda: _sample_grid_floor(ZeroRng(), 12, 20, Fraction(1, 2))):\n"
        "    try:\n"
        "        call()\n"
        "    except CertificationError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------ annealing adversary


def test_adversary_budget_zero_returns_the_seed_record():
    rec = adversarial_search(3, Fraction(2, 3), 6, seed=0, budget=0)
    assert rec.source == "prop2" and rec.certified
    assert rec.value == Fraction(999, 1000) * Fraction(11, 3)


def test_adversary_at_level_zero_returns_the_degenerate_record():
    rec = adversarial_search(3, Fraction(0), 6, seed=0, budget=100)
    assert "degenerate" in rec.note and not rec.certified


def test_adversary_never_reports_below_the_seed_value():
    seed_rec = evaluate_lower_bounds(3, Fraction(2, 3), 6)
    rec = adversarial_search(3, Fraction(2, 3), 6, seed=0, grid_denominator=12, budget=400)
    assert rec.value >= seed_rec.value
    assert rec.certified
    assert rec.graph.min_weighted_degree() == rec.value
    # whatever graph is reported, strict infeasibility must re-verify
    check = find_heavy_factor(rec.graph, FactorParams(3, Fraction(2, 3)), strict=True)
    assert check.factor is None


def test_adversary_is_deterministic_per_seed():
    a = adversarial_search(2, Fraction(1, 2), 6, seed=1, grid_denominator=6, budget=300)
    b = adversarial_search(2, Fraction(1, 2), 6, seed=1, grid_denominator=6, budget=300)
    assert a.value == b.value and a.graph == b.graph and a.source == b.source


def test_adversary_validates_cap_budget_and_grid():
    with pytest.raises(CapExceededError):
        adversarial_search(3, Fraction(2, 3), 15, seed=0, budget=10)
    with pytest.raises(ValueError):
        adversarial_search(3, Fraction(2, 3), 6, seed=0, budget=-1)
    with pytest.raises(ValueError):
        adversarial_search(3, Fraction(2, 3), 6, seed=0, grid_denominator=0)


# ------------------------------------------------------- sampling the upper side


def test_degree_sampling_finds_factors_above_the_proven_line():
    report = verify_theorem3_empirically(3, Fraction(1, 3), trials=5, n=12, seed=0)
    assert report.passes == 5 and report.violations == ()
    assert report.degree_target == (Fraction(1, 2) + Fraction(1, 6) + Fraction(1, 10)) * 12


def test_degree_sampling_for_pairs():
    report = verify_theorem3_empirically(2, Fraction(1, 5), trials=5, n=10, seed=3)
    assert report.passes == 5


def test_degree_sampling_is_deterministic():
    a = verify_theorem3_empirically(3, Fraction(1, 3), trials=4, n=9, seed=7)
    b = verify_theorem3_empirically(3, Fraction(1, 3), trials=4, n=9, seed=7)
    assert a == b
    assert a.to_json() == b.to_json()


def test_degree_sampling_rejects_unreachable_targets():
    """Near level 2/3 the target degree needs per-edge weight above 1."""
    with pytest.raises(ValueError, match="sampling failure"):
        verify_theorem3_empirically(3, Fraction(2, 3), trials=1, n=12, seed=0)


def test_degree_sampling_validates_inputs():
    with pytest.raises(ValueError):
        verify_theorem3_empirically(3, Fraction(1, 3), trials=0, n=12, seed=0)
    with pytest.raises(ValueError):
        verify_theorem3_empirically(3, Fraction(1, 3), trials=1, n=10, seed=0)
    with pytest.raises(ValueError):
        verify_theorem3_empirically(1, Fraction(1, 3), trials=1, n=10, seed=0)
    for grid in (0, -3):
        with pytest.raises(ValueError, match="grid denominator"):
            verify_theorem3_empirically(3, Fraction(1, 3), trials=1, n=9, seed=0,
                                        grid_denominator=grid)


def test_trial_report_json_shape():
    report = verify_theorem3_empirically(3, Fraction(1, 3), trials=2, n=9, seed=0)
    doc = report.to_json()
    assert doc["r"] == 3 and doc["t"] == "1/3" and doc["n"] == 9
    assert doc["trials"] == 2 and doc["passes"] == 2
    assert doc["violations"] == [] and doc["hard_failure"] is False


# ----------------------------------------------------------------- scanning


def test_scan_reference_grid_and_csv():
    report = scan_report([2, 3], [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)], 12, seed=0)
    assert report.flags == ()
    assert len(report.cells) == 6
    assert [(c.r, c.t) for c in report.cells] == [
        (2, Fraction(1, 3)), (2, Fraction(1, 2)), (2, Fraction(2, 3)),
        (3, Fraction(1, 3)), (3, Fraction(1, 2)), (3, Fraction(2, 3)),
    ]
    # for pairs the conjectured line and the proven ceiling coincide
    for c in report.cells:
        if c.r == 2:
            assert c.conjecture == c.upper_bound == Fraction(1, 2) + c.t / 2
        else:
            assert c.conjecture < c.upper_bound
    assert conjecture_report_csv(report) == (
        "r,t,n,prop2_value,adversarial_value,conjecture,upper_bound,certified\n"
        "2,1/3,12,6993/1000,6993/1000,2/3,2/3,true\n"
        "2,1/2,12,999/125,999/125,3/4,3/4,true\n"
        "2,2/3,12,8991/1000,8991/1000,5/6,5/6,true\n"
        "3,1/3,12,5661/1000,5661/1000,5/9,2/3,true\n"
        "3,1/2,12,6993/1000,6993/1000,2/3,3/4,true\n"
        "3,2/3,12,333/40,333/40,7/9,5/6,true\n"
    )


def test_scan_skips_and_flags_non_divisible_cells():
    report = scan_report([5], [Fraction(1, 2)], 12, seed=0)
    assert report.cells == ()
    assert len(report.flags) == 1 and "skipped" in report.flags[0]


def test_scan_deduplicates_and_sorts_the_grid():
    a = scan_report([3, 3, 2], [Fraction(1, 2), Fraction(1, 2)], 12, seed=0)
    b = scan_report([2, 3], [Fraction(1, 2)], 12, seed=0)
    assert a.cells == b.cells


def test_scan_with_a_positive_budget_stays_certified():
    report = scan_report([3], [Fraction(2, 3)], 6, seed=0, budget=50)
    (cell,) = report.cells
    assert cell.certified
    assert cell.adversarial_value >= cell.prop2_value


def test_scan_above_the_cap_reports_uncertified_cells():
    report = scan_report([3], [Fraction(2, 3)], 15, seed=0)
    (cell,) = report.cells
    assert not cell.certified
    assert conjecture_report_csv(report).strip().endswith("false")


def test_scan_validates_the_grid():
    with pytest.raises(ValueError):
        scan_report([], [Fraction(1, 2)], 12, seed=0)
    with pytest.raises(ValueError):
        scan_report([3], [], 12, seed=0)


def test_scan_rejects_a_negative_budget_like_the_adversary():
    with pytest.raises(ValueError) as adversary:
        adversarial_search(3, Fraction(1, 2), 12, seed=0, budget=-1)
    with pytest.raises(ValueError) as scan:
        scan_report([3], [Fraction(1, 2)], 12, seed=0, budget=-1)
    assert str(scan.value) == str(adversary.value) == "budget must be nonnegative, got -1"


def test_csv_header_is_pinned():
    assert CSV_HEADER == "r,t,n,prop2_value,adversarial_value,conjecture,upper_bound,certified"
