"""Acceptance gate: nine exact finite-size checks, one printed line each.

Every criterion prints "[criterion N] PASS/FAIL: detail" before asserting, so
running this file with `pytest -s tests/test_acceptance.py` shows the whole
scorecard.  All comparisons are exact rational comparisons; the only
tolerances are the stated runtime ceilings.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

from heavyfactors import (
    FactorParams,
    WeightedCompleteGraph,
    check_facts_at_maximum,
    counterexample_29_36,
    enumerate_all_factors,
    enumerate_maximum_heavy_collections,
    find_heavy_factor,
    heavy_cliques_containing,
    is_heavy,
    lemma1_bound,
    matching_base_case,
    prop2_construction,
    prop2_min_degree,
    random_weighting,
    scan_report,
    scheme1_lift,
    scheme1_quotient,
    scheme2_factor,
    t_r_threshold,
)
from heavyfactors.cli import main as cli_main
from heavyfactors.core import CliqueFactor

from conftest import eroded_graph, random_grid_graph, sparse_grid_graph


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_prop2_certification():
    started = time.monotonic()
    boxes = [
        (3, Fraction(2, 3), 9, 280),
        (3, Fraction(1, 2), 12, 15400),
        (4, Fraction(1, 2), 8, 35),
        (2, Fraction(1, 2), 8, 105),
    ]
    scale = Fraction(999, 1000)
    for r, t, n, partitions in boxes:
        k = n // r
        expected = scale * min(Fraction(n - 1), Fraction(k - 1) + t * (n - k))
        assert expected == scale * prop2_min_degree(r, t, n)
        graph, _ = prop2_construction(r, t, n)
        scaled = graph.scale(scale)
        assert scaled.min_weighted_degree() == expected
        params = FactorParams(r, t)
        cert = find_heavy_factor(scaled, params, strict=True)
        assert cert.factor is None
        count = 0
        for blocks in enumerate_all_factors(n, r):
            count += 1
            assert not all(is_heavy(scaled, b, params, strict=True) for b in blocks)
        assert count == partitions
    elapsed = time.monotonic() - started
    report(1, elapsed < 30,
           f"4 scaled constructions certified strictly infeasible, partition "
           f"counts 280/15400/35/105 confirmed, {elapsed:.1f}s < 30s")


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    rng = Random(2)
    levels = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    boxes = [(3, 6), (3, 9), (2, 6), (2, 8), (4, 8)]
    agreements = 0
    for trial in range(200):
        r, n = boxes[trial % len(boxes)]
        t = levels[trial % len(levels)]
        g = random_grid_graph(rng, n, denominator=4)
        params = FactorParams(r, t)
        direct = find_heavy_factor(g, params).factor is not None
        oracle = any(
            all(is_heavy(g, b, params) for b in blocks)
            for blocks in enumerate_all_factors(n, r)
        )
        assert direct == oracle, f"trial {trial}: r={r} n={n} t={t}"
        agreements += 1
    elapsed = time.monotonic() - started
    report(2, agreements == 200 and elapsed < 120,
           f"{agreements}/200 instances agree between the search and the oracle, "
           f"{elapsed:.1f}s < 120s")


def test_criterion_3_lemma1_bound():
    levels = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    rng = Random(3)
    checked_pairs = 0
    violations = 0
    for trial in range(100):
        if trial % 2 == 0:
            g = random_grid_graph(rng, 12, denominator=4)
        else:
            g = random_weighting(12, 20, seed=trial, min_degree=Fraction(3, 5))
        delta = g.min_weighted_degree() / 12
        for t in levels:
            if delta <= t:
                continue
            params = FactorParams(3, t)
            floor = lemma1_bound(delta, t, 3, 12)
            assert floor == (delta - t) / (1 - t) * comb(11, 2)
            for v in range(12):
                if heavy_cliques_containing(g, v, params) < floor:
                    violations += 1
            checked_pairs += 1
    report(3, violations == 0 and checked_pairs > 100,
           f"counting floor held at every vertex over {checked_pairs} "
           f"(graph, level) pairs, zero violations")


def test_criterion_4_counterexample_fidelity():
    started = time.monotonic()
    g, desc = counterexample_29_36(36)
    ok_degree = g.min_weighted_degree() == 29
    b_side = desc.partition["B"]
    a_side = desc.partition["A"]
    ok_triangles = True
    for v in b_side:
        triangles = sum(
            1 for a, b in combinations(a_side, 2)
            if g.clique_weight((v, a, b)) == 3
        )
        if triangles != 319:
            ok_triangles = False
    ok_bound = 319 < Fraction(5, 9) * comb(36, 2) == 350
    ok_threshold = min(m.bit_count() for m in g.threshold_masks(Fraction(1))) == 29 and 29 >= 24
    cert = find_heavy_factor(g, FactorParams(3, Fraction(1)), strict=False)
    ok_factor = cert.factor is not None
    if ok_factor:
        for block in cert.factor.blocks:
            assert all(g.weight(a, b) == 1 for a, b in combinations(sorted(block), 2))
    elapsed = time.monotonic() - started
    report(4, ok_degree and ok_triangles and ok_bound and ok_threshold
           and ok_factor and elapsed < 60,
           f"min degree 29, all 7 B-vertices in exactly 319 weight-3 triangles "
           f"(319 < 350), threshold min degree 29 >= 24, triangle factor found "
           f"in {cert.nodes_explored} nodes, {elapsed:.1f}s < 60s")


def test_criterion_5_scheme2_soundness_and_base_case():
    t = Fraction(1, 2)
    params = FactorParams(3, t)
    target = (Fraction(3, 4) + Fraction(1, 20)) * 12
    found = 0
    none_verdicts = {"factor": 0, "exhausted": 0}
    for seed in range(100):
        rng = Random(5000 + seed)
        g = eroded_graph(rng, 12, target)
        assert g.min_weighted_degree() >= target
        factor = scheme2_factor(g, params, seed=seed)
        if factor is not None:
            factor.validate(12, 3)
            for block in factor.blocks:
                assert g.clique_weight(block) >= Fraction(3, 2)
            found += 1
        else:
            verdict = find_heavy_factor(g, params).outcome
            none_verdicts[verdict] += 1
    base_target = ((1 + t) / 2 + Fraction(1, 20)) * 10
    matched = 0
    for seed in range(100):
        rng = Random(7000 + seed)
        g = eroded_graph(rng, 10, base_target)
        assert g.min_weighted_degree() >= base_target
        pm = matching_base_case(g, t)
        assert pm is not None, f"seed {seed}: the degree premise forces a matching"
        assert all(g.clique_weight(b) >= t for b in pm.blocks)
        matched += 1
    report(5, matched == 100,
           f"scheme2 returned {found}/100 factors, all re-verified at 3/2 "
           f"exactly; solver verdicts on the rest: {none_verdicts}; base case "
           f"matched {matched}/100 pair instances")


def test_criterion_6_scheme1_identity():
    rng = Random(6)
    base = CliqueFactor.from_blocks([[i, i + 1] for i in range(0, 24, 2)])
    quotient_blocks = CliqueFactor.from_blocks([[i, i + 1, i + 2] for i in range(0, 12, 3)])
    for trial in range(50):
        g = random_grid_graph(rng, 24, denominator=6)
        lifted = scheme1_lift(g, base, quotient_blocks)
        lifted.validate(24, 6)
        quotient = scheme1_quotient(g, base)
        t_p = min(g.clique_weight(b) for b in base.blocks)
        t_q = min(quotient.clique_weight(b) for b in quotient_blocks.blocks) / comb(3, 2)
        for qblock in quotient_blocks.blocks:
            members = frozenset().union(*(base.blocks[i] for i in qblock))
            internal = sum(g.clique_weight(base.blocks[i]) for i in qblock)
            across = sum(
                quotient.weight(a, b) for a, b in combinations(sorted(qblock), 2)
            )
            total = g.clique_weight(members)
            assert total == internal + 4 * across, f"trial {trial}"
            assert total >= t_q * 3 * 4 + t_p * 1 * 3, f"trial {trial}"
            assert members in set(lifted.blocks)
    report(6, True,
           "lift identity and averaged lower bound held edge-exactly on all "
           "50 instances at n=24, p=2, q=3")


def test_criterion_7_facts_verification():
    rng = Random(7)
    levels = [Fraction(1, 12), Fraction(1, 6), Fraction(1, 4)]
    qualified = 0
    attempts = 0
    inspected = 0
    while qualified < 50 and attempts < 3000:
        attempts += 1
        t = levels[attempts % 3]
        g = sparse_grid_graph(rng, 7, denominator=12, zero_prob=0.9)
        params = FactorParams(3, t)
        maxima = enumerate_maximum_heavy_collections(g, params)
        if any(7 - 3 * coll.size < 3 for coll in maxima):
            continue
        qualified += 1
        for coll in maxima:
            uncovered = sorted(set(range(7)) - set().union(*coll.blocks))
            for designated in combinations(uncovered, 3):
                rep = check_facts_at_maximum(g, params, coll, designated)
                assert rep.ok, (
                    f"attempt {attempts}: violation {rep.violations[0].kind} "
                    f"witness {rep.violations[0].witness} falsifies the "
                    f"exchange argument"
                )
                inspected += 1
    report(7, qualified == 50,
           f"all structure facts held at {qualified}/50 qualifying instances "
           f"({inspected} maximum/designated-triple pairs inspected)")


def test_criterion_8_formula_fixtures():
    ok_t3 = t_r_threshold(3) == Fraction(1, 12)
    rep = scan_report([2, 3], [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)], 6)
    ok_pairs = all(
        c.conjecture == (1 + c.t) / 2 and c.upper_bound == (1 + c.t) / 2
        for c in rep.cells if c.r == 2
    )
    cell = next(c for c in rep.cells if c.r == 3 and c.t == Fraction(2, 3))
    ok_window = (cell.conjecture, cell.upper_bound) == (Fraction(7, 9), Fraction(5, 6))
    report(8, ok_t3 and ok_pairs and ok_window,
           "t_3 floor 1/12 exact; pair line (1+t)/2 on both columns; window "
           "7/9 <= . <= 5/6 at (3, 2/3)")


def test_criterion_9_cli_determinism(tmp_path):
    invocations = [
        ["generate", "--kind", "random", "--n", "10", "--seed", "9", "--grid", "8"],
        ["estimate", "--r", "3", "--t", "2/3", "--n", "6", "--seed", "2",
         "--budget", "20"],
        ["scan", "--r", "2,3", "--t", "1/2,2/3", "--n", "6"],
    ]
    companions = {"generate": ".descriptor.json", "estimate": ".weighting.json"}
    identical = 0
    for idx, argv in enumerate(invocations):
        out = tmp_path / f"artifact_{idx}.out"
        argv = argv + ["--out", str(out)]
        paths = [out]
        suffix = companions.get(argv[0])
        if suffix is not None:
            paths.append(tmp_path / (out.name + suffix))
        assert cli_main(argv) == 0
        snapshots = [p.read_bytes() for p in paths]
        assert cli_main(argv) == 0
        for path, snapshot in zip(paths, snapshots):
            assert path.read_bytes() == snapshot, f"{argv[0]}: {path.name}"
        identical += 1
    report(9, identical == 3,
           "generate, estimate, and scan each produced byte-identical "
           "artifacts (including descriptor and weighting companions) on "
           "repeat runs")
