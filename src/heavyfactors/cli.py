"""Command-line front end.

Subcommands: generate (construction families to JSON), solve (exact search on
a graph file), scheme2 (randomized recursive factoring), localsearch (hill-
climbed heavy collections), estimate (seed + adversarial lower bounds), scan
(CSV table across a parameter grid), verify (sampling check at the proven
degree line).

Conventions: rationals on the command line and in files are "num/den" (or a
bare integer), never decimals; all randomness flows from --seed (default 0);
outputs are byte-identical across runs of the same invocation.  Exit codes:
0 success, 1 no factor / nothing found, 2 invalid arguments or input,
3 cap or budget exhausted, 4 a certification check failed (the exact solver
found a factor where a record claims none, or a record's degree is off).
HFL_SOLVER_CAP and HFL_RETRY_BUDGET override the default exact-solver cap
and scheme retry budget; a flag (--cap, --solver-cap, --retries) overrides both.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .constructions import (
    KIND_COUNTEREXAMPLE,
    KIND_HS,
    KIND_PROP2,
    KIND_RANDOM,
    build,
)
from .core import (
    BudgetExceededError,
    CapExceededError,
    CertificationError,
    CliqueFactor,
    FactorParams,
    dumps_canonical,
    format_rational,
    load_graph,
    parse_rational,
    save_graph,
)
from .lab import (
    adversarial_search,
    conjecture_report_csv,
    scan_report,
    verify_theorem3_empirically,
)
from .schemes import DEFAULT_RETRY_BUDGET, local_search_heavy_collection, scheme2_factor
from .solver import DEFAULT_SOLVER_CAP, enumerate_all_factors, find_heavy_factor

ENV_SOLVER_CAP = "HFL_SOLVER_CAP"
ENV_RETRY_BUDGET = "HFL_RETRY_BUDGET"
# exception type -> exit code, first match wins (GraphFormatError is a ValueError)
EXIT_CODES = {ValueError: 2, OSError: 2, CapExceededError: 3, BudgetExceededError: 3,
              CertificationError: 4}


def _setting(flag: int | None, env: str, default: int) -> int:
    """The one rule for a tunable: the flag if given, else the variable `env`, else `default`."""
    if flag is not None:
        return flag
    raw = os.environ.get(env, "")
    if raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from None


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _rational_list(text: str) -> list[Fraction]:
    out = []
    for part in text.split(","):
        if part.strip() == "":
            continue
        try:
            out.append(parse_rational(part))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return out


def _sidecar_path(out: str, kind: str) -> str:
    """`out` with its final ".json" suffix, if any, replaced by ".<kind>.json"."""
    return out.removesuffix(".json") + f".{kind}.json"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _factor_doc(graph, factor: CliqueFactor | None) -> dict:
    if factor is None:
        return {"blocks": None, "block_weights": None}
    return {
        "blocks": [sorted(b) for b in factor.blocks],
        "block_weights": [format_rational(w) for w in factor.block_weights(graph)],
    }


def _cmd_generate(args) -> int:
    kind = KIND_RANDOM if args.kind == "random" else args.kind
    graph, desc = build(
        kind,
        n=args.n,
        r=args.r,
        t=args.t,
        seed=args.seed,
        grid_denominator=args.grid,
        min_degree=args.min_degree,
        scale=args.scale,
    )
    save_graph(args.out, graph)
    desc_path = args.descriptor or _sidecar_path(args.out, "descriptor")
    _write_text(desc_path, dumps_canonical(desc.to_json()))
    print(
        f"wrote {kind} weighting on n={graph.n} to {args.out} "
        f"(min degree {format_rational(graph.min_weighted_degree())})"
    )
    return 0


def _cmd_solve(args) -> int:
    graph = load_graph(args.input)
    params = FactorParams(args.r, args.t)
    cap = _setting(args.cap, ENV_SOLVER_CAP, DEFAULT_SOLVER_CAP)
    if args.method == "backtrack":
        cert = find_heavy_factor(graph, params, strict=args.strict)
        factor = cert.factor
        nodes = cert.nodes_explored
    else:  # oracle: filter the full partition stream
        factor = None
        nodes = 0
        for blocks in enumerate_all_factors(graph.n, params.r, cap=cap):
            nodes += 1
            if all(params.admits(graph.clique_weight(b), args.strict) for b in blocks):
                factor = CliqueFactor.from_blocks(blocks)
                break
    doc = {
        "method": args.method,
        "outcome": "factor" if factor is not None else "exhausted",
        "strict": args.strict,
        "r": params.r,
        "t": format_rational(params.t),
        "n": graph.n,
        "nodes_explored": nodes,
    }
    doc.update(_factor_doc(graph, factor))
    _write_text(args.out, dumps_canonical(doc))
    return 0 if factor is not None else 1


def _cmd_scheme2(args) -> int:
    graph = load_graph(args.input)
    params = FactorParams(args.r, args.t)
    retries = _setting(args.retries, ENV_RETRY_BUDGET, DEFAULT_RETRY_BUDGET)
    factor = scheme2_factor(
        graph, params, args.seed, args.epsilon, retries=retries,
    )
    doc = {
        "outcome": "factor" if factor is not None else "none-found",
        "r": params.r,
        "t": format_rational(params.t),
        "n": graph.n,
        "seed": args.seed,
        "epsilon": format_rational(args.epsilon),
        "retries": retries,
    }
    doc.update(_factor_doc(graph, factor))
    _write_text(args.out, dumps_canonical(doc))
    return 0 if factor is not None else 1


def _cmd_localsearch(args) -> int:
    graph = load_graph(args.input)
    params = FactorParams(args.r, args.t)
    collection = local_search_heavy_collection(
        graph, params, args.seed, restarts=args.restarts
    )
    doc = {
        "r": params.r,
        "t": format_rational(params.t),
        "n": graph.n,
        "seed": args.seed,
        "restarts": args.restarts,
        "size": collection.size,
        "overweight_count": collection.overweight_count,
        "blocks": [sorted(b) for b in collection.blocks],
        "block_weights": [
            format_rational(graph.clique_weight(b)) for b in collection.blocks
        ],
    }
    _write_text(args.out, dumps_canonical(doc))
    return 0


def _cmd_estimate(args) -> int:
    cap = _setting(args.solver_cap, ENV_SOLVER_CAP, DEFAULT_SOLVER_CAP)
    record = adversarial_search(
        args.r, args.t, args.n, args.seed, args.grid, args.budget,
        solver_cap=cap,
    )
    weighting_path = args.weighting_out
    if weighting_path is None and args.out is not None:
        weighting_path = _sidecar_path(args.out, "weighting")
    if weighting_path is not None:
        save_graph(weighting_path, record.graph)
    doc = {
        "r": record.r,
        "t": format_rational(record.t),
        "n": record.n,
        "value": format_rational(record.value),
        "source": record.source,
        "certified": record.certified,
        "note": record.note,
        "weighting_path": weighting_path,
        "certificate": None if record.certificate is None else record.certificate.to_json(),
    }
    _write_text(args.out, dumps_canonical(doc))
    return 0


def _cmd_scan(args) -> int:
    cap = _setting(args.solver_cap, ENV_SOLVER_CAP, DEFAULT_SOLVER_CAP)
    report = scan_report(
        args.r, args.t, args.n, args.seed, budget=args.budget,
        grid_denominator=args.grid, solver_cap=cap,
    )
    _write_text(args.out, conjecture_report_csv(report))
    for flag in report.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorem3_empirically(
        args.r, args.t, args.trials, args.n, args.seed,
        margin=args.margin, grid_denominator=args.grid,
    )
    _write_text(args.out, dumps_canonical(report.to_json()))
    print(
        f"{report.passes}/{report.trials} sampled graphs at degree "
        f">= {format_rational(report.degree_target)} admitted a factor"
    )
    return 0 if not report.violations else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hfl` parser, built on first use and then shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="hfl",
        description="Heavy clique factors in edge-weighted complete graphs: "
                    "constructions, exact solving, factor schemes, and threshold scans.",
        epilog="Rationals are written num/den (decimals rejected). "
               f"{ENV_SOLVER_CAP} and {ENV_RETRY_BUDGET} override solver cap and retry budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a construction to a JSON graph file")
    p.add_argument("--kind", required=True,
                   choices=[KIND_PROP2, KIND_HS, KIND_COUNTEREXAMPLE, "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=_rational)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=12, help="grid denominator for random weights")
    p.add_argument("--min-degree", type=_rational, dest="min_degree",
                   help="condition random weights on min degree >= this fraction of n")
    p.add_argument("--scale", type=_rational, help="scale all weights after construction")
    p.add_argument("--out", required=True)
    p.add_argument("--descriptor", help="descriptor path (default: <out>.descriptor.json)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="exact search for a heavy factor in a graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--strict", action="store_true",
                   help="demand block weights strictly above the bar")
    p.add_argument("--method", choices=["backtrack", "oracle"],
                   default="backtrack")
    p.add_argument("--cap", type=int, help="enumeration cap for the oracle method")
    p.add_argument("--out", help="certificate path (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("scheme2", help="randomized recursive factor construction")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=_rational, default=Fraction(1, 10))
    p.add_argument("--retries", type=int, help=f"retry budget (default {DEFAULT_RETRY_BUDGET})")
    p.add_argument("--out", help="result path (default: stdout)")
    p.set_defaults(func=_cmd_scheme2)

    p = sub.add_parser("localsearch", help="hill-climb a maximum-ish heavy collection")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--out", help="result path (default: stdout)")
    p.set_defaults(func=_cmd_localsearch)

    p = sub.add_parser("estimate", help="seed + adversarial lower-bound record")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--budget", type=int, default=0,
                   help="annealing proposals (0 = seed record only)")
    p.add_argument("--solver-cap", type=int, dest="solver_cap")
    p.add_argument("--out", help="record path (default: stdout)")
    p.add_argument("--weighting-out", dest="weighting_out",
                   help="weighting path (default: derived from --out)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("scan", help="CSV table of bounds across an (r, t) grid")
    p.add_argument("--r", type=_int_list, required=True, help="comma-separated, e.g. 2,3")
    p.add_argument("--t", type=_rational_list, required=True,
                   help="comma-separated rationals, e.g. 1/3,1/2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--solver-cap", type=int, dest="solver_cap")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="sample at the proven degree line, expect factors")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=_rational, default=Fraction(1, 10))
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
