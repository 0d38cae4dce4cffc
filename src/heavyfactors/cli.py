"""Command-line front end.

Subcommands: generate (construction families to JSON), solve (the one exact
search on a graph file; its certificate, with the blocks' weights and n),
scheme2 (randomized recursive factoring), estimate (seed + adversarial lower
bounds), scan (CSV table of seed records across a parameter grid), verify
(sampling check at the proven degree line).

Options that several subcommands share (--r/--t, the graph file --input,
--seed, --n, --solver-cap, and --out with stdout as its default) are declared
once each, in `build_parser`'s parent parsers, and mean the same everywhere.

Conventions: rationals on the command line and in files are "num/den" (or a
bare integer), never decimals; all randomness flows from --seed (default 0);
outputs are byte-identical across runs of the same invocation.  Exit codes:
0 success, 1 no factor / nothing found, 2 invalid arguments or input,
3 cap or budget exhausted, 4 a certification check failed (the exact solver
found a factor where a record claims none, or a record's degree is off).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .constructions import KIND_RANDOM, KINDS, build
from .core import (
    BudgetExceededError,
    CapExceededError,
    CertificationError,
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
from .schemes import DEFAULT_RETRY_BUDGET, scheme2_factor
from .solver import DEFAULT_SOLVER_CAP, find_heavy_factor

# the --kind spellings that are not a construction kind's own name
KIND_ALIASES = {"random": KIND_RANDOM}
# exception type -> exit code, first match wins (GraphFormatError is a ValueError)
EXIT_CODES = {ValueError: 2, OSError: 2, CapExceededError: 3, BudgetExceededError: 3,
              CertificationError: 4}


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
    return [_rational(part) for part in text.split(",") if part.strip() != ""]


def _refuse_same_file(out: str | None, other: str, flag: str) -> None:
    """Raise before anything is written when `other` resolves to the file --out names (no --out: stdout)."""
    if out is not None and os.path.realpath(out) == os.path.realpath(other):
        raise ValueError(f"--out and {flag} name the same file: {other}")


def _sidecar(out: str | None, path: str | None, kind: str, flag: str) -> str | None:
    """`path`, else `out` with its last ".json" (if any) swapped for ".<kind>.json", else None; refused if it is --out."""
    if path is None and out is not None:
        path = out.removesuffix(".json") + f".{kind}.json"
    if path is not None:
        _refuse_same_file(out, path, flag)
    return path


def _graph_input(args) -> tuple:
    """The graph --input names, read once it is known not to be --out's file, and the (r, t) to factor it at."""
    _refuse_same_file(args.out, args.input, "--input")
    return load_graph(args.input), FactorParams(args.r, args.t)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _factor_doc(graph, found) -> dict:
    """The blocks of the factor `found`, each sorted, and their weights; both None without a factor."""
    if found is None:
        return {"blocks": None, "block_weights": None}
    return {
        "blocks": [sorted(b) for b in found.blocks],
        "block_weights": [format_rational(graph.clique_weight(b)) for b in found.blocks],
    }


def _cmd_generate(args) -> int:
    kind = KIND_ALIASES.get(args.kind, args.kind)
    desc_path = _sidecar(args.out, args.descriptor or None, "descriptor", "--descriptor")
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
    _write_text(desc_path, dumps_canonical(desc.to_json()))
    print(
        f"wrote {kind} weighting on n={graph.n} to {args.out} "
        f"(min degree {format_rational(graph.min_weighted_degree())})"
    )
    return 0


def _cmd_solve(args) -> int:
    graph, params = _graph_input(args)
    cert = find_heavy_factor(graph, params, strict=args.strict)
    doc = cert.to_json()
    del doc["factor"]
    doc.update(n=graph.n, **_factor_doc(graph, cert.factor))
    _write_text(args.out, dumps_canonical(doc))
    return 0 if cert.factor is not None else 1


def _cmd_scheme2(args) -> int:
    graph, params = _graph_input(args)
    factor = scheme2_factor(
        graph, params, args.seed, args.epsilon, retries=args.retries,
    )
    doc = {
        "outcome": "factor" if factor is not None else "none-found",
        "r": params.r,
        "t": format_rational(params.t),
        "n": graph.n,
        "seed": args.seed,
        "epsilon": format_rational(args.epsilon),
        "retries": args.retries,
    }
    doc.update(_factor_doc(graph, factor))
    _write_text(args.out, dumps_canonical(doc))
    return 0 if factor is not None else 1


def _cmd_estimate(args) -> int:
    weighting_path = _sidecar(args.out, args.weighting_out, "weighting", "--weighting-out")
    record = adversarial_search(
        args.r, args.t, args.n, args.seed, args.grid, args.budget,
        solver_cap=args.solver_cap,
    )
    if weighting_path is not None:
        save_graph(weighting_path, record.graph)
    doc = {
        "r": record.r,
        "t": format_rational(record.t),
        "n": record.graph.n,
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
    report = scan_report(args.r, args.t, args.n, solver_cap=args.solver_cap)
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
        f">= {format_rational(report.degree_target)} admitted a factor",
        file=sys.stderr,
    )
    return 0 if not report.violations else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hfl` parser, built on first use and then shared by every `main` call; shared options sit in parents."""
    parser = argparse.ArgumentParser(
        prog="hfl",
        description="Heavy clique factors in edge-weighted complete graphs: "
                    "constructions, exact solving, factor schemes, and threshold scans.",
        epilog="Rationals are written num/den (decimals rejected).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    r_t = argparse.ArgumentParser(add_help=False)
    r_t.add_argument("--r", type=int, required=True)
    r_t.add_argument("--t", type=_rational, required=True)
    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("--input", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default: stdout)")
    n = argparse.ArgumentParser(add_help=False)
    n.add_argument("--n", type=int, required=True)
    solver_cap = argparse.ArgumentParser(add_help=False)
    solver_cap.add_argument("--solver-cap", type=int, dest="solver_cap", default=DEFAULT_SOLVER_CAP)

    p = sub.add_parser("generate", parents=[n], help="write a construction to a JSON graph file")
    p.add_argument("--kind", required=True,
                   choices=[kind for kind in KINDS if kind not in KIND_ALIASES.values()] + list(KIND_ALIASES))
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=_rational)
    p.add_argument("--seed", type=int, help="seed for random weights (default 0)")
    p.add_argument("--grid", type=int, help="grid denominator for random weights (default 12)")
    p.add_argument("--min-degree", type=_rational, dest="min_degree",
                   help="condition random weights on min degree >= this fraction of n")
    p.add_argument("--scale", type=_rational, help="scale all weights after construction")
    p.add_argument("--out", required=True)
    p.add_argument("--descriptor", help="descriptor path (default: <out>.descriptor.json)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", parents=[graph_input, r_t, out],
                       help="exact search for a heavy factor in a graph file")
    p.add_argument("--strict", action="store_true",
                   help="demand block weights strictly above the bar")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("scheme2", parents=[graph_input, r_t, seed, out],
                       help="randomized recursive factor construction")
    p.add_argument("--epsilon", type=_rational, default=Fraction(1, 10))
    p.add_argument("--retries", type=int, default=DEFAULT_RETRY_BUDGET,
                   help=f"retry budget (default {DEFAULT_RETRY_BUDGET})")
    p.set_defaults(func=_cmd_scheme2)

    p = sub.add_parser("estimate", parents=[r_t, n, seed, solver_cap, out],
                       help="seed + adversarial lower-bound record")
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--budget", type=int, default=0,
                   help="annealing proposals (0 = seed record only)")
    p.add_argument("--weighting-out", dest="weighting_out",
                   help="weighting path (default: derived from --out)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("scan", parents=[n, solver_cap, out],
                       help="CSV table of seed records across an (r, t) grid")
    p.add_argument("--r", type=_int_list, required=True, help="comma-separated, e.g. 2,3")
    p.add_argument("--t", type=_rational_list, required=True,
                   help="comma-separated rationals, e.g. 1/3,1/2")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", parents=[r_t, n, seed, out],
                       help="sample at the proven degree line, expect factors")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--margin", type=_rational, default=Fraction(1, 10))
    p.add_argument("--grid", type=int, default=20)
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
