"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from heavyfactors import (
    CliqueFactor,
    FactorParams,
    SolveCertificate,
    enumerate_all_factors,
    find_heavy_factor,
    format_rational,
    is_heavy,
    lab,
    load_graph,
    prop2_construction,
    random_weighting,
    save_graph,
)
from heavyfactors.cli import DEFAULT_RETRY_BUDGET, DEFAULT_SOLVER_CAP, build_parser, main


def run_cli(*argv):
    return main(list(argv))


def run_subprocess(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "heavyfactors.cli", *argv],
        capture_output=True, text=True, **kwargs,
    )


# ------------------------------------------------------------------ generate


def test_generate_writes_graph_and_descriptor(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run_cli(
        "generate", "--kind", "prop2", "--n", "9", "--r", "3", "--t", "2/3",
        "--out", str(out),
    )
    assert code == 0
    expected, _ = prop2_construction(3, Fraction(2, 3), 9)
    assert load_graph(out) == expected
    desc = json.loads((tmp_path / "g.descriptor.json").read_text())
    assert desc["kind"] == "prop2" and desc["t"] == "2/3"
    assert "min degree 6/1" in capsys.readouterr().out


def test_generate_is_byte_identical_across_runs(tmp_path, capsys):
    args = ["generate", "--kind", "random", "--n", "8", "--seed", "5", "--grid", "6"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(a)) == 0
    assert capsys.readouterr().out.startswith(
        f"wrote random-min-degree weighting on n=8 to {a} (min degree ")
    assert json.loads((tmp_path / "a.descriptor.json").read_text())["kind"] == "random-min-degree"
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    different = tmp_path / "c.json"
    assert run_cli("generate", "--kind", "random", "--n", "8", "--seed", "6",
                   "--grid", "6", "--out", str(different)) == 0
    assert a.read_bytes() != different.read_bytes()


def test_generate_random_draws_at_seed_0_and_grid_12_by_default(tmp_path, capsys):
    default, spelled = tmp_path / "default.json", tmp_path / "spelled.json"
    assert run_cli("generate", "--kind", "random", "--n", "8", "--out", str(default)) == 0
    assert run_cli("generate", "--kind", "random", "--n", "8", "--seed", "0", "--grid", "12",
                   "--out", str(spelled)) == 0
    assert default.read_bytes() == spelled.read_bytes()
    assert ((tmp_path / "default.descriptor.json").read_bytes()
            == (tmp_path / "spelled.descriptor.json").read_bytes())


@pytest.mark.parametrize("kind,args,option", [
    pytest.param(kind, args, option, id=f"{kind}-{option.lstrip('-')}")
    for kind, args, unread in [
        ("prop2", ["--r", "3", "--t", "2/3"], ["--seed", "--grid", "--min-degree"]),
        ("hs-sharpness", ["--r", "3"], ["--t", "--seed", "--grid", "--min-degree"]),
        ("counterexample-29-36", [], ["--r", "--t", "--seed", "--grid", "--min-degree"]),
        ("random", [], ["--r", "--t"]),
    ]
    for option in unread
])
def test_generate_refuses_an_option_its_kind_does_not_read(tmp_path, capsys, kind, args, option):
    """Exit 2 naming the kind and the descriptor field, and neither the graph nor the descriptor is written.

    The refusal is `build`'s, so it names the field the option sets.
    """
    value = {"--r": "3", "--t": "1/2", "--seed": "1", "--grid": "6", "--min-degree": "1/2"}[option]
    field = {"--grid": "grid_denominator", "--min-degree": "min_degree"}.get(option, option[2:])
    out = tmp_path / "g.json"
    argv = ["generate", "--kind", kind, "--n", "36", *args, "--out", str(out)]
    assert run_cli(*argv, option, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    kind_name = {"random": "random-min-degree"}.get(kind, kind)
    assert captured.err == f"error: construction kind {kind_name!r} does not read field {field!r}\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*argv) == 0


def test_generate_random_conditioned_bytes_are_pinned(tmp_path, capsys):
    """sha256 of the README's conditioned example, so any change to the draw shows."""
    out = tmp_path / "r.json"
    assert run_cli("generate", "--kind", "random", "--n", "12", "--seed", "7", "--grid", "20",
                   "--min-degree", "4/5", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bcd5d310b7793d6ea05b5261c41675eed195b9abdc0a12a644258c5574b71ac3")
    assert hashlib.sha256((tmp_path / "r.descriptor.json").read_bytes()).hexdigest() == (
        "3a37a490d51dfeaf78a96151412013aa4844dd91f65a7966cc4c077b30972e1c")
    assert "(min degree 41/4)" in capsys.readouterr().out


@pytest.mark.parametrize("args,graph_digest", [
    (["--kind", "random", "--n", "48", "--seed", "0", "--grid", "20", "--min-degree", "9/10"],
     "d0da47b20c3e5d8fef322602d4ff12bfc83194c66ade57e4182b0225df536393"),
    (["--kind", "prop2", "--n", "15", "--r", "3", "--t", "2/3", "--scale", "999/1000"],
     "78425aae8ec9f4dd18cd3802bfc9c3853e3943b44799a189ba6c48f551c62efd"),
    (["--kind", "hs-sharpness", "--n", "18", "--r", "3"],
     "44c6e27a50813db4541befafc77d5593c817b17307cb4a087d8492d5ffe0690d"),
], ids=["random-n48", "prop2-scaled-n15", "hs-n18"])
def test_generate_graph_bytes_are_pinned(tmp_path, capsys, args, graph_digest):
    """sha256 of the graph files the loose scheme2 inputs and the certify inputs are made with."""
    out = tmp_path / "g.json"
    assert run_cli("generate", *args, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == graph_digest


def test_generate_refuses_a_descriptor_path_naming_the_graph_file(tmp_path, capsys):
    out = tmp_path / "g.json"
    (tmp_path / "link.json").symlink_to(out)
    (tmp_path / "sub").mkdir()
    for descriptor in (out, tmp_path / "sub" / ".." / "g.json", tmp_path / "link.json"):
        assert run_cli("generate", "--kind", "prop2", "--n", "6", "--r", "3", "--t", "2/3",
                       "--out", str(out), "--descriptor", str(descriptor)) == 2
        assert capsys.readouterr().err == f"error: --out and --descriptor name the same file: {descriptor}\n"
        assert not out.exists()


def test_generate_scaled_counterexample(tmp_path):
    out = tmp_path / "cx.json"
    code = run_cli("generate", "--kind", "counterexample-29-36", "--n", "36",
                   "--scale", "1/2", "--out", str(out))
    assert code == 0
    g = load_graph(out)
    assert g.min_weighted_degree() == Fraction(29, 2)


@pytest.mark.parametrize("scale", ["3/2", "-1/2"])
def test_generate_refuses_a_scale_outside_the_unit_interval(tmp_path, capsys, scale):
    """`_unit` refuses it before anything is written, as it does every weight, level and density."""
    out = tmp_path / "g.json"
    code = run_cli("generate", "--kind", "prop2", "--n", "9", "--r", "3", "--t", "2/3",
                   f"--scale={scale}", "--out", str(out))
    assert code == 2
    assert capsys.readouterr() == ("", f"error: scale factor {scale} outside [0, 1]\n")
    assert list(tmp_path.iterdir()) == []


def test_generate_missing_parameters_is_a_usage_error(tmp_path, capsys):
    code = run_cli("generate", "--kind", "prop2", "--n", "9",
                   "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_unreachable_min_degree_is_an_input_error(tmp_path, capsys):
    """19/20 of n = 6 needs per-edge weight 57/50 > 1: the sampler's refusal, exit 2, nothing written."""
    out = tmp_path / "g.json"
    code = run_cli("generate", "--kind", "random", "--n", "6", "--grid", "12",
                   "--min-degree", "19/20", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sampling failure: degree target 57/10 needs per-edge weight 57/50 > 1 at n=6\n"
    )
    assert not out.exists()


def test_decimal_rationals_are_rejected_at_the_parser():
    proc = run_subprocess("generate", "--kind", "prop2", "--n", "9", "--r", "3",
                          "--t", "0.667", "--out", "unused.json")
    assert proc.returncode == 2
    assert "decimal notation" in proc.stderr


def test_rational_text_that_is_not_a_number_is_not_called_decimal(capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("generate", "--kind", "prop2", "--n", "9", "--r", "3", "--t", "one", "--out", "unused.json")
    assert exit_.value.code == 2
    assert "argument --t: not a rational: 'one'" in capsys.readouterr().err


# --------------------------------------------------------------------- solve


@pytest.fixture()
def prop2_file(tmp_path):
    path = tmp_path / "prop2.json"
    run_cli("generate", "--kind", "prop2", "--n", "9", "--r", "3", "--t", "2/3",
            "--out", str(path))
    return path


@pytest.fixture()
def scaled_prop2_file(tmp_path):
    path = tmp_path / "scaled.json"
    run_cli("generate", "--kind", "prop2", "--n", "9", "--r", "3", "--t", "2/3",
            "--scale", "999/1000", "--out", str(path))
    return path


def test_solve_finds_a_factor_and_writes_a_certificate(prop2_file, tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli("solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "factor" and doc["method"] == "backtrack"
    assert doc["n"] == 9 and doc["strict"] is False
    assert sorted(v for b in doc["blocks"] for v in b) == list(range(9))
    assert len(doc["block_weights"]) == 3


def test_solve_strict_exhausts_the_boundary_instance(prop2_file, capsys):
    code = run_cli("solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3",
                   "--strict")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "exhausted" and doc["blocks"] is None


def test_solve_methods_agree(scaled_prop2_file, tmp_path):
    """`hfl solve`'s one method, the backtracking search, agrees with the partition oracle."""
    graph = load_graph(scaled_prop2_file)
    params = FactorParams(3, Fraction(2, 3))
    assert not any(all(is_heavy(graph, b, params) for b in blocks) for blocks in enumerate_all_factors(9, 3))
    out = tmp_path / "cert.json"
    assert run_cli("solve", "--input", str(scaled_prop2_file), "--r", "3", "--t", "2/3", "--out", str(out)) == 1
    assert json.loads(out.read_text())["outcome"] == "exhausted"


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
@pytest.mark.parametrize("graph,t,outcome", [
    (random_weighting(9, 4, 5), "1/2", "factor"),
    (prop2_construction(3, Fraction(2, 3), 9)[0].scale(Fraction(999, 1000)), "2/3", "exhausted"),
], ids=["feasible", "exhausted"])
def test_solve_document_is_the_certificate_with_weighed_blocks(tmp_path, capsys, graph, t, outcome, strict):
    """The document is `SolveCertificate.to_json` with `factor` swapped for `blocks` and `block_weights`, plus `n`."""
    path = tmp_path / "g.json"
    save_graph(path, graph)
    cert = find_heavy_factor(graph, FactorParams(3, Fraction(t)), strict=strict)
    expected = cert.to_json()
    blocks = expected.pop("factor")
    weights = None if blocks is None else [format_rational(graph.clique_weight(b)) for b in blocks]
    expected.update(n=9, blocks=blocks, block_weights=weights)
    code = run_cli("solve", "--input", str(path), "--r", "3", "--t", t, *(["--strict"] if strict else []))
    assert (code, cert.outcome) == (0 if outcome == "factor" else 1, outcome)
    assert json.loads(capsys.readouterr().out) == expected


def test_backtrack_neither_takes_nor_reads_a_cap(prop2_file, tmp_path, capsys):
    """`solve` has one decider and no cap: `--method` and `--cap` are usage errors that write nothing."""
    argv = ["solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3", "--strict"]
    out = tmp_path / "cert.json"
    for extra in (["--method", "oracle"], ["--method", "backtrack"], ["--method", "hypergraph"], ["--cap", "5"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *extra, "--out", str(out))
        assert exc.value.code == 2, extra
        assert capsys.readouterr().out == ""
        assert not out.exists()
    assert run_cli(*argv) == 1


def test_solve_rejects_malformed_graph_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 1, "0.5"]]}')
    code = run_cli("solve", "--input", str(bad), "--r", "3", "--t", "1/2")
    assert code == 2
    assert "edges[0]" in capsys.readouterr().err


@pytest.mark.parametrize("entry,message", [
    ('[0, 1, "three"]', "edges[0]: not a rational: 'three'"),
    ('[0, "x", "1/2"]', "edges[0]: pair (0, x): vertex must be an integer, got 'x'"),
], ids=["weight-text", "vertex-text"])
def test_solve_names_a_graph_file_fault_with_exit_2(tmp_path, capsys, entry, message):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"n": 3, "edges": [{entry}]}}')
    assert run_cli("solve", "--input", str(bad), "--r", "3", "--t", "1/2") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_refuses_a_descriptor_as_its_input(tmp_path, capsys):
    """A descriptor has an `n` but no edges; read as a graph it would be the all-zero weighting."""
    out = tmp_path / "g.json"
    assert run_cli("generate", "--kind", "prop2", "--n", "6", "--r", "3", "--t", "2/3", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("solve", "--input", str(tmp_path / "g.descriptor.json"), "--r", "3", "--t", "1/2") == 2
    assert capsys.readouterr().err == (
        "error: unexpected field 'kind': a graph document has only 'n' and 'edges'\n")


@pytest.mark.parametrize("command", ["solve", "scheme2"])
def test_a_graph_file_nested_too_deeply_is_an_input_error(tmp_path, capsys, command):
    """Exit 2 with the loader's message, never a traceback read as exit 1 ("no factor")."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert run_cli(command, "--input", str(deep), "--r", "3", "--t", "1/2") == 2
    assert capsys.readouterr().err == f"error: {deep}: invalid JSON: nested too deeply to parse\n"


def test_solve_missing_file_is_an_input_error(capsys):
    code = run_cli("solve", "--input", "/nonexistent/graph.json", "--r", "3",
                   "--t", "1/2")
    assert code == 2


# ------------------------------------------------------------------ scheme2


def test_scheme2_command_round_trip(tmp_path):
    graph_path = tmp_path / "ones.json"
    run_cli("generate", "--kind", "random", "--n", "12", "--grid", "1",
            "--min-degree", "1/2", "--seed", "2", "--out", str(graph_path))
    out = tmp_path / "factor.json"
    code = run_cli("scheme2", "--input", str(graph_path), "--r", "3", "--t", "1/4",
                   "--seed", "1", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["retries"] == 16 and doc["epsilon"] == "1/10"
    if code == 0:
        assert doc["outcome"] == "factor"
        assert sorted(v for b in doc["blocks"] for v in b) == list(range(12))
    else:
        assert code == 1 and doc["outcome"] == "none-found"


def test_scheme2_none_found_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "zeros.json"
    run_cli("generate", "--kind", "random", "--n", "6", "--grid", "1",
            "--seed", "0", "--out", str(graph_path))
    zeros = {"n": 6, "edges": []}
    graph_path.write_text(json.dumps(zeros))
    capsys.readouterr()
    code = run_cli("scheme2", "--input", str(graph_path), "--r", "3", "--t", "1/2", "--retries", "2")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "none-found" and doc["retries"] == 2


def test_scheme2_negative_retries_is_a_usage_error(tmp_path, capsys):
    graph_path = tmp_path / "ones.json"
    graph_path.write_text(json.dumps({"n": 6, "edges": [[i, j, "1"] for i in range(6)
                                                         for j in range(i + 1, 6)]}))
    argv = ["scheme2", "--input", str(graph_path), "--r", "3", "--t", "1/2"]
    assert run_cli(*argv, "--retries", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: retries must be nonnegative, got -1\n"


@pytest.mark.parametrize("r", ["2", "3"])
def test_scheme2_negative_epsilon_is_a_usage_error(tmp_path, capsys, r):
    graph_path = tmp_path / "ones.json"
    graph_path.write_text(json.dumps({"n": 6, "edges": [[i, j, "1"] for i in range(6)
                                                         for j in range(i + 1, 6)]}))
    assert run_cli("scheme2", "--input", str(graph_path), "--r", r, "--t", "1/2",
                   "--epsilon=-1/10") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epsilon must be nonnegative, got -1/10\n"


@pytest.mark.parametrize("command", ["solve", "scheme2"])
def test_commands_refuse_an_out_path_naming_the_input_file(tmp_path, capsys, command):
    """Exit 2 before anything is read or written; the input graph keeps its bytes."""
    graph_path = tmp_path / "g.json"
    assert run_cli("generate", "--kind", "prop2", "--n", "6", "--r", "3", "--t", "2/3",
                   "--out", str(graph_path)) == 0
    before = graph_path.read_bytes()
    (tmp_path / "link.json").symlink_to(graph_path)
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    for out in (graph_path, tmp_path / "sub" / ".." / "g.json", tmp_path / "link.json"):
        assert run_cli(command, "--input", str(graph_path), "--r", "3", "--t", "2/3",
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out and --input name the same file: {graph_path}\n"
        assert graph_path.read_bytes() == before
    assert run_cli(command, "--input", str(tmp_path / "link.json"), "--r", "3", "--t", "2/3",
                   "--out", str(graph_path)) == 2
    assert capsys.readouterr().err == f"error: --out and --input name the same file: {tmp_path / 'link.json'}\n"
    assert graph_path.read_bytes() == before


# ------------------------------------------------------------ estimate / scan


def test_estimate_writes_record_and_weighting(tmp_path):
    out = tmp_path / "rec.json"
    code = run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "6",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == "3663/1000" and doc["certified"] is True
    assert doc["source"] == "prop2"
    assert doc["certificate"]["outcome"] == "exhausted"
    weighting = tmp_path / "rec.weighting.json"
    assert doc["weighting_path"] == str(weighting)
    g = load_graph(weighting)
    assert g.min_weighted_degree() == Fraction(3663, 1000)


def test_estimate_refuses_a_weighting_path_naming_the_record(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "6",
                   "--out", str(out), "--weighting-out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --out and --weighting-out name the same file: {out}\n"
    assert list(tmp_path.iterdir()) == []
    # without --out the record goes to stdout, so any weighting path is distinct
    assert run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "6", "--weighting-out", str(out)) == 0
    assert json.loads(capsys.readouterr().out)["weighting_path"] == str(out)
    assert load_graph(out).n == 6


def test_sidecar_paths_replace_only_the_final_suffix(tmp_path, capsys):
    """A ".descriptor.json" earlier in the path is a directory name, left alone."""
    nested = tmp_path / "a.descriptor.json.d"
    nested.mkdir()
    out = nested / "rec.json"
    assert run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "6", "--out", str(out)) == 0
    weighting = nested / "rec.weighting.json"
    assert json.loads(out.read_text())["weighting_path"] == str(weighting)
    assert load_graph(weighting).n == 6
    assert run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "6",
                   "--out", str(nested / "rec")) == 0
    assert load_graph(weighting).n == 6
    assert run_cli("generate", "--kind", "hs-sharpness", "--n", "6", "--r", "3",
                   "--out", str(nested / "g.json")) == 0
    assert json.loads((nested / "g.descriptor.json").read_text())["kind"] == "hs-sharpness"


def test_estimate_above_cap_is_a_cap_error(capsys):
    code = run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "15",
                   "--budget", "5")
    assert code == 3


def test_estimate_above_cap_without_budget_is_an_uncertified_record(capsys):
    code = run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "15")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is False and doc["source"] == "prop2"
    assert doc["note"] == "uncertified: n=15 above solver cap 12"
    assert doc["certificate"] is None


def test_failed_certification_is_exit_code_4(tmp_path, monkeypatch, capsys):
    def factor_everywhere(graph, params, strict=False):
        blocks = [range(i, i + params.r) for i in range(0, graph.n, params.r)]
        return SolveCertificate(params, strict, CliqueFactor.from_blocks(blocks), 1)

    monkeypatch.setattr(lab, "find_heavy_factor", factor_everywhere)
    out = tmp_path / "rec.json"
    code = run_cli("estimate", "--r", "3", "--t", "2/3", "--n", "6", "--out", str(out))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "strictly heavy factor" in err
    assert not out.exists()


def test_scan_reference_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli("scan", "--r", "2,3", "--t", "1/3,1/2,2/3", "--n", "12",
                   "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,t,n,prop2_value,conjecture,upper_bound,certified"
    assert len(lines) == 7
    assert lines[1] == "2,1/3,12,6993/1000,2/3,2/3,true"
    assert lines[4] == "3,1/3,12,5661/1000,5/9,2/3,true"


def test_scan_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--r", "3", "--t", "1/2,2/3", "--n", "6"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_flags_go_to_stderr(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run_cli("scan", "--r", "5", "--t", "1/2", "--n", "12", "--out", str(out))
    assert code == 0
    assert "skipped" in capsys.readouterr().err
    assert out.read_text().splitlines() == ["r,t,n,prop2_value,conjecture,upper_bound,certified"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_scan_refuses_a_vertex_count_below_one_before_any_cell(tmp_path, capsys, n):
    """No seed exists on fewer than one vertex: exit 2 and nothing written, not a header-only table."""
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--r", "3", "--t", "1/2", "--n", n, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: need at least one vertex, got n={n}\n")
    assert not out.exists()


def test_scan_skips_an_r_that_leaves_the_clique_side_empty(capsys):
    """r = n = 6 has no seed weighting, so it is skipped and flagged; the r = 2 row is the one `--r 2` writes."""
    assert run_cli("scan", "--r", "2", "--t", "1/2", "--n", "6") == 0
    alone = capsys.readouterr()
    assert run_cli("scan", "--r", "2,6", "--t", "1/2", "--n", "6") == 0
    both = capsys.readouterr()
    assert both.out == alone.out and len(alone.out.splitlines()) == 2
    skip = "flag: r=6 t=1/2: skipped, need n > r so the short side is nonempty, got n=6, r=6\n"
    assert (alone.err, both.err) == ("", skip)


def test_scan_refuses_a_level_outside_the_unit_interval_before_any_cell(monkeypatch, capsys):
    """t = 3/2 is refused up front: no seed record is built for the valid t = 1/2 first."""
    calls = []
    evaluate = lab.evaluate_lower_bounds
    monkeypatch.setattr(lab, "evaluate_lower_bounds",
                        lambda *args, **kwargs: calls.append(args) or evaluate(*args, **kwargs))
    assert run_cli("scan", "--r", "2,3", "--t", "1/2,3/2", "--n", "6") == 2
    assert capsys.readouterr() == ("", "error: level t 3/2 outside [0, 1]\n")
    assert calls == []
    assert run_cli("scan", "--r", "2,3", "--t", "1/2", "--n", "6") == 0
    assert len(calls) == 2


def test_estimate_negative_budget_is_a_usage_error(capsys):
    assert run_cli("estimate", "--r", "3", "--t", "1/2", "--n", "12", "--budget", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be nonnegative, got -1\n"


@pytest.mark.parametrize("budget", ["0", "5"])
@pytest.mark.parametrize("r", ["3", "4"])
def test_estimate_zero_grid_is_a_usage_error_at_every_budget(capsys, budget, r):
    """The grid is refused before the record is built, so also for r = 4, which does not divide n = 6."""
    assert run_cli("estimate", "--r", r, "--t", "1/2", "--n", "6", "--budget", budget, "--grid", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid denominator must be >= 1, got 0\n"


def test_scan_refuses_a_clique_size_list_that_is_not_integers(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("scan", "--r", "a,b", "--t", "1/2", "--n", "6")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --r: not a comma-separated integer list: 'a,b'" in captured.err


@pytest.mark.parametrize("option", [["--seed", "1"], ["--budget", "5"], ["--grid", "3"]],
                         ids=["seed", "budget", "grid"])
def test_scan_takes_no_annealer_option(capsys, option):
    """A scan tabulates seed records, so the annealer's options are unknown to it."""
    with pytest.raises(SystemExit) as exc:
        run_cli("scan", "--r", "3", "--t", "1/2", "--n", "6", *option)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err


@pytest.mark.parametrize("r_list", ["0,3", "3,1", "-3"])
def test_scan_clique_size_below_two_is_a_usage_error(tmp_path, capsys, r_list):
    """r = 0 would reach n % r; every r below 2 is refused before any cell, and nothing is written."""
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--r", r_list, "--t", "1/2", "--n", "6", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = min(int(r) for r in r_list.split(","))
    assert captured.err == f"error: need r >= 2, got r={bad}\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli("estimate", "--r", str(bad), "--t", "1/2", "--n", "6") == 2
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--r", "3", "--t", "1/2", "--n", "6"], "solver cap must be nonnegative, got -1"),
    (["estimate", "--r", "3", "--t", "1/2", "--n", "6", "--budget", "5"], "solver cap must be nonnegative, got -1"),
    (["scan", "--r", "3", "--t", "1/2", "--n", "6"], "solver cap must be nonnegative, got -1"),
    (["scan", "--r", "4", "--t", "1/2", "--n", "6"], "solver cap must be nonnegative, got -1"),
])
def test_negative_solver_cap_is_a_usage_error(tmp_path, capsys, argv, message):
    """r = 4 does not divide n = 6, so that scan has no cell."""
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--solver-cap", "-1", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- verify


def test_verify_samples_and_reports(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--r", "3", "--t", "1/3", "--n", "12",
                   "--trials", "3", "--out", str(out))
    assert code == 0
    assert "3/3 sampled graphs" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["passes"] == 3 and doc["violations"] == []


def test_verify_stdout_is_the_report_alone(capsys):
    """Without --out the JSON report is all of stdout; the summary line goes to stderr."""
    assert run_cli("verify", "--r", "3", "--t", "1/3", "--n", "6", "--trials", "2") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passes"] == 2
    assert captured.err == "2/2 sampled graphs at degree >= 23/5 admitted a factor\n"


def test_verify_unreachable_target_is_an_input_error(capsys):
    code = run_cli("verify", "--r", "3", "--t", "2/3", "--n", "12", "--trials", "1")
    assert code == 2
    assert "sampling failure" in capsys.readouterr().err


def test_verify_without_vertices_is_an_input_error(capsys):
    assert run_cli("verify", "--r", "3", "--t", "1/3", "--n", "0", "--trials", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one vertex, got n=0\n"


def test_verify_refuses_a_negative_degree_target(tmp_path, capsys):
    """1/2 + t/2 + margin < 0 is a target every weighting meets: exit 2 naming it, nothing written.

    A zero target is still sampled.
    """
    out = tmp_path / "verify.json"
    for t, margin, target in [("0", "-1", "-6/1"), ("1/3", "-1", "-4/1"), ("0", "-7/12", "-1/1")]:
        code = run_cli("verify", "--r", "3", "--t", t, "--n", "12", f"--margin={margin}", "--trials", "2",
                       "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: degree target {target} is negative"), captured.err
        assert not out.exists()
    code = run_cli("verify", "--r", "3", "--t", "0", "--n", "12", "--margin=-1/2", "--trials", "2")
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == "2/2 sampled graphs at degree >= 0/1 admitted a factor\n"


def test_verify_reports_each_violation_and_exits_1(tmp_path, capsys):
    """--margin=-1/2 drops the degree target below (1 + t) n / 2; at t = 1 the sample has no factor."""
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--r", "3", "--t", "1", "--n", "6", "--margin=-1/2",
                   "--trials", "1", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "0/1 sampled graphs at degree >= 3/1 admitted a factor\n"
    doc = json.loads(out.read_text())
    assert doc["passes"] == 0
    assert doc["violations"] == [{"min_degree": "15/4", "nodes_explored": 1, "trial": 0}]


# ------------------------------------------------------------- process-level


def test_module_entry_point_runs_in_a_clean_interpreter(tmp_path):
    out = tmp_path / "g.json"
    proc = run_subprocess("generate", "--kind", "hs-sharpness", "--n", "6",
                          "--r", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "min degree 3/1" in proc.stdout
    proc2 = run_subprocess("solve", "--input", str(out), "--r", "3", "--t", "1/1")
    assert proc2.returncode == 1
    assert json.loads(proc2.stdout)["outcome"] == "exhausted"


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    """The parser, its six subparsers and the six parents of their shared options are built at most once.

    Later calls reuse them.
    """
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for name in ("a.json", "b.json"):
        before = len(built)
        assert run_cli("generate", "--kind", "hs-sharpness", "--n", "6", "--r", "3",
                       "--out", str(tmp_path / name)) == 0
        per_call.append(len(built) - before)
    assert per_call == [13, 0]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


R_T = {"--r": ("r", "int", None, True), "--t": ("t", "_rational", None, True)}
# subcommand -> {flag: (dest, type name, default, required)}, `-h` aside
OPTION_SETS = {
    "generate": {
        "--kind": ("kind", None, None, True),
        "--n": ("n", "int", None, True),
        "--r": ("r", "int", None, False),
        "--t": ("t", "_rational", None, False),
        "--seed": ("seed", "int", None, False),
        "--grid": ("grid", "int", None, False),
        "--min-degree": ("min_degree", "_rational", None, False),
        "--scale": ("scale", "_rational", None, False),
        "--out": ("out", None, None, True),
        "--descriptor": ("descriptor", None, None, False),
    },
    "solve": {
        "--input": ("input", None, None, True), **R_T,
        "--strict": ("strict", None, False, False),
        "--out": ("out", None, None, False),
    },
    "scheme2": {
        "--input": ("input", None, None, True), **R_T,
        "--seed": ("seed", "int", 0, False),
        "--epsilon": ("epsilon", "_rational", Fraction(1, 10), False),
        "--retries": ("retries", "int", DEFAULT_RETRY_BUDGET, False),
        "--out": ("out", None, None, False),
    },
    "estimate": {
        **R_T,
        "--n": ("n", "int", None, True),
        "--seed": ("seed", "int", 0, False),
        "--grid": ("grid", "int", 12, False),
        "--budget": ("budget", "int", 0, False),
        "--solver-cap": ("solver_cap", "int", DEFAULT_SOLVER_CAP, False),
        "--out": ("out", None, None, False),
        "--weighting-out": ("weighting_out", None, None, False),
    },
    "scan": {
        "--r": ("r", "_int_list", None, True),
        "--t": ("t", "_rational_list", None, True),
        "--n": ("n", "int", None, True),
        "--solver-cap": ("solver_cap", "int", DEFAULT_SOLVER_CAP, False),
        "--out": ("out", None, None, False),
    },
    "verify": {
        **R_T,
        "--n": ("n", "int", None, True),
        "--trials": ("trials", "int", 50, False),
        "--seed": ("seed", "int", 0, False),
        "--margin": ("margin", "_rational", Fraction(1, 10), False),
        "--grid": ("grid", "int", 20, False),
        "--out": ("out", None, None, False),
    },
}


def test_every_subcommand_keeps_its_option_set():
    """Each subcommand's flags, with dest, type, default and required-ness, wherever the option is declared.

    Moving an option into a parent parser that several subcommands share must
    leave every subcommand's set as it was.
    """
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    declared = {
        name: {flag: (action.dest, getattr(action.type, "__name__", None), action.default, action.required)
               for action in command._actions if not isinstance(action, argparse._HelpAction)
               for flag in action.option_strings}
        for name, command in commands.items()
    }
    assert declared == OPTION_SETS


def test_missing_subcommand_is_a_usage_error():
    proc = run_subprocess()
    assert proc.returncode == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    """A name that is none of the six subcommands, `localsearch` among them, exits 2 before any file is read."""
    with pytest.raises(SystemExit) as exited:
        run_cli("localsearch", "--input", "missing.json", "--r", "3", "--t", "1/3")
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    choices = captured.err.split("invalid choice: 'localsearch'")[1]
    assert [name for name in OPTION_SETS if name in choices] == list(OPTION_SETS)


# ------------------------------------------------------------ pinned outputs

PINNED_INPUTS = {
    "p2s.json": ["--kind", "prop2", "--n", "12", "--r", "3", "--t", "2/3", "--scale", "999/1000"],
    "dense.json": ["--kind", "random", "--n", "12", "--seed", "4", "--grid", "20", "--min-degree", "4/5"],
    "rnd.json": ["--kind", "random", "--n", "12", "--seed", "1", "--grid", "7"],
}


# id -> (argv, exit code, sha256 of stdout)
PINNED_CASES = {
    "solve-strict-prop2-exhausted": (["solve", "--input", "p2s.json", "--r", "3", "--t", "2/3", "--strict"], 1,
                                     "b634ed157cf90c3e9a9fd9db84d1654520e469eaa5e641eada13a4e77654413b"),
    "solve-feasible": (["solve", "--input", "dense.json", "--r", "3", "--t", "1/2"], 0,
                       "a97884e33f3b7222a9acad8ab9bd445a5bffa1768ad6c7e22f9dbf28e61f9822"),
    "solve-prop2-exhausted": (["solve", "--input", "p2s.json", "--r", "3", "--t", "2/3"], 1,
                              "206f79f6e0e429e6224fb625623cbbcf64dcb29377aab5be11ef639d78f97813"),
    "solve-feasible-r2": (["solve", "--input", "rnd.json", "--r", "2", "--t", "1/2"], 0,
                          "2ff51ff369474dc92994f469d203654eed5a7d03741cebd44b109f69ad879477"),
    "solve-feasible-r4": (["solve", "--input", "rnd.json", "--r", "4", "--t", "1/3"], 0,
                          "5cb8aeb84afeed19cff6ab4761458312743168ce1b9746554b8cf4a93729dbc5"),
    "scheme2-factor": (["scheme2", "--input", "dense.json", "--r", "3", "--t", "1/3", "--seed", "0"], 0,
                       "860068683ef550d045a64da8b49096dd225a44213f51354ebe8ab350f470eb91"),
    "scheme2-factor-r2": (["scheme2", "--input", "dense.json", "--r", "2", "--t", "1/2", "--seed", "0"], 0,
                          "9f0a536b96824e24bca80c6efc667f3f1e8900c3a80c37a51860172ab5df347c"),
    "scheme2-none-found": (["scheme2", "--input", "rnd.json", "--r", "3", "--t", "1/2", "--seed", "0",
                            "--retries", "3"], 1,
                           "6024b6b37236e639ef02664771400f5cba3c6233345845b7a5fe9219a12ab871"),
    "estimate-adversarial": (["estimate", "--r", "3", "--t", "1/3", "--n", "6", "--grid", "3", "--budget", "300"], 0,
                             "11e63418d78f06ab836d583a6e72fd70546518296607106397827fca69896ab9"),
    "scan-record-grid": (["scan", "--r", "2,3", "--t", "1/3,1/2,2/3", "--n", "6"], 0,
                         "f5abeadb2a13f27bc50ca701fef2c45ccbec931fb9d8143dea52a1fe15084d1f"),
    "estimate-record": (["estimate", "--r", "3", "--t", "2/3", "--n", "9", "--budget", "40", "--seed", "3"], 0,
                        "63a62cdeb40235a6a617ce94651fe70860e37c939d5794e3703e2e75cc0ea20c"),
    # the JSON report alone: the summary line goes to stderr
    "verify": (["verify", "--r", "3", "--t", "1/3", "--n", "12", "--trials", "4", "--seed", "1"], 0,
               "f3b0e22c9d130907cfa5ac14097868a20361788caf01e9dcbb8ecae99bc20a59"),
}


def write_pinned_inputs(capsys):
    for name, args in PINNED_INPUTS.items():
        assert run_cli("generate", *args, "--out", name) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,code,digest", list(PINNED_CASES.values()), ids=list(PINNED_CASES))
def test_command_stdout_is_pinned(tmp_path, monkeypatch, capsys, argv, code, digest):
    """sha256 of each document as first recorded, node counts and factors included."""
    monkeypatch.chdir(tmp_path)
    write_pinned_inputs(capsys)
    assert run_cli(*argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", ["estimate-record", "scheme2-factor", "solve-strict-prop2-exhausted"])
def test_documents_depend_only_on_argv(tmp_path, monkeypatch, capsys, case):
    """Fresh interpreters at three hash seeds, with `HFL_SOLVER_CAP` and `HFL_RETRY_BUDGET` set to 0,
    print the pinned document: no setting comes from the environment."""
    monkeypatch.chdir(tmp_path)
    write_pinned_inputs(capsys)
    argv, code, digest = PINNED_CASES[case]
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, HFL_SOLVER_CAP="0", HFL_RETRY_BUDGET="0", PYTHONHASHSEED=hash_seed)
        proc = run_subprocess(*argv, env=env)
        assert proc.returncode == code, (hash_seed, proc.stderr)
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, hash_seed
