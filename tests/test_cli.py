"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from heavyfactors import CliqueFactor, SolveCertificate, lab, load_graph, prop2_construction
from heavyfactors.cli import main


def run_cli(*argv):
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "heavyfactors.cli", *argv],
        capture_output=True, text=True,
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


def test_generate_scaled_counterexample(tmp_path):
    out = tmp_path / "cx.json"
    code = run_cli("generate", "--kind", "counterexample-29-36", "--n", "36",
                   "--scale", "1/2", "--out", str(out))
    assert code == 0
    g = load_graph(out)
    assert g.min_weighted_degree() == Fraction(29, 2)


def test_generate_missing_parameters_is_a_usage_error(tmp_path, capsys):
    code = run_cli("generate", "--kind", "prop2", "--n", "9",
                   "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_unreachable_min_degree_exhausts_the_budget(tmp_path, capsys):
    code = run_cli("generate", "--kind", "random", "--n", "6", "--grid", "12",
                   "--min-degree", "19/20", "--out", str(tmp_path / "g.json"))
    assert code == 3


def test_decimal_rationals_are_rejected_at_the_parser():
    proc = run_subprocess("generate", "--kind", "prop2", "--n", "9", "--r", "3",
                          "--t", "0.667", "--out", "unused.json")
    assert proc.returncode == 2
    assert "decimal notation" in proc.stderr


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
    for method in ("backtrack", "oracle"):
        code = run_cli("solve", "--input", str(scaled_prop2_file), "--r", "3",
                       "--t", "2/3", "--method", method,
                       "--out", str(tmp_path / f"{method}.json"))
        assert code == 1, method
        doc = json.loads((tmp_path / f"{method}.json").read_text())
        assert doc["outcome"] == "exhausted"
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--input", str(scaled_prop2_file), "--r", "3",
                "--t", "2/3", "--method", "hypergraph")
    assert exc.value.code == 2


def test_solve_oracle_respects_the_cap(prop2_file, capsys):
    code = run_cli("solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3",
                   "--method", "oracle", "--cap", "6")
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_solver_cap_env_knob(prop2_file, capsys, monkeypatch):
    monkeypatch.setenv("HFL_SOLVER_CAP", "6")
    code = run_cli("solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3",
                   "--method", "oracle")
    assert code == 3
    monkeypatch.setenv("HFL_SOLVER_CAP", "12")
    code = run_cli("solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3",
                   "--method", "oracle")
    assert code == 0
    capsys.readouterr()


def test_backtrack_neither_takes_nor_reads_a_cap(prop2_file, capsys, monkeypatch):
    """The cap bounds only the oracle's enumeration: backtrack refuses --cap and ignores the variable."""
    argv = ["solve", "--input", str(prop2_file), "--r", "3", "--t", "2/3", "--strict"]
    assert run_cli(*argv, "--cap", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cap applies only to --method oracle\n"
    assert run_cli(*argv) == 1
    expected = capsys.readouterr()
    monkeypatch.setenv("HFL_SOLVER_CAP", "x")
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == expected
    assert run_cli(*argv, "--method", "oracle") == 2
    assert capsys.readouterr().err == "error: HFL_SOLVER_CAP must be an integer, got 'x'\n"


def test_solve_rejects_malformed_graph_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 1, "0.5"]]}')
    code = run_cli("solve", "--input", str(bad), "--r", "3", "--t", "1/2")
    assert code == 2
    assert "edges[0]" in capsys.readouterr().err


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


# ----------------------------------------------------- scheme2 / localsearch


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


def test_scheme2_none_found_exit_code(tmp_path, monkeypatch, capsys):
    graph_path = tmp_path / "zeros.json"
    run_cli("generate", "--kind", "random", "--n", "6", "--grid", "1",
            "--seed", "0", "--out", str(graph_path))
    zeros = {"n": 6, "edges": []}
    graph_path.write_text(json.dumps(zeros))
    monkeypatch.setenv("HFL_RETRY_BUDGET", "2")
    capsys.readouterr()
    code = run_cli("scheme2", "--input", str(graph_path), "--r", "3", "--t", "1/2")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "none-found" and doc["retries"] == 2


def test_scheme2_negative_retries_is_a_usage_error(tmp_path, monkeypatch, capsys):
    graph_path = tmp_path / "ones.json"
    graph_path.write_text(json.dumps({"n": 6, "edges": [[i, j, "1"] for i in range(6)
                                                         for j in range(i + 1, 6)]}))
    argv = ["scheme2", "--input", str(graph_path), "--r", "3", "--t", "1/2"]
    assert run_cli(*argv, "--retries", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: retries must be nonnegative, got -1\n"
    monkeypatch.setenv("HFL_RETRY_BUDGET", "-1")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: retries must be nonnegative, got -1\n"


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


def test_localsearch_command(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    run_cli("generate", "--kind", "random", "--n", "9", "--grid", "4",
            "--seed", "3", "--out", str(graph_path))
    capsys.readouterr()
    code = run_cli("localsearch", "--input", str(graph_path), "--r", "3",
                   "--t", "1/4", "--seed", "0")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == len(doc["blocks"])
    assert doc["restarts"] == 4


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
    assert lines[0] == "r,t,n,prop2_value,adversarial_value,conjecture,upper_bound,certified"
    assert len(lines) == 7
    assert lines[1] == "2,1/3,12,6993/1000,6993/1000,2/3,2/3,true"
    assert lines[4] == "3,1/3,12,5661/1000,5661/1000,5/9,2/3,true"


def test_scan_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--r", "3", "--t", "1/2,2/3", "--n", "6", "--seed", "4",
            "--budget", "25"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_flags_go_to_stderr(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run_cli("scan", "--r", "5", "--t", "1/2", "--n", "12", "--out", str(out))
    assert code == 0
    assert "skipped" in capsys.readouterr().err
    assert out.read_text().splitlines() == [
        "r,t,n,prop2_value,adversarial_value,conjecture,upper_bound,certified"
    ]


def test_scan_negative_budget_is_a_usage_error(capsys):
    assert run_cli("estimate", "--r", "3", "--t", "1/2", "--n", "12", "--budget", "-1") == 2
    estimate_err = capsys.readouterr().err
    assert run_cli("scan", "--r", "3", "--t", "1/2", "--n", "12", "--budget", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == estimate_err == "error: budget must be nonnegative, got -1\n"


@pytest.mark.parametrize("budget", ["0", "5"])
@pytest.mark.parametrize("r", ["3", "4"])
def test_scan_zero_grid_is_a_usage_error_at_every_budget(capsys, budget, r):
    """r = 4 does not divide n = 6, so every cell of that scan is skipped."""
    assert run_cli("estimate", "--r", "3", "--t", "1/2", "--n", "6", "--budget", budget, "--grid", "0") == 2
    estimate_err = capsys.readouterr().err
    assert run_cli("scan", "--r", r, "--t", "1/2", "--n", "6", "--budget", budget, "--grid", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == estimate_err == "error: grid denominator must be >= 1, got 0\n"


# -------------------------------------------------------------------- verify


def test_verify_samples_and_reports(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--r", "3", "--t", "1/3", "--n", "12",
                   "--trials", "3", "--out", str(out))
    assert code == 0
    assert "3/3 sampled graphs" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passes"] == 3 and doc["violations"] == []


def test_verify_unreachable_target_is_an_input_error(capsys):
    code = run_cli("verify", "--r", "3", "--t", "2/3", "--n", "12", "--trials", "1")
    assert code == 2
    assert "sampling failure" in capsys.readouterr().err


def test_verify_without_vertices_is_an_input_error(capsys):
    assert run_cli("verify", "--r", "3", "--t", "1/3", "--n", "0", "--trials", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one vertex, got n=0\n"


def test_verify_negative_target_samples_on_the_grid(capsys):
    """--margin=-1 puts the per-edge floor below 0; the draw stays on the grid."""
    code = run_cli("verify", "--r", "3", "--t", "0", "--n", "12", "--margin=-1", "--trials", "2")
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.endswith("2/2 sampled graphs at degree >= -6/1 admitted a factor\n")


def test_verify_reports_each_violation_and_exits_1(tmp_path, capsys):
    """--margin=-1/2 drops the degree target below (1 + t) n / 2; at t = 1 the sample has no factor."""
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--r", "3", "--t", "1", "--n", "6", "--margin=-1/2",
                   "--trials", "1", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().out == "0/1 sampled graphs at degree >= 3/1 admitted a factor\n"
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
    """The parser and its seven subparsers are built at most once; later calls reuse them."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for name in ("a.json", "b.json"):
        before = len(built)
        assert run_cli("generate", "--kind", "hs-sharpness", "--n", "6", "--r", "3",
                       "--out", str(tmp_path / name)) == 0
        per_call.append(len(built) - before)
    assert per_call[0] in (0, 8) and per_call[1] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_missing_subcommand_is_a_usage_error():
    proc = run_subprocess()
    assert proc.returncode == 2


# ------------------------------------------------------------ pinned outputs

PINNED_INPUTS = {
    "p2s.json": ["--kind", "prop2", "--n", "12", "--r", "3", "--t", "2/3", "--scale", "999/1000"],
    "dense.json": ["--kind", "random", "--n", "12", "--seed", "4", "--grid", "20", "--min-degree", "4/5"],
    "rnd.json": ["--kind", "random", "--n", "12", "--seed", "1", "--grid", "7"],
}


@pytest.mark.parametrize("argv,code,digest", [
    (["solve", "--input", "p2s.json", "--r", "3", "--t", "2/3", "--strict"], 1,
     "b634ed157cf90c3e9a9fd9db84d1654520e469eaa5e641eada13a4e77654413b"),
    (["solve", "--input", "dense.json", "--r", "3", "--t", "1/2"], 0,
     "a97884e33f3b7222a9acad8ab9bd445a5bffa1768ad6c7e22f9dbf28e61f9822"),
    (["scheme2", "--input", "dense.json", "--r", "3", "--t", "1/3", "--seed", "0"], 0,
     "860068683ef550d045a64da8b49096dd225a44213f51354ebe8ab350f470eb91"),
    (["scheme2", "--input", "rnd.json", "--r", "3", "--t", "1/2", "--seed", "0", "--retries", "3"], 1,
     "6024b6b37236e639ef02664771400f5cba3c6233345845b7a5fe9219a12ab871"),
    (["localsearch", "--input", "rnd.json", "--r", "3", "--t", "1/3", "--seed", "1"], 0,
     "189e8cbc44d435e9ae3242f5465715ae9f172fb46d4ea869ad415984d5134060"),
    (["estimate", "--r", "3", "--t", "1/3", "--n", "6", "--grid", "3", "--budget", "300"], 0,
     "11e63418d78f06ab836d583a6e72fd70546518296607106397827fca69896ab9"),
    (["scan", "--r", "3", "--t", "1/3,1/2", "--n", "6", "--grid", "3", "--budget", "50"], 0,
     "8b457114bdccdb51dc9c14f81f16e101cb5464733ffe4daa6bff13e40ace1aac"),
    (["verify", "--r", "3", "--t", "1/3", "--n", "12", "--trials", "4", "--seed", "1"], 0,
     "ac74983380ce3ee3ac8faa45fb062b3849d440b587bd6ab6a9e355c13df823eb"),
], ids=["solve-strict-prop2-exhausted", "solve-feasible", "scheme2-factor", "scheme2-none-found",
        "localsearch", "estimate-adversarial", "scan-adversarial", "verify"])
def test_command_stdout_is_pinned(tmp_path, monkeypatch, capsys, argv, code, digest):
    """sha256 of each document as first recorded, node counts and factors included."""
    monkeypatch.chdir(tmp_path)
    for name, args in PINNED_INPUTS.items():
        assert run_cli("generate", *args, "--out", name) == 0
    capsys.readouterr()
    assert run_cli(*argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
