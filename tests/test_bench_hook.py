"""The benchmark's hooks into the library: its tracer and its golden documents."""

from pathlib import Path

import pytest

from heavyfactors import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# eroded and random n = 12 inputs, found and missed, as the scheme2 workload runs them; the loose
# n = 36, 48 and 60 inputs, which reach the matchers and the averages; and random-11, whose first
# split uses up all SPLIT_ATTEMPTS draws before its second one succeeds
SCHEME2_KEYS = ([f"{family}-{i}" for family in ("eroded", "random") for i in range(6)]
                + [f"{family}-{i}" for family in ("loose36", "loose48", "loose60") for i in range(2)]
                + ["random-11"])

# the certify workload's fixed inputs and the first lowered-prop2 ones, every one without a factor
CERTIFY_KEYS = ["prop2-r3-n15", "prop2-r5-n15", "hs-r3-n18"] + [f"lowered-{i}" for i in range(8)]

# feasible samples of both verify sizes, and anneals of both (r, t), each a clean exit
VERIFY_KEYS = [f"{family}-{i}" for family in ("r3-n18", "r4-n16") for i in range(4)]
ANNEAL_KEYS = [f"{family}-{i}" for family in ("r3-t2/3", "r4-t1/2") for i in range(3)]


def test_tracer_installs_and_restores_every_target(monkeypatch):
    """A renamed or moved wrapped name fails here, not only under a traced benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall()


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `check` and `workloads` modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    import check
    import workloads

    return check, workloads


def test_scheme2_documents_match_the_golden_digests(bench, tmp_path):
    """`hfl scheme2` writes each pool entry's document byte for byte as the benchmark recorded it."""
    check, workloads = bench
    golden = workloads.load_golden(str(BENCH))["scheme2"]
    assert {golden[key]["found"] for key in SCHEME2_KEYS} == {True, False}
    setup = workloads.Setup("scheme2", str(tmp_path), cli.main)
    for key in SCHEME2_KEYS:
        job = setup.job(key)
        code = cli.main(job.argv)
        assert code == (0 if golden[key]["found"] else 1), key
        assert check.digest(Path(job.out).read_text(encoding="utf-8")) == golden[key]["sha"], key


def test_certify_documents_match_the_golden_digests(bench, tmp_path):
    """`hfl solve` writes each exhaustion certificate, `nodes_explored` included, as the benchmark recorded it."""
    check, workloads = bench
    golden = workloads.load_golden(str(BENCH))["certify"]
    setup = workloads.Setup("certify", str(tmp_path), cli.main)
    for key in CERTIFY_KEYS:
        job = setup.job(key)
        assert cli.main(job.argv) == 1, key
        assert check.digest(Path(job.out).read_text(encoding="utf-8")) == golden[key]["sha"], key


def test_verify_documents_match_the_golden_digests(bench, tmp_path):
    """`hfl verify` writes each report, the factor search's pass count included, as the benchmark recorded it."""
    check, workloads = bench
    golden = workloads.load_golden(str(BENCH))["verify"]
    setup = workloads.Setup("verify", str(tmp_path), cli.main)
    for key in VERIFY_KEYS:
        job = setup.job(key)
        assert cli.main(job.argv) == 0, key
        assert check.digest(Path(job.out).read_text(encoding="utf-8")) == golden[key]["sha"], key


def test_anneal_documents_match_the_golden_digests(bench, tmp_path, monkeypatch):
    """`hfl estimate` writes each certified record as the benchmark recorded it.

    A record names its weighting file by the path it was written to, so the
    jobs run from a fresh directory with the benchmark's own relative workdir.
    """
    check, workloads = bench
    golden = workloads.load_golden(str(BENCH))["anneal"]
    monkeypatch.chdir(tmp_path)
    setup = workloads.Setup("anneal", ".bench_work/anneal", cli.main)
    for key in ANNEAL_KEYS:
        job = setup.job(key)
        assert cli.main(job.argv) == 0, key
        assert check.digest(Path(job.out).read_text(encoding="utf-8")) == golden[key]["sha"], key
