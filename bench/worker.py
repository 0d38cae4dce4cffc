"""One workload in one fresh interpreter; started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            --phase setup|run --t0 T --workdir DIR

Set-up imports the package from `src/` and writes the round's inputs;
`setup_s` runs from `--t0` (the parent's monotonic clock just before it
started this interpreter) to the end of set-up, less the host probes run
before each input is made, whose times are reported with it.  Phase `setup`
stops there.

Phase `run` with `--trace 0` runs the round, each time in a new order drawn
from the seed, at least MIN_ROUNDS times and then as long as another round
is expected to end within `--seconds`, timing each `hfl` job and, just
before it, the host probe; job times are reported at the probe's reference
host speed (hostspeed.py).  With `--trace 1` it runs the round plain, traced
and plain again, compares the traced round's documents with the first plain
round's byte for byte, and reports the per-layer metrics of the traced round
(and of set-up, which is traced too).  Either way every document is then
checked by check.py, and the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# no round starts after this many seconds, so a run ends well inside its time limit
HARD_STOP_S = 120


def call_hfl(cli, argv: list) -> tuple:
    """Run one `hfl` invocation in process, its terminal output discarded; (exit code, seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start


def read(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_round(cli, jobs: list, tracer=None, label: str = "", probes: list | None = None) -> list:
    """Run every job once; (job, exit code, seconds, document, weighting) per job.

    With `probes`, the host probe runs before each job and its time is appended.
    """
    results = []
    for index, job in enumerate(jobs):
        for path in (job.out, job.weighting):
            if path and os.path.exists(path):
                os.remove(path)
        if probes is not None:
            probes.append(hostspeed.probe())
        if tracer is not None:
            tracer.job = f"{label}{index}"
        code, seconds = call_hfl(cli, job.argv)
        results.append((job, code, seconds, read(job.out), read(job.weighting)))
    return results


class Checker:
    """Checks documents against check.py and the golden copies; caches parsed inputs."""

    def __init__(self, workload: str, golden: dict):
        self.workload = workload
        self.golden = golden
        self.graphs: dict = {}
        self.failures: list = []
        self.drift = 0

    def input_graph(self, path: str) -> check.Graph:
        if path not in self.graphs:
            self.graphs[path] = check.Graph.from_text(read(path))
        return self.graphs[path]

    def __call__(self, result) -> bool:
        job, code, _, text, weighting = result
        golden = self.golden.get(job.key)
        try:
            reason = self._check(job, code, text, weighting, golden)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{job.key}: {reason}")
            return False
        self.drift += check.drifted(text, golden)
        return True

    def _check(self, job, code, text, weighting, golden) -> str | None:
        if not isinstance(code, int) or code not in (0, 1):
            return f"exit code {code!r}"
        if text is None:
            return "no document written"
        doc = json.loads(text)
        if self.workload == "certify":
            return check.check_certify(doc, code, job.spec, self.input_graph(job.input))
        if self.workload == "verify":
            return check.check_verify(doc, code, job.spec, golden)
        if self.workload == "anneal":
            if weighting is None:
                return "no weighting written"
            return check.check_anneal(doc, code, job.spec, check.Graph.from_text(weighting))
        return check.check_scheme2(doc, code, job.spec, self.input_graph(job.input))


def found(workload: str, code) -> bool:
    """The job returned what it was run for: an exhaustion, a clean verify, a record, a factor."""
    return code == (1 if workload == "certify" else 0)


def percentile(values: list, p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def environment() -> dict:
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = None
    if os.path.exists(head):
        ref = read(head).strip()
        if ref.startswith("ref: "):
            ref = (read(os.path.join(ROOT, ".git", ref[5:])) or "").strip() or None
        commit = ref
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace and args.phase == "run":
        tracer = tracing.Tracer()
        tracer.install()
    import heavyfactors.cli as cli

    golden = workloads.load_golden(BENCH)[args.workload]
    setup = workloads.Setup(args.workload, args.workdir, lambda argv: call_hfl(cli, argv))
    jobs = []
    setup_probes: list[float] = []
    for key in workloads.select(args.workload, args.seed, golden):
        setup_probes.append(hostspeed.probe())
        jobs.append(setup.job(key))
    setup_s = time.monotonic() - args.t0 - sum(setup_probes)
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes}))
        return 0

    checker = Checker(args.workload, golden)
    problems: list = []
    metrics: dict = {}
    if tracer is None:
        results = []
        probes: list[float] = []
        round_s: list[float] = []
        order = random.Random(f"order/{args.seed}")
        start = time.perf_counter()
        while len(round_s) < workloads.MIN_ROUNDS or (
                time.perf_counter() - start + round_s[-1] < args.seconds
                and time.perf_counter() - start < HARD_STOP_S):
            results += run_round(cli, order.sample(jobs, len(jobs)), probes=probes)
            round_s.append(time.perf_counter() - start - sum(round_s))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok = [checker(r) for r in results]
        scale = hostspeed.scale(probes)
        times = [r[2] * scale for r in results]
        tail_p = workloads.tail_percentile(args.workload)
        metrics["jobs_per_s"] = (len(times) / sum(times), "1/s")
        metrics["job_p50_s"] = (statistics.median(times), "s")
        metrics["job_tail_s"] = (percentile(times, tail_p), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["ok_ratio"] = (sum(ok) / len(results), "ratio")
        metrics["found_ratio"] = (
            sum(found(args.workload, r[1]) for r in results) / len(results), "ratio")
        notes = [f"{len(jobs)} jobs, {len(round_s)} rounds; "
                 f"job_tail_s is p{tail_p} of {len(results)} job runs",
                 f"job times scaled by {scale:.4f} to reference host speed; "
                 f"unscaled jobs_per_s {len(times) * scale / sum(times):.4g}",
                 "rounds took " + ", ".join(f"{s:.2f}" for s in round_s) + " s"]
    else:
        setup_spans = len(tracer.spans)
        restored = tracer.uninstall()

        def timed_round(spans=None):
            """Run the round; its job runs and their total time at reference host speed."""
            probes: list[float] = []
            done = run_round(cli, jobs, spans, "job", probes)
            return done, sum(r[2] for r in done) * hostspeed.scale(probes)

        plain, plain_s = timed_round()
        tracer.install()
        traced, traced_s = timed_round(tracer)
        restored = tracer.uninstall() and restored
        again, again_s = timed_round()
        results = plain + traced + again
        ok = [checker(r) for r in results]
        for index, (a, b) in enumerate(zip(plain, traced), start=len(plain)):
            if (a[3], a[4]) != (b[3], b[4]):
                ok[index] = False
                checker.failures.append(f"{a[0].key}: traced document differs from untraced")
        if not restored:
            problems.append("tracing wrappers were not removed")
        metrics.update(tracing.layer_metrics(tracer.spans))
        # traced over untraced jobs_per_s; the untraced rounds run before and after
        metrics["trace.overhead_ratio"] = ((plain_s + again_s) / 2 / traced_s, "ratio")
        metrics["output.drift"] = (checker.drift, "count")
        notes = [f"traced {len(traced)} jobs after {setup_spans} set-up spans"]
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": environment(),
                       "spans": tracer.spans}, fh)
        notes.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")

    print(json.dumps({
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "attempted": len(results),
        "failed": ok.count(False),
        "problems": problems + checker.failures[:20],
        "metrics": metrics,
        "notes": notes,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
