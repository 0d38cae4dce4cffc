"""Benchmark of the `hfl` command line; run from the repository root.

    python3 bench/run.py --workload certify|verify|anneal|scheme2 \\
                         --seed N --seconds S --trace 0|1

Each job is one `hfl` invocation, run in process through
`heavyfactors.cli.main(argv)`, one after another in a single fresh
interpreter per workload (worker.py); no threads.  The package is imported
from `src/`.  HFL_SOLVER_CAP and HFL_RETRY_BUDGET are cleared and the jobs
pass their caps and retry budgets explicitly.

Before the measured interpreter, SETUP_REPEATS interpreters only do set-up
(start, import, write the inputs), and `setup_s` is the median over all of
them.  With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones (tracing.py).  Every metric is printed as
`name value unit`, then the last line is one JSON object: correct,
attempted, failed, metrics.  The end-to-end timings are reported at the
reference speed of the host probe (hostspeed.py), which worker.py runs
before every job and every input it makes, and this script
PROBES_PER_SETUP times before each interpreter it starts.  The end-to-end metrics:

    jobs_per_s   job runs over their summed wall time
    job_p50_s    median wall time of a job run
    job_tail_s   wall time of a job run at the highest whole percentile that
                 leaves 10 runs above it in a run of MIN_ROUNDS rounds
                 (printed with the percentile and the number of runs)
    setup_s      median set-up time
    peak_rss_mb  peak resident memory of the measured interpreter
    ok_ratio     jobs whose output passed check.py, over jobs attempted
    found_ratio  jobs that returned what they were run for (an exhaustion
                 certificate, a clean verify report, a certified record, a
                 factor), over jobs attempted

Runs in one checkout must not overlap: they share `.bench_work/`.  Traced
runs leave their spans in `.bench_out/`.

DEFAULT_SEED is the seed to measure with; CONFIRM_SEED is kept back for
confirming a claimed gain on inputs the change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
CONFIRM_SEED = 7919
SETUP_REPEATS = 2
PROBES_PER_SETUP = 10
CHILD_TIMEOUT_S = 160
END_TO_END = ("jobs_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb",
              "ok_ratio", "found_ratio")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "HFL_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def child(args, phase: str, timeout: float) -> dict:
    """Start worker.py in a fresh interpreter and return its last stdout line, parsed."""
    workdir = os.path.join(".bench_work", args.workload)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    argv = [sys.executable, "-s", os.path.join(BENCH, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--phase", phase, "--workdir", workdir]
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=pinned_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {phase} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "heavyfactors", "cli.py")):
        print("error: src/heavyfactors not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    setups: list[float] = []
    probes: list[float] = []
    try:
        for phase in ["setup"] * SETUP_REPEATS + ["run"]:
            probes += [hostspeed.probe() for _ in range(PROBES_PER_SETUP)]
            result = child(args, phase, CHILD_TIMEOUT_S - (time.monotonic() - started))
            setups.append(result["setup_s"])
            probes += result["setup_probes"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups) * hostspeed.scale(probes), "s")
        metrics = {name: metrics[name] for name in END_TO_END}
    env = result["env"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit'] or 'unknown'}")
    for note in result["notes"]:
        print(f"# {note}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
