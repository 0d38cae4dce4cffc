"""The four workloads: their input pools, set-up and per-run job lists.

Every job is one `hfl` invocation.  Its inputs come from a pinned pool of
numbered instances; the workload seed picks which instances a run uses and
in what order, so the same seed gives the same inputs and the program sees
only the generated files and arguments.  `golden.json` holds each pool
entry's document as the seed commit printed it, and the entry's cost there.

A run repeats one list of distinct instances in rounds.  The list has a
fixed mix of families, and within a family the draw is stratified by cost:
the family's pool, sorted by its seed-commit cost, is cut into as many equal
strata as the list takes from it, and one instance is drawn from each.  Every
entry stays equally likely to be drawn, but the total work of a run hardly
depends on the seed (anneal jobs, for one, take from 0.1 s to 0.8 s).  On
`scheme2` a tight-premise job either finds a factor in milliseconds or spends
about a fifth of a second exhausting its split attempts, so found and missed
entries are also drawn separately, in the proportion their pool has at the
seed commit, which keeps `found_ratio` the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from check import fmt, prop2_weights

WORKLOADS = ("certify", "verify", "anneal", "scheme2")

# the job list of each workload: (family, jobs per round, pool size)
ROUND = {
    "certify": (("prop2-r3-n15", 1, 1), ("prop2-r5-n15", 1, 1), ("hs-r3-n18", 1, 1),
                ("lowered", 10, 256)),
    "verify": (("r3-n18", 36, 512), ("r4-n16", 18, 512)),
    "anneal": (("r3-t2/3", 14, 256), ("r4-t1/2", 6, 256)),
    "scheme2": (("eroded", 16, 256), ("random", 16, 256), ("loose36", 4, 128),
                ("loose48", 20, 128), ("loose60", 4, 128)),
}

# every run makes at least MIN_ROUNDS rounds; job_tail_s's percentile is fixed from it
MIN_ROUNDS = 3

CERTIFY_FIXED = {
    "prop2-r3-n15": {"family": "prop2", "n": 15, "r": 3, "t": "2/3", "strict": True},
    "prop2-r5-n15": {"family": "prop2", "n": 15, "r": 5, "t": "2/3", "strict": True},
    "hs-r3-n18": {"family": "hs", "n": 18, "r": 3, "t": "1/1", "strict": False},
}
VERIFY = {"r3-n18": (3, 18), "r4-n16": (4, 16)}
VERIFY_T, VERIFY_TRIALS = "1/3", 4
ANNEAL = {"r3-t2/3": (3, "2/3"), "r4-t1/2": (4, "1/2")}
ANNEAL_N, ANNEAL_BUDGET, ANNEAL_CAP = 12, 30, 12
SCHEME2_R, SCHEME2_T, SCHEME2_RETRIES = 3, "1/2", 2


@dataclass
class Job:
    key: str                      # golden key, "<family>-<pool index>" or the fixed name
    argv: list
    out: str                      # document path
    spec: dict = field(default_factory=dict)
    input: str | None = None
    weighting: str | None = None  # estimate's weighting file


def pool_keys(family: str, size: int) -> list[str]:
    return [family] if size == 1 else [f"{family}-{i}" for i in range(size)]


def strata(keys: list[str], count: int, golden: dict) -> list[list[str]]:
    """`keys` sorted by seed-commit cost and cut into `count` strata of near-equal size."""
    ordered = sorted(keys, key=lambda k: (golden[k]["cost_ms"], k))
    return [ordered[i * len(ordered) // count:(i + 1) * len(ordered) // count]
            for i in range(count)]


def select(workload: str, seed: int, golden: dict) -> list[str]:
    """Pool keys of one round, in the order a traced run takes them; no key is drawn twice."""
    rng = random.Random(f"{workload}/{seed}")
    keys: list[str] = []
    for family, count, size in ROUND[workload]:
        pool = pool_keys(family, size)
        if size == 1:
            keys += pool * count
            continue
        if workload == "scheme2":
            found = [k for k in pool if golden[k]["found"]]
            missed = [k for k in pool if not golden[k]["found"]]
            take = round(count * len(found) / len(pool))
            groups = [(found, take), (missed, count - take)]
        else:
            groups = [(pool, count)]
        for group, per_round in groups:
            keys += [rng.choice(stratum) for stratum in strata(group, per_round, golden)]
    rng.shuffle(keys)
    return keys


def write_graph(path: str, n: int, weights: dict) -> None:
    """Write a graph in the package's file format (canonical JSON, every pair)."""
    edges = [[i, j, fmt(weights[(i, j)])] for i, j in combinations(range(n), 2)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"edges": edges, "n": n}, indent=2, sort_keys=True) + "\n")


def lowered_prop2(index: int) -> dict:
    """Scaled prop2 (r=3, n=15, t=2/3) with 2 to 6 random edges lowered to a tenth-grid share."""
    rng = random.Random(index)
    weights = prop2_weights(15, 3, Fraction(2, 3))
    pairs = list(weights)
    for pair in rng.sample(pairs, rng.randint(2, 6)):
        weights[pair] *= Fraction(rng.randint(0, 9), 10)
    return weights


def eroded(index: int, n: int = 12, target=Fraction(48, 5), denominator: int = 10,
           attempts: int = 30) -> dict:
    """All-ones graph with random edges lowered while the min degree stays >= target.

    Same construction as the acceptance suite's tight-premise generator:
    min degree (3/4 + 1/20) n, just above scheme2's premise at t=1/2.
    """
    rng = random.Random(5000 + index)
    weights = {pair: Fraction(1) for pair in combinations(range(n), 2)}
    degree = [Fraction(n - 1)] * n
    for _ in range(attempts):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        w = Fraction(rng.randint(0, denominator), denominator)
        pair = (min(i, j), max(i, j))
        drop = weights[pair] - w
        if drop <= 0:
            continue
        if degree[i] - drop >= target and degree[j] - drop >= target:
            weights[pair] = w
            degree[i] -= drop
            degree[j] -= drop
    return weights


class Setup:
    """Writes the inputs of pool entries under `workdir` and builds their jobs.

    `hfl(argv)` runs one invocation in process; inputs that have a
    construction kind are made with `hfl generate`, the others by this
    module's own generators.
    """

    def __init__(self, workload: str, workdir: str, hfl):
        self.workload = workload
        self.workdir = workdir
        self.hfl = hfl
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        self.out = os.path.join(workdir, "out.json")

    def path(self, key: str) -> str:
        return os.path.join(self.workdir, "in", key.replace("/", "_") + ".json")

    def generate(self, key: str, *args: str) -> str:
        path = self.path(key)
        if not os.path.exists(path):
            self.hfl(["generate", *args, "--out", path])
        return path

    def job(self, key: str) -> Job:
        return getattr(self, "_" + self.workload)(key)

    def _certify(self, key: str) -> Job:
        if key.startswith("lowered-"):
            spec = dict(CERTIFY_FIXED["prop2-r3-n15"])
            path = self.path(key)
            if not os.path.exists(path):
                write_graph(path, 15, lowered_prop2(int(key.split("-")[1])))
        else:
            spec = CERTIFY_FIXED[key]
            if spec["family"] == "prop2":
                path = self.generate(key, "--kind", "prop2", "--n", str(spec["n"]),
                                     "--r", str(spec["r"]), "--t", spec["t"],
                                     "--scale", "999/1000")
            else:
                path = self.generate(key, "--kind", "hs-sharpness", "--n", str(spec["n"]),
                                     "--r", str(spec["r"]))
        argv = ["solve", "--input", path, "--r", str(spec["r"]), "--t", spec["t"]]
        if spec["strict"]:
            argv.append("--strict")
        return Job(key, argv + ["--out", self.out], self.out, spec, input=path)

    def _verify(self, key: str) -> Job:
        family, _, index = key.rpartition("-")
        r, n = VERIFY[family]
        argv = ["verify", "--r", str(r), "--t", VERIFY_T, "--n", str(n),
                "--trials", str(VERIFY_TRIALS), "--seed", index, "--out", self.out]
        return Job(key, argv, self.out, {"r": r, "n": n, "t": VERIFY_T, "trials": VERIFY_TRIALS})

    def _anneal(self, key: str) -> Job:
        family, _, index = key.rpartition("-")
        r, t = ANNEAL[family]
        weighting = os.path.join(self.workdir, "weighting.json")
        argv = ["estimate", "--r", str(r), "--t", t, "--n", str(ANNEAL_N),
                "--budget", str(ANNEAL_BUDGET), "--seed", index,
                "--solver-cap", str(ANNEAL_CAP), "--out", self.out,
                "--weighting-out", weighting]
        return Job(key, argv, self.out, {"n": ANNEAL_N, "r": r, "t": t}, weighting=weighting)

    def _scheme2(self, key: str) -> Job:
        family, _, index = key.rpartition("-")
        if family == "eroded":
            path = self.path(key)
            if not os.path.exists(path):
                write_graph(path, 12, eroded(int(index)))
        elif family == "random":
            path = self.generate(key, "--kind", "random", "--n", "12", "--seed", index,
                                 "--grid", "20", "--min-degree", "4/5")
        else:
            path = self.generate(key, "--kind", "random", "--n", family[len("loose"):],
                                 "--seed", index, "--grid", "20", "--min-degree", "9/10")
        argv = ["scheme2", "--input", path, "--r", str(SCHEME2_R), "--t", SCHEME2_T,
                "--seed", index, "--retries", str(SCHEME2_RETRIES), "--out", self.out]
        return Job(key, argv, self.out, {"r": SCHEME2_R, "t": SCHEME2_T}, input=path)


def load_golden(bench_dir: str) -> dict:
    with open(os.path.join(bench_dir, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(workload: str) -> int:
    """Highest whole percentile leaving at least 10 jobs above it in a MIN_ROUNDS run."""
    jobs = MIN_ROUNDS * sum(count for _, count, _ in ROUND[workload])
    return (100 * (jobs - 10)) // jobs

