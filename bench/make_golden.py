"""Record every pool entry's document as bench/golden.json.

    python3 bench/make_golden.py

Run it at the commit the benchmark is anchored to.  Each entry keeps a
digest of the document `hfl` wrote, plus the facts the checks and the
selection of a run's inputs read: verify's pass and violation counts,
whether scheme2 found a factor, and `cost_ms`, the job's wall time in
milliseconds (best of COST_REPEATS), by which `workloads.select` stratifies
its draws.  The costs are only as exact as the machine was steady; they
sort the pool and are compared with nothing.  Later commits are compared
against these copies (`output.drift`); they are not regenerated by a change
that claims a speed-up.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker
import workloads

COST_REPEATS = 2


def main() -> int:
    import heavyfactors.cli as cli

    os.chdir(worker.ROOT)  # documents name the weighting file by its path from here
    golden: dict = {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(".bench_work", workload)
        shutil.rmtree(workdir, ignore_errors=True)
        setup = workloads.Setup(workload, workdir, lambda argv: worker.call_hfl(cli, argv))
        entries = golden[workload] = {}
        for family, _, size in workloads.ROUND[workload]:
            for key in workloads.pool_keys(family, size):
                job = setup.job(key)
                [(_, code, seconds, text, _)] = worker.run_round(cli, [job])
                for _ in range(COST_REPEATS - 1):
                    seconds = min(seconds, worker.run_round(cli, [job])[0][2])
                if text is None or code not in (0, 1):
                    print(f"{workload} {key}: exit code {code!r}", file=sys.stderr)
                    return 1
                entry = entries[key] = {"sha": worker.check.digest(text),
                                        "cost_ms": round(seconds * 1000, 1)}
                doc = json.loads(text)
                if workload == "verify":
                    entry.update(passes=doc["passes"], violations=len(doc["violations"]))
                if workload == "scheme2":
                    entry["found"] = code == 0
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {len(entries)} entries", file=sys.stderr)
    write(golden)
    return 0


def write(golden: dict) -> None:
    """One pool entry per line, so a regenerated file diffs entry by entry."""
    blocks = []
    for workload, entries in sorted(golden.items()):
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
                           for key, entry in sorted(entries.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    with open(os.path.join(worker.BENCH, "golden.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
