"""Write a ``BENCH_<label>.json`` file from runs of the benchmark command.

    python3 tools/bench_file.py LABEL=CHECKOUT [LABEL=CHECKOUT ...] --seeds 1 2 3

Each CHECKOUT is the root of a source tree with ``perfbench/``: this one
(``.``) or, to compare with a parent commit, a clone of it checked out
there.  The workloads and the run length S are those of ``BENCHMARK.json``.
For every workload and seed, ``python3 perfbench/run.py --workload W --seed
N --seconds S --trace 0`` runs once in each checkout, the checkouts taking
turns to go first from one seed to the next, so that a drift of the host's
speed falls on both sides alike.  Then one ``--trace 1`` run per workload
and checkout, at seed ``TRACE_SEED``, gives the per-layer metrics.

For each LABEL the file ``BENCH_<LABEL>.json`` is written at the root of
this repository.  It holds, per workload, the median and quartiles of each
end-to-end metric over the seeds and the value of each run, the traced
run's per-layer metrics, the operations attempted and failed, and the host
(cores, platform), the Python and numpy versions, the seeds and the
checkout's ``git rev-parse HEAD``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEED = 7


def run(label: str, checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of the benchmark command in ``checkout``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench_file: {' '.join(cmd)} in {checkout} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    shown = "traced" if trace else f"command_ref {result['metrics']['command_ref']['value']:.4g}"
    print(f"{label} {workload} seed {seed}: {shown}", flush=True)
    return result


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of ``values``, and the values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def revision(checkout: str) -> dict:
    """The checkout's commit, and whether its tracked files differ from it."""
    git = ["git", "-C", checkout]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True, check=True)  # fmt: skip
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sides", nargs="+", metavar="LABEL=CHECKOUT")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    sides = {}
    for side in args.sides:
        label, eq, checkout = side.partition("=")
        if not (label and eq and checkout):
            ap.error(f"{side!r} is not LABEL=CHECKOUT")
        if label in sides:
            ap.error(f"label {label!r} is given twice")
        sides[label] = checkout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    for label, checkout in sides.items():
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            ap.error(f"{label}: no perfbench/run.py under {checkout}")

    # before any BENCH file is written, which would make this checkout dirty
    revisions = {label: revision(checkout) for label, checkout in sides.items()}
    plain = {label: {w: [] for w in workloads} for label in sides}
    traced = {label: {} for label in sides}
    order = list(sides)
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            for label in order if i % 2 == 0 else order[::-1]:
                plain[label][w].append(run(label, sides[label], w, seed, seconds, 0))
        for label in order if len(args.seeds) % 2 == 0 else order[::-1]:
            traced[label][w] = run(label, sides[label], w, TRACE_SEED, seconds, 1)

    host = {"cores": os.cpu_count(), "platform": platform.platform(), "machine": platform.machine()}
    for label in sides:
        summaries = {}
        for w in workloads:
            results = plain[label][w] + [traced[label][w]]
            names = plain[label][w][0]["metrics"]
            summaries[w] = {
                "end_to_end": {
                    k: {"unit": m["unit"], **summary([r["metrics"][k]["value"] for r in plain[label][w]])}
                    for k, m in sorted(names.items())
                },
                "per_layer": traced[label][w]["metrics"],
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "correct": all(r["correct"] for r in results),
            }
        doc = {
            "label": label,
            **revisions[label],
            "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1",
            "seconds": seconds,
            "seeds": args.seeds,
            "trace_seed": TRACE_SEED,
            "alternated_with": [other for other in sides if other != label],
            "host": host,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "workloads": summaries,
        }
        path = os.path.join(ROOT, f"BENCH_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
