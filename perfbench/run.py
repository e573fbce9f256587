"""Benchmark command for blocknets.

    python3 perfbench/run.py --workload verify|analyze|simulate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src/``
without being installed.  The command

1. times the set-up (a fresh interpreter importing blocknets and preparing
   the workload's inputs) in ``SETUP_REPEATS`` processes of its own and
   keeps the median as ``setup_s``;
2. runs the workload in one process of its own (``bench.py``), so that the
   peak memory it reports belongs to that workload alone;
3. prints the workload's output and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and the metrics: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Per-run files go to ``perfbench/out/<workload>-seed<N>-trace<T>-<pid>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from calibrate import NOMINAL_S  # noqa: E402
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "analyze", "simulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "blocknets", "cli.py")):
        print("perfbench: no src/blocknets here; run from the root of a checkout", file=sys.stderr)
        return 2

    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    bench = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
             "--seed", str(args.seed)]  # fmt: skip

    setups = []
    for i in range(SETUP_REPEATS):
        probe = subprocess.run(
            bench + ["--setup-only", "--outdir", os.path.join(outdir, f"setup{i}")],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )  # fmt: skip
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            return 1
        probe_result = json.loads(probe.stdout.strip().splitlines()[-1])
        setups.append(NOMINAL_S * probe_result["setup_s"] / probe_result["host_s"])

    run = subprocess.run(
        bench + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", outdir],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )  # fmt: skip
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
