"""Benchmark the census-mode growth kernel: numba JIT vs pure-Python twin.

Usage:
    python benchmarks/bench_growth.py [--steps N] [--repeats K]

The same simulation (bundled fig1 model, fixed seed) runs through every
available backend.  When numba is present, trajectories are asserted
identical before timing, so the speedup is for bit-identical work; without
numba (or with BLOCKNETS_NO_NUMBA=1) only the python backend is timed.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from blocknets import backend_name, load_example, simulate


def run(backend: str, steps: int, seed: int):
    t0 = time.perf_counter()
    state = simulate(load_example("fig1"), steps, mode="census", seed=seed, backend=backend)
    return time.perf_counter() - t0, state


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=200_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"default backend: {backend_name()}")
    if backend_name() == "numba":
        backends = ("numba", "python")
        a, b = (
            simulate(load_example("fig1"), 5_000, mode="census", seed=0, record=True, backend=be)
            for be in backends
        )
        assert np.array_equal(a.trajectory_x, b.trajectory_x), "backends diverged"
        print("backends produce identical trajectories; timing...")
        run("numba", 1_000, seed=0)  # absorb JIT compilation
    else:
        backends = ("python",)
        print("numba is absent or disabled (BLOCKNETS_NO_NUMBA): timing the python backend only")

    results = {}
    for backend in backends:
        steps = args.steps if backend == backends[0] else max(args.steps // 10, 10_000)
        best = min(run(backend, steps, seed=s)[0] for s in range(args.repeats))
        rate = steps / best
        results[backend] = rate
        print(f"{backend:>7}: {steps:>9,} steps in {best:.3f}s  ->  {rate:>12,.0f} steps/s")
    if "numba" in results:
        print(f"speedup: {results['numba'] / results['python']:.0f}x")


if __name__ == "__main__":
    main()
