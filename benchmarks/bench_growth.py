"""Benchmark the growth kernels, in census and in graph mode.

Usage:
    python benchmarks/bench_growth.py [--repeats K]

Two measurements, each on bit-identical work:

* replicates, as one ``verify`` worker grows them (fig1 and fig3, 100
  replicates of 10^4 steps on one core): one ``simulate`` per replicate
  against ``simulate_batch``, which grows them all in lock step.  Rates
  are reported in replicate-steps/s once the final censuses of both are
  asserted identical, after the lock-step prefix width P that the model's
  limit law gives and the share of steps predicted to defer past it;
* graph mode (fig1 and fig3, 2x10^4 steps, fixed seed), which runs the
  census kernel and replays its choices on the multigraph.  Its census
  trajectory is asserted equal to census mode's before it is timed, in
  steps/s.

Single-run census steps/s is perfbench's ``census.record_steps_per_s``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from blocknets import (
    build_profile,
    census_vector,
    load_example,
    simulate,
    simulate_batch,
)
from blocknets.growth import MAX_PREFIX, _scan_prefix
from blocknets.profile import weight_past

# One verify worker's share at the benchmark's verify size (R=200, 2 jobs).
REPLICATES = 100
REPLICATE_STEPS = 10_000
# Graph mode keeps every vertex (about 110-190 bytes each); fig1 reaches
# about 73k vertices in this many steps.
GRAPH_STEPS = 20_000


def per_replicate(bs, n: int, seeds, track) -> np.ndarray:
    return np.array([census_vector(simulate(bs, n, seed=s), track)[0] for s in seeds])


def batched(bs, n: int, seeds, track) -> np.ndarray:
    return np.array([census_vector(s, track)[0] for s in simulate_batch(bs, n, seeds)])


def compare_replicate_kernels(repeats: int) -> None:
    replicates, steps = REPLICATES, REPLICATE_STEPS
    print(f"replicates: R={replicates}, n={steps:,} on one core")
    for name in ("fig1", "fig3"):
        bs = load_example(name)
        track = build_profile(bs).essential
        seeds = [np.random.SeedSequence((42, k)) for k in range(replicates)]
        prefix, (past, scale) = _scan_prefix(bs), weight_past(bs, MAX_PREFIX)
        print(f"{name}: lock-step prefix P={prefix}, predicted deferred share {past[prefix] / scale:.3g}")
        times, samples = {}, {}
        for label, fn in (("per-replicate", per_replicate), ("batched", batched)):
            times[label] = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                samples[label] = fn(bs, steps, seeds, track)
                times[label] = min(times[label], time.perf_counter() - t0)
        assert np.array_equal(samples["per-replicate"], samples["batched"]), "kernels diverged"
        print(f"{name}: identical samples from both kernels")
        for label, best in times.items():
            rate = replicates * steps / best
            print(f"{name} {label:>13}: {best:7.2f}s  ->  {rate:>12,.0f} replicate-steps/s")
        print(f"{name} batched speedup: {times['per-replicate'] / times['batched']:.1f}x")


def time_graph_mode(repeats: int) -> None:
    steps = GRAPH_STEPS
    print(f"\ngraph mode: n={steps:,}")
    for name in ("fig1", "fig3"):
        bs = load_example(name)
        census, graph = (
            simulate(bs, steps, mode=mode, seed=0, record=True) for mode in ("census", "graph")
        )
        assert np.array_equal(census.trajectory_x, graph.trajectory_x), "modes diverged"
        assert np.array_equal(census.trajectory_star, graph.trajectory_star), "modes diverged"
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate(bs, steps, mode="graph", seed=0)
            best = min(best, time.perf_counter() - t0)
        print(f"{name}: graph trajectory equals census trajectory")
        print(f"{name} graph: {best:7.3f}s  ->  {steps / best:>12,.0f} steps/s")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    compare_replicate_kernels(args.repeats)
    time_graph_mode(args.repeats)


if __name__ == "__main__":
    main()
