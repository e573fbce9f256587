"""A fixed piece of work, independent of blocknets, that measures how fast
the host runs Python at the moment.

Other tenants of a shared host slow each of its cores on its own, by up to
70% for seconds to a minute at a time.  The benchmark times this work on the
cores a command runs on while the command runs (``Sampler``); the ratio of
the command's time to that reference is far steadier than either time.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

import numpy as np

# What work() takes on a free core of the 2-core machine the README's
# reference figures come from (its fastest time there); it turns set-up
# times relative to work() back into seconds.
NOMINAL_S = 0.003

_ROW = [0.5 * k + 1.0 for k in range(200)]
_MAT = np.linspace(0.0, 1.0, 17 * 17).reshape(17, 17)


def work() -> float:
    acc = 0.0
    for _ in range(150):
        for k in range(1, 200):
            acc += _ROW[k] * k
    f = Fraction(0)
    for k in range(1, 200):
        f += Fraction(k, k + 1)
    a = _MAT
    for _ in range(200):
        a = a @ _MAT
        a /= np.abs(a).max()
    return acc + float(f) + float(a[0, 0])


def seconds() -> float:
    """CPU time of one ``work()`` in the calling thread.  A host that runs
    the core slowly makes it longer; time spent waiting for a core shared
    with the benchmark's own processes, or for the GIL, does not count."""
    t0 = time.thread_time()
    work()
    return time.thread_time() - t0


class Sampler:
    """Host reference for a block of work that runs on the given cores.

    One thread per core, pinned to it, times ``work()`` when the block
    starts, every ``INTERVAL_S`` while it runs, and when it ends.  Each
    sample is the thread's CPU time, so waiting for the core (shared with the
    benchmark's own processes) or for the GIL does not count, while a host
    that runs the core slowly does.  ``reference()`` is the harmonic mean
    over the cores of each core's median sample: work spread over several
    cores finishes at the rate their speeds add up to."""

    INTERVAL_S = 0.5

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)

    def __enter__(self) -> "Sampler":
        self.samples: dict[int, list[float]] = {c: [] for c in self.cpus}
        self._stop = threading.Event()
        started = threading.Barrier(len(self.cpus) + 1)
        self._threads = [
            threading.Thread(target=self._run, args=(c, started), daemon=True) for c in self.cpus
        ]
        for t in self._threads:
            t.start()
        started.wait()
        return self

    def _run(self, cpu: int, started: threading.Barrier) -> None:
        os.sched_setaffinity(0, {cpu})
        self.samples[cpu].append(seconds())
        started.wait()
        while not self._stop.wait(self.INTERVAL_S):
            self.samples[cpu].append(seconds())
        self.samples[cpu].append(seconds())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def reference(self) -> float:
        return len(self.cpus) / sum(1.0 / statistics.median(v) for v in self.samples.values())
