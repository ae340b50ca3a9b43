"""The machine's pace, measured between operations by fixed probes.

On a shared virtual machine the CPU's speed moves by up to 2x, flickering
within a second and drifting over minutes, and pure-Python work moves more
than numpy's streaming loops.  A probe is a fixed piece of work that depends
on nothing in the program: the `python` probe is interpreter work (a dict
store and a divmod per step), the `numpy` probe a sort and an element-wise
compare-and-count.  A run's normalised round time is its mean round time
scaled by the probe's NOMINAL time over the probe's mean time in the run: the
time a round would have taken with the machine at the pace at which the
probe takes its nominal time.  Each workload names the probe that tracks its
own work best (README, "How steady the figures are").
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np


@functools.cache
def _arrays():
    """The numpy probe's inputs, made on its first call (12 MiB)."""
    return (np.random.default_rng(0).integers(0, 1 << 30, 1 << 19),
            np.random.default_rng(1).integers(0, 3, 1 << 23, dtype=np.uint8))


def python_probe() -> float:
    t0 = perf_counter()
    table = {}
    for i in range(450_000):
        table[i & 1023] = divmod(i, 7)
    return perf_counter() - t0


def numpy_probe() -> float:
    keys, labels = _arrays()
    t0 = perf_counter()
    for _ in range(3):
        np.sort(keys)
        int(np.count_nonzero(labels[1:] != labels[:-1]))
    return perf_counter() - t0


PROBES = {"python": python_probe, "numpy": numpy_probe}
# each probe's mean time over a set of ten-seed runs of every workload (README)
NOMINAL = {"python": 0.080, "numpy": 0.032}
