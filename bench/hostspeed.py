"""How fast the host runs a fixed reference kernel, and the correction of a
run's wall time for it.

The benchmark shares a few cores of a busy host.  The host's speed for the
same work drifts by tens of percent over minutes, longer than a run, so
repeating a workload within a run does not average the drift away.  The
worker therefore times this kernel (a slice) before, after and about once a
second between the steps of each repetition, on the CPU the steps run on.

The workloads feel the drift less than the kernel does.  Over 20 runs per
workload on the reference machine (bench/README.md, *Host speed*), the log
of a run's median wall time followed the log of its median slice with a
slope between 0.27 and 0.75, depending on the workload, and a correlation
between 0.6 and 0.96.  So `correction` scales a wall time by
(REFERENCE_S / median slice) ** sensitivity, with the workload's slope as
its sensitivity (`Workload.host_sensitivity`): a control variate that takes
the time to a host that runs a slice in REFERENCE_S.  At that speed the
factor is 1, whatever the sensitivity, so a change to the library moves the
corrected time as much as the raw one.

The kernel mixes the kinds of work the library does: small-int Python loops
and dicts, big-integer gcds, and small numpy convolutions and matrix
products.  Its arrays are small, so that it does not move the peak RSS of a
repetition, and it does not import leeperfect, so no change to the library
moves it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median slice on the reference machine (bench/README.md)
REFERENCE_S = 0.12

_BIG = 3 ** 30_000
_MERSENNE = 2 ** 40_000 - 1


def _kernel() -> int:
    s = 0
    for i in range(150_000):
        s += i * i % 7
    d: dict[int, int] = {}
    for i in range(60_000):
        d[i % 997] = d.get(i % 997, 0) + i
    for k in range(12):
        s += math.gcd(_BIG + k, _MERSENNE)
    a = np.arange(1_500, dtype=np.int64)
    for _ in range(15):
        s += int((np.convolve(a, a) % 7).sum())
    m = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 5
    for _ in range(15):
        m = m @ m % 5
    return s + int(m.sum()) + len(d)


def slice_s() -> float:
    """Seconds the kernel takes once."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def correction(slices: list[float], sensitivity: float) -> float:
    """Factor that takes a wall time measured during `slices` to the reference host."""
    return (REFERENCE_S / statistics.median(slices)) ** sensitivity
