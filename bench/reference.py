"""Reference kernel: a fixed mix of interpreter and numpy work, no pss code.

On virtual machines whose CPUs are shared with other tenants the speed of
the same code drifts by 20-40% from one half-minute to the next.  The
kernel is timed right before and after every measured interval (and
between a pass's commands, see `Sampler`), and the end-to-end times are
reported as `interval * NOMINAL_S / kernel`: seconds on a machine where the
kernel takes NOMINAL_S.  The kernel mixes the three kinds of work the
workloads do (interpreter loops, numpy on a few hundred values, numpy on
10^5 values).  In single-process runs of 200-240 s on a 2-vCPU virtual
machine (Intel Xeon), scaling each pass by kernels of this kind cut the
quartile spread of 30 s medians from 8-24% to 5-8% on the three workloads.
No change to pss moves the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's time on a quiet 2-vCPU Xeon virtual machine (Python 3.11,
# numpy 2.4); it only fixes the scale of the reported seconds.
NOMINAL_S = 0.0085
CALLS = 7
EVERY_S = 1.0

_SMALL = np.linspace(0.0, 1.0, 256)
_LARGE = np.linspace(0.0, 1.0, 100_000)


def kernel():
    acc = 0.0
    table = {}
    for i in range(15000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    a = _SMALL
    for _ in range(150):
        a = np.sin(a) * 0.5 + np.cos(a[::-1]) * 0.25
    b = _LARGE
    for _ in range(3):
        b = np.sin(b) * 0.5 + np.cos(b[::-1]) * 0.25
    return acc + float(a[0]) + float(b[0])


def seconds():
    """Median wall time of CALLS kernel runs."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Kernel timings between commands: one now, then at most one per EVERY_S."""

    def __init__(self):
        self.samples = []
        self.take()

    def take(self):
        self.samples.append(seconds())
        self.last = time.perf_counter()

    def maybe(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.take()
