"""Machine-speed probe: a fixed kernel timed at regular moments of a run.

The speed of a shared VM can change by 40% or more, for stretches of
seconds to minutes, with the same code.  The probe measures that speed
while the workload runs: a timer signal fires every INTERVAL seconds and
its handler times the kernel, a fixed piece of interpreter and dense
linear-algebra work that calls nothing in starsdp.  A time taken while
the probe runs is divided by the mean speed of the samples taken over it,
speed = REF_KERNEL_S / kernel time, which gives seconds at the reference
speed (stats.at_reference_speed).  The handler's own time is subtracted
from the times it interrupted.  The timer runs in the main thread, between
bytecodes, so a long call into numpy delays a sample but is not cut.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# The kernel's time on a 2-core x86_64 VM (OpenBLAS, one thread) in its
# fast state; a speed of 1.0 means the machine runs at that pace.
REF_KERNEL_S = 0.0020
INTERVAL = 0.2           # seconds between samples; the kernel costs about 1%

_N = 48
_A = np.cos(np.arange(_N * _N, dtype=float).reshape(_N, _N))
_SPD = _A @ _A.T + _N * np.eye(_N)


def kernel() -> float:
    """Fixed work in the proportions of the library's: dictionary and tuple
    traffic like the word algebra's, then small Cholesky factors and
    products like the solver's."""
    table: dict[tuple[int, int, int], float] = {}
    for i in range(3000):
        key = (i % 7, i % 3, i % 5)
        table[key] = table.get(key, 0.0) + 0.5 * i
    for _ in range(16):
        L = np.linalg.cholesky(_SPD)
        prod = L @ L.T
    return len(table) + float(prod[0, 0])


def sample() -> float:
    """One kernel time, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedProbe:
    """Within a `with` block: a kernel sample on entry, one on the SIGALRM
    timer every INTERVAL seconds, and one on exit.

    `samples` holds every kernel time; `spent` is the running total of time
    the timer's handler took, to subtract from the intervals it fell into.
    The entry and exit samples fall outside the block's own timings."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples.append(sample())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(sample())
        return False
