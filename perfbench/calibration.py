"""Machine-speed calibration: a fixed pure-Python kernel timed around requests.

The host this benchmark was tuned on runs the same Python code up to about
40% slower for seconds or tens of seconds at a time, for every process alike
(a spin loop shows it as well as the solver does).  A run that falls into a
slow spell reads slow no matter how its repeats are summarised.  So the
worker times this kernel right before and right after every request, and a
request's time is reported as

    (request seconds / kernel seconds around it) * REFERENCE_S

that is, in seconds of a machine on which the kernel takes REFERENCE_S.
The kernel is interpreter work of the same kinds the program does (calls,
recursion, dict and list operations, integer arithmetic, sorting) and uses
nothing from ``veds``, so no change to the program moves it; a program change
moves the ratio by its full size, while the host's speed cancels out of it.
"""

from __future__ import annotations

import statistics
import time

# Seconds the kernel takes at the faster CPU level of a 2-vCPU x86-64 VM
# (Intel Xeon, 2.0 GHz) with Python 3.11.7; only scales the reported figures.
REFERENCE_S = 0.001


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def kernel() -> int:
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 257] = counts.get(i % 257, 0) + i
    pairs = [((i * 7919) % 1009, i) for i in range(1500)]
    pairs.sort()
    return _fib(16) + len(counts) + pairs[0][0]


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def kernel_median(runs: int = 9) -> float:
    """Median wall time of several back-to-back kernel runs."""
    return statistics.median(kernel_seconds() for _ in range(runs))
