"""Host-calibrated wall time.

On a shared host the same code can run 1.6 times slower for seconds at a
stretch while neighbours load the machine, and the level drifts over tens
of minutes, which swamps the differences a benchmark is meant to show.  So
each timed interval is bracketed by a fixed reference kernel (small
eigenvalue problems, an FFT, a Python loop), and its wall time is scaled by
(REFERENCE_S / mean kernel time) ** exponent.  The result reads as seconds
of a host that runs the kernel in REFERENCE_S.  The raw wall time is kept
next to it.

The exponent is the workload's sensitivity to the host's slow spells: a
slow-down that makes the kernel k times slower makes the workload about
k ** exponent times slower.  Workloads differ: pure-Python exact algebra
slows more than the kernel, a cold CLI process less, and the memory-bound
oracle at N=1024 less still, so scaling all of them fully (exponent 1)
would over-correct the latter two and leave them as unsteady as raw wall
time.  EXPONENTS holds the slope of log(problem time) on log(kernel time),
fitted over 30-40 repetitions of the same problems.

The oracle at N=1024 allocates and fills sections of hundreds of MB, and
follows the host's memory system more than its CPU, so it is bracketed by
a second kernel, memory_kernel_median_s, instead: writing a fresh 64 MB
array (page faults and memory bandwidth).  Over the same ten passes of
oracle_large, scaling by the CPU kernel gave a spread (IQR / median) of
10% on problems per second and 12% on the median latency, the memory
kernel 6% and 5%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# kernel times on the 2-core x86-64 host the benchmark was defined on, when
# no neighbour slows it down
REFERENCE_S = 0.00115
MEMORY_REFERENCE_S = 0.0125
MEMORY_KERNEL_DOUBLES = 8_000_000
# fitted on the same host while neighbours loaded it: exact_sweep and
# cli_mixed against the CPU kernel (1.3-2.6 ms; correlation of the logs
# 0.98 and 0.92), oracle_large against the memory kernel (14-24 ms; 0.66)
EXPONENTS = {"exact_sweep": 1.15, "cli_mixed": 0.7, "oracle_large": 0.5}


def kernel_s() -> float:
    """Wall time of one run of the reference kernel (about 1.2 ms)."""
    import numpy as np

    coeffs = np.arange(1, 10, dtype=complex)
    ones = np.ones(8192, dtype=complex)
    t0 = perf_counter()
    for _ in range(8):
        np.roots(coeffs)
    np.fft.fft(ones)
    acc = 0
    for i in range(15000):
        acc += i % 7
    return perf_counter() - t0


def kernel_median_s(samples: int) -> float:
    """Median of several kernel runs: one run can catch an interrupt."""
    return statistics.median(kernel_s() for _ in range(samples))


def memory_kernel_median_s(samples: int) -> float:
    """Median wall time of writing a fresh 64 MB array (about 13 ms).

    The source array is made, untimed, for each call and freed after it,
    so it does not stay in the process's resident set."""
    import numpy as np

    src = np.ones(MEMORY_KERNEL_DOUBLES)
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        out = src * 2.0
        times.append(perf_counter() - t0)
        del out
    return statistics.median(times)


KERNELS = {
    "cpu": (kernel_median_s, REFERENCE_S),
    "memory": (memory_kernel_median_s, MEMORY_REFERENCE_S),
}


def calibrated(wall_s: float, kernels_s: list[float], exponent: float = 1.0,
               reference_s: float = REFERENCE_S) -> float:
    return wall_s * (reference_s * len(kernels_s) / sum(kernels_s)) ** exponent


class Stopwatch:
    """`with Stopwatch(samples, exponent, kernel) as sw:` sets sw.wall_s and
    sw.calibrated_s, also when the body raises.  The kernel ("cpu" or
    "memory") runs `samples` times on each side; long intervals afford more
    runs, and need them to average out the noise of single ones."""

    def __init__(self, samples: int, exponent: float, kernel: str = "cpu"):
        self.samples = samples
        self.exponent = exponent
        self.kernel, self.reference_s = KERNELS[kernel]

    def __enter__(self) -> "Stopwatch":
        self.wall_s = self.calibrated_s = 0.0
        self._before = self.kernel(self.samples)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s = perf_counter() - self._t0
        after = self.kernel(self.samples)
        self.calibrated_s = calibrated(self.wall_s, [self._before, after], self.exponent,
                                       self.reference_s)
        return False
