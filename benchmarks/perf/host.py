"""Host-speed probe: expresses measured times at a reference host's speed.

The machines this benchmark runs on share their cores with other
tenants.  There a fixed piece of pure-Python work runs at one of two
speeds, about 1.6x apart, and each CPU switches between them on its
own, every few tenths of a second to every few tens of seconds; short
stalls and a neighbour's memory traffic come on top (``README.md``,
"Noise").  Plain wall-clock metrics of the same code differ by up to
60% between runs.

:class:`HostProbe` times a fixed piece of benchmark-owned work on each
CPU of the run, while the program under test is idle: recursive Python
function calls and, weighted by the workload's ``gemm_weight``, three
float32 matrix products; each part takes about 2.5 ms at full speed.  A
reading is the host's *slowness* at that moment: the weighted mean of
the parts' times, each as a multiple of its time on a reference host
(:data:`REFERENCE_S`), averaged over the CPUs.  The benchmark reads it
before and after every short episode of work -- a call, or a burst of
requests -- and divides the episode's times by the mean of the two
readings.  The probe's work is fixed, so a change to the program moves
the program's times and not the readings.

Each part is timed once, not as the fastest of several tries: the
stalls the fastest try leaves out slow the program too.
"""

from __future__ import annotations

import os
import time
from typing import Sequence, Tuple

import numpy as np

CALLS_DEPTH = 22          # fib(22): 57,313 Python calls
GEMM = (64, 576, 900)     # (m, k, n) of each float32 matrix product
GEMMS = 3
#: (function calls, matrix products) at full speed on the reference
#: host, the machine the benchmark was built on (2 vCPUs, Intel Xeon)
REFERENCE_S = (2.8e-3, 2.0e-3)

clock = time.perf_counter


def pin_cpus(count: int) -> Tuple[int, ...]:
    """Restrict this process to its first ``count`` CPUs; returns them.

    One CPU per thread that does the work, so every CPU the work can
    run on is probed.  Call before any thread starts: threads inherit
    the set.
    """
    cpus = tuple(sorted(os.sched_getaffinity(0))[:count])
    os.sched_setaffinity(0, cpus)
    return cpus


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class HostProbe:
    """Host-speed readings on the calling thread, over ``cpus``.

    ``gemm_weight`` is the matrix products' share of a reading; the
    function calls take the rest.
    """

    def __init__(self, cpus: Sequence[int], gemm_weight: float):
        self.cpus = tuple(cpus)
        self.gemm_weight = gemm_weight
        rng = np.random.default_rng(0)
        m, k, n = GEMM
        self._a = rng.random((m, k), dtype=np.float32)
        self._b = rng.random((k, n), dtype=np.float32)

    def _calls(self) -> float:
        start = clock()
        _fib(CALLS_DEPTH)
        return clock() - start

    def _gemm(self) -> float:
        start = clock()
        for _ in range(GEMMS):
            np.matmul(self._a, self._b)
        return clock() - start

    def read(self) -> float:
        """The host's slowness now; 1.0 is the reference host."""
        weight = self.gemm_weight
        total = 0.0
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                if weight < 1.0:
                    total += (1.0 - weight) * self._calls() / REFERENCE_S[0]
                if weight > 0.0:
                    total += weight * self._gemm() / REFERENCE_S[1]
        finally:
            os.sched_setaffinity(0, self.cpus)
        return total / len(self.cpus)
