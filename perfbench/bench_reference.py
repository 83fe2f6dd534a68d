"""Host-speed reference: fixed work that does not use the program.

A shared host's speed drifts by tens of percent between runs and even
between seconds of one run (see README, "Calibration").  The benchmark times
this reference next to every measured op and reports the op's time in units
of it, scaled by ``REFERENCE_PASS_S``, so a calibrated figure follows the
program's own cost, not the host's speed.  Standard library and numpy only:
the launcher imports it too.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Sequence

import numpy as np

#: seconds one reference pass is taken to last; a calibrated time is an op's
#: time in units of the reference passes timed next to it, times this
REFERENCE_PASS_S = 0.005
_REFERENCE_ARRAY = np.arange(48.0)


def reference_pass() -> float:
    """Seconds of one fixed pass: a pure-Python loop and small numpy calls,
    the mix the workloads run."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(300):
        np.cumsum(_REFERENCE_ARRAY)
        _REFERENCE_ARRAY.max()
        np.searchsorted(_REFERENCE_ARRAY, 17.5)
    return time.perf_counter() - start


def reference_s(cpus: Sequence[int] | None = None, passes: int = 1) -> float:
    """Reference-pass seconds right now: the median of ``passes`` passes on
    each of ``cpus`` (default: the CPU this process is on), averaged over
    the CPUs.  The process's CPU affinity is restored afterwards."""
    if cpus is None:
        return statistics.median(reference_pass() for _ in range(passes))
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(reference_pass() for _ in range(passes)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu)
