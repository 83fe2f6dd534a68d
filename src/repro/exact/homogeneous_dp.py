"""Polynomial exact bi-criteria solvers for *fully homogeneous* platforms.

When every processor has the same speed the processor assignment is
irrelevant and the bi-criteria mapping problem becomes polynomial (this is the
setting of Subhlok & Vondran [19, 20], which the paper generalises).  The
solvers below provide:

* :func:`homogeneous_min_period` — optimal period over all interval
  partitions into at most ``p`` intervals (``O(n^2 p)`` DP);
* :func:`homogeneous_min_latency_for_period` — optimal latency subject to a
  period bound (``O(n^2 p)`` DP);
* :func:`homogeneous_min_period_for_latency` — optimal period subject to a
  latency bound, via an exact search over the ``O(n^2)`` candidate period
  values (interval cycle times).

They are used as baselines and as ground truth in the tests: on a homogeneous
platform the heuristics of Section 4 can never beat them.

Both DPs run their ``O(n^2)`` inner loops through :mod:`repro.core.kernels`:
the built-in C library whenever it built and validated bit for bit against
the numpy tables, else the numpy broadcast/reduce reference (one ``(n, n)``
candidate matrix per processor level).  The original scalar Python loops
stay in :mod:`repro.core.kernels.reference` as the oracle the tests compare
against.  ``benchmarks/bench_kernel_speedup.py`` records the compiled
speedups and ``benchmarks/bench_exact_runtime.py`` the numpy ones.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..core.application import PipelineApplication
from ..core.costs import evaluate
from ..core.exceptions import InfeasibleError, InvalidPlatformError
from ..core.mapping import Interval, IntervalMapping
from ..core.platform import Platform

__all__ = [
    "homogeneous_min_period",
    "homogeneous_min_latency_for_period",
    "homogeneous_min_period_for_latency",
]

_INF = float("inf")


def _check_homogeneous(platform: Platform) -> float:
    if not platform.is_fully_homogeneous:
        raise InvalidPlatformError(
            "this solver requires identical processor speeds and link "
            "bandwidths; use the bitmask DP or the heuristics for "
            "heterogeneous platforms"
        )
    return float(platform.speeds[0])


# --------------------------------------------------------------------------- #
# interval matrices (vectorized + scalar reference)
# --------------------------------------------------------------------------- #
def _boundary_times(
    app: PipelineApplication, platform: Platform
) -> tuple[np.ndarray, np.ndarray]:
    """Per-boundary input/output times: ``input_time[d]`` and ``output_time[e]``.

    ``input_time[d]`` is the cost of reading ``delta_d`` when an interval
    starts at stage ``d`` (through the platform input link for ``d = 0``);
    ``output_time[e]`` the cost of writing ``delta_{e+1}`` when an interval
    ends at stage ``e``.  Zero-size communications cost exactly 0.0, matching
    the scalar cost model.
    """
    n = app.n_stages
    b = platform.uniform_bandwidth
    comm = app.comm_sizes
    idx = np.arange(n)
    in_bw = np.where(idx == 0, platform.input_bandwidth, b)
    out_bw = np.where(idx == n - 1, platform.output_bandwidth, b)
    input_time = np.where(comm[:n] == 0.0, 0.0, comm[:n] / in_bw)
    output_time = np.where(comm[1:] == 0.0, 0.0, comm[1:] / out_bw)
    return input_time, output_time


def _cycle_matrix(app: PipelineApplication, platform: Platform) -> np.ndarray:
    """``cycle[d, e]``: cycle time of interval ``[d, e]`` on any processor.

    Broadcast kernel: the compute term is a prefix-sum difference
    ``(prefix[e + 1] - prefix[d]) / s`` over the full ``(d, e)`` grid, framed
    by the per-boundary communication vectors; ``d > e`` cells are ``inf``.
    """
    n = app.n_stages
    s = _check_homogeneous(platform)
    prefix = np.concatenate(([0.0], np.cumsum(app.works)))
    input_time, output_time = _boundary_times(app, platform)
    compute = (prefix[None, 1:] - prefix[:n, None]) / s
    cycle = input_time[:, None] + compute + output_time[None, :]
    d = np.arange(n)
    cycle[d[:, None] > d[None, :]] = _INF
    return cycle


def _cycle_matrix_scalar(app: PipelineApplication, platform: Platform) -> np.ndarray:
    """Scalar reference of :func:`_cycle_matrix` (the oracle tests compare to)."""
    n = app.n_stages
    s = _check_homogeneous(platform)
    b = platform.uniform_bandwidth
    b_in, b_out = platform.input_bandwidth, platform.output_bandwidth
    comm = app.comm_sizes
    prefix = np.concatenate(([0.0], np.cumsum(app.works)))
    cycle = np.full((n, n), np.inf)
    for d in range(n):
        in_bw = b_in if d == 0 else b
        input_time = comm[d] / in_bw if comm[d] else 0.0
        for e in range(d, n):
            out_bw = b_out if e == n - 1 else b
            output_time = comm[e + 1] / out_bw if comm[e + 1] else 0.0
            cycle[d, e] = input_time + (prefix[e + 1] - prefix[d]) / s + output_time
    return cycle


def _latency_term_matrix(app: PipelineApplication, platform: Platform) -> np.ndarray:
    """``term[d, e]``: latency contribution (input + compute) of interval ``[d, e]``."""
    n = app.n_stages
    s = _check_homogeneous(platform)
    prefix = np.concatenate(([0.0], np.cumsum(app.works)))
    input_time, _ = _boundary_times(app, platform)
    term = input_time[:, None] + (prefix[None, 1:] - prefix[:n, None]) / s
    d = np.arange(n)
    term[d[:, None] > d[None, :]] = _INF
    return term


def _mapping_from_boundaries(
    boundaries: list[int], n: int
) -> IntervalMapping:
    """Mapping from exclusive interval ends, processors assigned in index order."""
    intervals: list[Interval] = []
    start = 0
    for end_excl in boundaries:
        intervals.append(Interval(start, end_excl - 1))
        start = end_excl
    if start < n:
        intervals.append(Interval(start, n - 1))
    processors = list(range(len(intervals)))
    return IntervalMapping(intervals, processors)


def _rebuild_boundaries(parent: np.ndarray, n: int, best_k: int) -> list[int]:
    """Walk the parent table back from ``dp[best_k, n]`` to interval ends."""
    boundaries: list[int] = []
    i, k = n, best_k
    while k > 0:
        j = int(parent[k, i])
        if j < 0:
            raise InfeasibleError("failed to reconstruct the optimal partition")
        boundaries.append(i)
        i, k = j, k - 1
    boundaries.reverse()
    return boundaries


# --------------------------------------------------------------------------- #
# DP entry points (tables live in repro.core.kernels)
# --------------------------------------------------------------------------- #
def homogeneous_min_period(
    app: PipelineApplication, platform: Platform
) -> tuple[IntervalMapping, float]:
    """Optimal-period interval mapping on a fully homogeneous platform."""
    n = app.n_stages
    p = min(platform.n_processors, n)
    cycle = _cycle_matrix(app, platform)
    dp, parent = kernels.min_period_tables(cycle, n, p)

    best_k = int(np.argmin(dp[1 : p + 1, n])) + 1
    best_value = float(dp[best_k, n])
    mapping = _mapping_from_boundaries(_rebuild_boundaries(parent, n, best_k), n)
    ev = evaluate(app, platform, mapping)
    assert abs(ev.period - best_value) <= 1e-9 * max(1.0, best_value)
    return mapping, float(ev.period)


def homogeneous_min_latency_for_period(
    app: PipelineApplication,
    platform: Platform,
    period_bound: float,
) -> tuple[IntervalMapping, float]:
    """Optimal latency subject to ``period <= period_bound`` (homogeneous case)."""
    n = app.n_stages
    p = min(platform.n_processors, n)
    cycle = _cycle_matrix(app, platform)
    term = _latency_term_matrix(app, platform)
    dp, parent = kernels.min_latency_tables(cycle, term, period_bound, n, p)

    finite_levels = [k for k in range(1, p + 1) if dp[k, n] < _INF]
    if not finite_levels:
        raise InfeasibleError(
            f"no homogeneous interval mapping achieves period <= {period_bound:g}"
        )
    best_k = min(finite_levels, key=lambda k: dp[k, n])

    mapping = _mapping_from_boundaries(_rebuild_boundaries(parent, n, best_k), n)
    ev = evaluate(app, platform, mapping)
    if ev.period > period_bound + 1e-9:
        raise InfeasibleError("reconstructed mapping violates the period bound")
    return mapping, float(ev.latency)


def homogeneous_min_period_for_latency(
    app: PipelineApplication,
    platform: Platform,
    latency_bound: float,
) -> tuple[IntervalMapping, float]:
    """Optimal period subject to ``latency <= latency_bound`` (homogeneous case).

    The optimal period is one of the ``O(n^2)`` interval cycle times, so an
    exact binary search over the sorted candidate values is performed, using
    :func:`homogeneous_min_latency_for_period` as the feasibility oracle.
    """
    cycle = _cycle_matrix(app, platform)
    candidates = np.unique(cycle[np.isfinite(cycle)])

    best: tuple[IntervalMapping, float] | None = None
    lo, hi = 0, candidates.size - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        period_bound = float(candidates[mid])
        try:
            mapping, latency = homogeneous_min_latency_for_period(
                app, platform, period_bound
            )
            feasible = latency <= latency_bound + 1e-9
        except InfeasibleError:
            feasible = False
        if feasible:
            ev = evaluate(app, platform, mapping)
            if best is None or ev.period < best[1]:
                best = (mapping, float(ev.period))
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise InfeasibleError(
            f"no homogeneous interval mapping achieves latency <= {latency_bound:g}"
        )
    return best
