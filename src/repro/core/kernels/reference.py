"""Reference implementations of the hot-path kernels (numpy + scalar).

These are the oracle semantics the compiled engine must reproduce:

* the **numpy** table kernels are the broadcast/reduce DP inner loops of
  :mod:`repro.exact.homogeneous_dp`;
* the **scalar** table kernels are the original Python loops, never run by
  the solvers: they are the human-auditable oracle the tests and
  ``benchmarks/bench_exact_runtime.py`` compare the tables against;
* :func:`batch_terms_numpy` is the elementwise half of
  :func:`repro.core.costs.evaluate_batch` — per-interval (cycle,
  contribution, output) terms over the flat packed batch.  The period max
  and the left-to-right latency sum stay in numpy in
  :mod:`repro.core.costs`, so a compiled engine that reproduces these terms
  bit for bit yields bit-identical periods and latencies.

The compiled engine (:mod:`repro.core.kernels.compiled`) validates itself
against these functions at load time and is rejected with a recorded reason
on any mismatch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "min_period_tables_numpy",
    "min_period_tables_scalar",
    "min_latency_tables_numpy",
    "min_latency_tables_scalar",
    "batch_terms_numpy",
]

_INF = float("inf")


# --------------------------------------------------------------------------- #
# homogeneous-DP tables
# --------------------------------------------------------------------------- #
def min_period_tables_numpy(
    cycle: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck-partition DP, one broadcast/reduce per processor level.

    Level ``k`` builds the candidate matrix ``M[j, i-1] = max(dp[k-1, j],
    cycle[j, i-1])`` in one shot and reduces it column-wise; the triangular
    ``inf`` structure of ``cycle`` enforces ``j <= i - 1`` for free.
    """
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        candidates = np.maximum(dp[k - 1, :n, None], cycle)
        if k - 1 > 0:
            candidates[: k - 1, :] = _INF  # j >= k - 1
        dp[k, 1:] = candidates.min(axis=0)
        best_j = candidates.argmin(axis=0)
        parent[k, 1:] = np.where(np.isfinite(dp[k, 1:]), best_j, -1)
    return dp, parent


def min_period_tables_scalar(
    cycle: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference of the bottleneck-partition DP (benchmark baseline)."""
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        for i in range(1, n + 1):
            best = _INF
            best_j = -1
            for j in range(k - 1, i):
                if dp[k - 1, j] == _INF:
                    continue
                candidate = max(dp[k - 1, j], cycle[j, i - 1])
                if candidate < best:
                    best = candidate
                    best_j = j
            dp[k, i] = best
            parent[k, i] = best_j
    return dp, parent


def min_latency_tables_numpy(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Period-constrained additive DP, one broadcast/reduce per level.

    Cells whose interval violates the period bound are masked to ``inf``
    before the levels run, so every level is a plain ``min`` reduction of
    ``dp[k-1, j] + term[j, i-1]`` over the candidate matrix.
    """
    allowed = np.where(cycle <= period_bound + 1e-12, term, _INF)
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        candidates = dp[k - 1, :n, None] + allowed
        if k - 1 > 0:
            candidates[: k - 1, :] = _INF
        dp[k, 1:] = candidates.min(axis=0)
        best_j = candidates.argmin(axis=0)
        parent[k, 1:] = np.where(np.isfinite(dp[k, 1:]), best_j, -1)
    return dp, parent


def min_latency_tables_scalar(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference of the period-constrained DP (benchmark baseline).

    Note the historical ``1e-15`` improvement threshold: on exact ties the
    scalar tables may keep a different (equally optimal) predecessor than
    the numpy/compiled tables, so table parity against this path is asserted
    with a tolerance while numpy vs compiled is asserted bit for bit.
    """
    dp = np.full((p + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    parent = np.full((p + 1, n + 1), -1, dtype=np.int64)
    for k in range(1, p + 1):
        for i in range(k, n + 1):
            best = _INF
            best_j = -1
            for j in range(k - 1, i):
                if dp[k - 1, j] == _INF:
                    continue
                if cycle[j, i - 1] > period_bound + 1e-12:
                    continue
                candidate = dp[k - 1, j] + term[j, i - 1]
                if candidate < best - 1e-15:
                    best = candidate
                    best_j = j
            dp[k, i] = best
            parent[k, i] = best_j
    return dp, parent


# --------------------------------------------------------------------------- #
# evaluate_batch elementwise terms
# --------------------------------------------------------------------------- #
def batch_terms_numpy(
    comm: np.ndarray,
    prefix: np.ndarray,
    speeds: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    procs: np.ndarray,
    offsets: np.ndarray,
    n_stages: int,
    homogeneous: bool,
    bandwidth: float,
    input_bandwidth: float,
    output_bandwidth: float,
    bmat: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval (cycle, contribution, output_time) over a packed batch.

    The flat intervals of mapping ``i`` occupy ``offsets[i]:offsets[i+1]``;
    ``homogeneous`` selects the scalar-``bandwidth`` link model, otherwise
    ``bmat`` supplies per-link bandwidths (``inf`` diagonal = free
    intra-processor transfer).  Zero-size communications cost exactly 0.0.
    """
    firsts = offsets[:-1]
    lasts = offsets[1:] - 1
    proc_speeds = speeds[procs]
    compute_time = (prefix[ends + 1] - prefix[starts]) / proc_speeds

    is_first = np.zeros(starts.size, dtype=bool)
    is_first[firsts] = True
    is_last = np.zeros(starts.size, dtype=bool)
    is_last[lasts] = True

    if homogeneous:
        in_bw = np.where(is_first, input_bandwidth, bandwidth)
        out_bw = np.where(is_last, output_bandwidth, bandwidth)
    else:
        # interval j receives from alloc(j-1) and sends to alloc(j+1); the
        # rolled indices at batch boundaries are masked out by is_first/is_last
        prev_procs = np.roll(procs, 1)
        next_procs = np.roll(procs, -1)
        in_bw = np.where(is_first, input_bandwidth, bmat[prev_procs, procs])
        out_bw = np.where(is_last, output_bandwidth, bmat[procs, next_procs])

    delta_in = comm[starts]
    delta_out = comm[ends + 1]
    input_time = np.where(delta_in == 0.0, 0.0, delta_in / in_bw)
    output_time = np.where(delta_out == 0.0, 0.0, delta_out / out_bw)

    cycle = input_time + compute_time + output_time
    contribution = input_time + compute_time
    return cycle, contribution, output_time

