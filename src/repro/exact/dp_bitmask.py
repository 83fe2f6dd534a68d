"""Exact bi-criteria solver via dynamic programming over processor subsets.

For communication-homogeneous (and even fully homogeneous) platforms with a
*small* number of processors, the bi-criteria problem "minimise the latency
subject to ``period <= P``" can be solved exactly in
``O(n^2 * 2^p * p)`` time by a dynamic program whose state is

    (next stage to map, set of processors already used)

and whose value is the minimum accumulated latency of the prefix.  The
converse problem "minimise the period subject to ``latency <= L``" is solved
by a bisection on the period whose feasibility oracle is the same DP.

These solvers remain exponential in ``p`` (the problem is NP-hard, Theorem 2).
The hard limit is ``p <= 16`` (a ``2^16``-column table per stage); the
pure-Python DP is practical up to ``p`` of about 10 and ``n`` of a few
dozen (the differential oracle runs it at ``n <= 14``, ``p <= 8``), which is
far beyond plain enumeration, and it serves as the reference optimum in the
optimality-gap benchmarks.

**Period buckets.**  The DP reads the period bound only through the set of
intervals ``(i, u, e)`` — stages ``i..e`` on processor ``u`` — whose cycle
time is ``<= bound + 1e-12``: infeasible intervals are skipped, every
feasible one is relaxed in a fixed order, and nothing else depends on the
bound.  With the cycle times sorted, that set is fixed by the bucket
``bisect_right(sorted_cycles, bound + 1e-12)``, so the DP's outcome —
mapping, latency, or infeasibility — is a function of the bucket.  One
helper computes the cycle table with the DP's own float expressions, and
both the DP and the bucket key read it.  Outcomes are memoised per bucket
in the instance's entry of an :func:`~repro.core.tables.instance_tables`
scope: the ~20 bisection steps of :func:`dp_min_period_for_latency` and
every :func:`dp_min_latency_for_period` call inside one scope run the DP at
most once per bucket (at most ``p * n * (n + 1) / 2 + 1`` buckets).  The
bisection opens (or joins) a scope, so outside any scope it still shares
its buckets within the call.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.application import PipelineApplication
from ..core.costs import MappingEvaluation, evaluate, interval_cycle_time, optimal_latency
from ..core.exceptions import InfeasibleError
from ..core.mapping import Interval, IntervalMapping
from ..core.platform import Platform
from ..core.tables import instance_tables, tables_for

__all__ = ["dp_min_latency_for_period", "dp_min_period_for_latency"]

_MAX_PROCESSORS = 16


def _check_platform(platform: Platform) -> None:
    if platform.n_processors > _MAX_PROCESSORS:
        raise ValueError(
            "the bitmask DP is exponential in p; "
            f"use p <= {_MAX_PROCESSORS} (got {platform.n_processors})"
        )
    if not platform.is_communication_homogeneous:
        raise ValueError(
            "the bitmask DP assumes a communication-homogeneous platform"
        )


class _Buckets:
    """Cycle table and per-bucket DP outcomes of one instance.

    ``input_time[i]`` and ``work_time[i][u][e]`` are the latency terms of
    interval ``[i, e]`` on processor ``u`` and ``cycle[i, u, e]`` its cycle
    time (``inf`` for ``e < i``), computed with the DP's float expressions;
    ``sorted_cycles`` lists the finite cycle times in increasing order.
    """

    __slots__ = ("input_time", "work_time", "cycle", "sorted_cycles", "outcomes")

    def __init__(self, app: PipelineApplication, platform: Platform) -> None:
        n = app.n_stages
        b = platform.uniform_bandwidth
        comm = app.comm_sizes
        prefix = np.concatenate(([0.0], np.cumsum(app.works)))
        in_bw = np.full(n, b)
        in_bw[0] = platform.input_bandwidth
        out_bw = np.full(n, b)
        out_bw[n - 1] = platform.output_bandwidth
        # a zero-size communication costs 0.0 whatever the bandwidth
        input_time = np.where(comm[:n] != 0, comm[:n] / in_bw, 0.0)
        output_time = np.where(comm[1:] != 0, comm[1:] / out_bw, 0.0)
        span = prefix[np.newaxis, 1:] - prefix[:-1, np.newaxis]  # [i, e]: work of i..e
        work_time = span[:, np.newaxis, :] / platform.speeds[np.newaxis, :, np.newaxis]
        cycle = input_time[:, np.newaxis, np.newaxis] + work_time + output_time
        below = np.tril(np.ones((n, n), dtype=bool), k=-1)  # e < i
        cycle[np.broadcast_to(below[:, np.newaxis, :], cycle.shape)] = np.inf
        self.input_time: list[float] = input_time.tolist()
        self.work_time: list[list[list[float]]] = work_time.tolist()
        self.cycle = cycle
        self.sorted_cycles: list[float] = np.sort(cycle[np.isfinite(cycle)]).tolist()
        #: bucket -> (mapping, its evaluation), or None when infeasible
        self.outcomes: dict[int, tuple[IntervalMapping, MappingEvaluation] | None] = {}

    def bucket(self, period_bound: float) -> int:
        """Number of interval cycle times within ``period_bound``'s tolerance."""
        return bisect_right(self.sorted_cycles, period_bound + 1e-12)


def _run_dp(
    app: PipelineApplication, platform: Platform, buckets: _Buckets, bucket: int
) -> tuple[IntervalMapping, MappingEvaluation] | None:
    """The DP over the intervals of ``bucket``; ``None`` when no mapping fits."""
    if bucket == 0:
        return None
    n = app.n_stages
    p = platform.n_processors
    allowed = (buckets.cycle <= buckets.sorted_cycles[bucket - 1]).tolist()
    # (e, work time) of every interval [i, e] on u within the bucket
    options = [
        [
            [(e, buckets.work_time[i][u][e]) for e in range(i, n) if allowed[i][u][e]]
            for u in range(p)
        ]
        for i in range(n)
    ]

    INF = float("inf")
    size = 1 << p
    # table[i][mask]: min accumulated latency of stages [0, i) using processors `mask`
    table = [[INF] * size for _ in range(n + 1)]
    table[0][0] = 0.0
    # choices[i][mask] = (previous stage index, previous mask, processor used)
    choices: list[dict[int, tuple[int, int, int]]] = [dict() for _ in range(n + 1)]

    for i in range(n):
        row = table[i]
        input_time = buckets.input_time[i]
        for mask in range(size):
            base_latency = row[mask]
            if base_latency == INF:
                continue
            for u in range(p):
                bit = 1 << u
                if mask & bit:
                    continue
                new_mask = mask | bit
                for e, work_time in options[i][u]:
                    new_latency = base_latency + input_time + work_time
                    if new_latency < table[e + 1][new_mask] - 1e-15:
                        table[e + 1][new_mask] = new_latency
                        choices[e + 1][new_mask] = (i, mask, u)

    final_row = table[n]
    best_latency = min(final_row)
    if best_latency == INF:
        return None
    best_mask = final_row.index(best_latency)  # the first minimal mask

    # rebuild the mapping
    intervals: list[Interval] = []
    processors: list[int] = []
    i, mask = n, best_mask
    while i > 0:
        prev_i, prev_mask, proc = choices[i][mask]
        intervals.append(Interval(prev_i, i - 1))
        processors.append(proc)
        i, mask = prev_i, prev_mask
    intervals.reverse()
    processors.reverse()
    mapping = IntervalMapping(intervals, processors)
    # sanity: recompute with the generic cost model
    return mapping, evaluate(app, platform, mapping)


def _solve(
    app: PipelineApplication, platform: Platform, period_bound: float
) -> tuple[IntervalMapping, MappingEvaluation] | None:
    """The memoised DP outcome of ``period_bound``'s bucket."""
    entry = tables_for(app, platform)
    if entry.bitmask is None:
        entry.bitmask = _Buckets(app, platform)
    buckets = entry.bitmask
    bucket = buckets.bucket(period_bound)
    if bucket not in buckets.outcomes:
        buckets.outcomes[bucket] = _run_dp(app, platform, buckets, bucket)
    return buckets.outcomes[bucket]


def dp_min_latency_for_period(
    app: PipelineApplication,
    platform: Platform,
    period_bound: float,
) -> tuple[IntervalMapping, float]:
    """Exact minimum latency subject to ``period <= period_bound``.

    Returns the optimal mapping and its latency.  Raises
    :class:`InfeasibleError` when no interval mapping meets the period bound.
    """
    _check_platform(platform)
    outcome = _solve(app, platform, period_bound)
    if outcome is None:
        raise InfeasibleError(
            f"no interval mapping achieves period <= {period_bound:g}"
        )
    mapping, ev = outcome
    return mapping, float(ev.latency)


def dp_min_period_for_latency(
    app: PipelineApplication,
    platform: Platform,
    latency_bound: float,
    rel_tol: float = 1e-6,
    max_iter: int = 100,
) -> tuple[IntervalMapping, float]:
    """Exact (up to bisection tolerance) minimum period s.t. ``latency <= bound``.

    Bisect on the period bound, using the DP of
    :func:`dp_min_latency_for_period` as the feasibility oracle (one DP per
    period bucket).  Raises :class:`InfeasibleError` when even the
    latency-optimal mapping (Lemma 1) exceeds the latency bound.
    """
    _check_platform(platform)
    if optimal_latency(app, platform) > latency_bound + 1e-12:
        raise InfeasibleError(
            f"latency bound {latency_bound:g} is below the optimal latency"
        )

    # Upper bound on the period: whole pipeline on the fastest processor.
    whole = Interval(0, app.n_stages - 1)
    hi = interval_cycle_time(app, platform, whole, platform.fastest_processor)
    lo = 0.0

    def try_period(period_bound: float) -> tuple[IntervalMapping, MappingEvaluation] | None:
        outcome = _solve(app, platform, period_bound)
        if outcome is None or float(outcome[1].latency) > latency_bound + 1e-9:
            return None
        return outcome

    with instance_tables():
        outcome = try_period(hi)
        if outcome is None:  # pragma: no cover - the Lemma 1 mapping is always valid
            raise InfeasibleError("no feasible mapping found at the trivial period bound")
        best_mapping, best_ev = outcome
        best_period = best_ev.period

        for _ in range(max_iter):
            if hi - lo <= rel_tol * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            outcome = try_period(mid)
            if outcome is not None:
                hi = mid
                mapping, ev = outcome
                if ev.period < best_period:
                    best_mapping, best_period = mapping, ev.period
            else:
                lo = mid
    return best_mapping, float(best_period)
