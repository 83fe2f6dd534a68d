"""Exhaustive solvers for the bi-criteria interval-mapping problem.

These solvers enumerate *every* interval partition of the pipeline and every
injective assignment of intervals to processors.  They are exponential in both
``n`` and ``p`` and are therefore only meant for small instances, where they
provide the ground truth used to validate the heuristics and the dynamic
programs (tests, the differential oracle and the optimality-gap benchmark).

Enumeration size: the number of partitions of ``n`` stages into ``m``
intervals is ``C(n-1, m-1)`` and each partition admits ``p! / (p-m)!``
assignments.  The hard limits (``n <= 14``, ``p <= 8``) only bound the
worst case, 169,636,384 mappings; keep ``n <= 10`` and ``p <= 6`` (216,276
mappings) in practice.

**One evaluated enumeration per instance.**  The first query of an
instance numbers its mappings in enumeration order (interval count, then
``itertools.combinations`` of the cut positions, then
``itertools.permutations`` of the processors), evaluates them in packed
chunks of 4096 mappings through
:func:`~repro.core.costs.evaluate_packed`, and keeps only a period and a
latency column: 16 bytes per mapping, 157 KB for the differential oracle's
largest instances (``n <= 8``, ``p <= 5``: 9,805 mappings).  A mapping
object is decoded from its number only for a query's winner.  The table
lives in the instance's entry of an
:func:`~repro.core.tables.instance_tables` scope, so every bound asked
inside one scope reads the same columns; outside a scope each call builds
its own.

Each bounded query first drops, with array operations, every mapping the
sequential scan below could never accept (over the bound, or more than a
few ties above the running minimum), then runs that scan, unchanged, over
the survivors: the first mapping with the smallest objective wins, and a
later one within ``1e-15`` replaces it only with a strictly smaller other
objective.  If a chain of such ties ever climbs past the filter's slack,
the scan reruns over every mapping within the bound.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, permutations
from typing import Iterator, NamedTuple

import numpy as np

from ..core.application import PipelineApplication
from ..core.costs import MappingEvaluation, evaluate, evaluate_packed
from ..core.exceptions import InfeasibleError
from ..core.mapping import IntervalMapping
from ..core.pareto import BicriteriaPoint, pareto_front
from ..core.platform import Platform
from ..core.tables import tables_for

__all__ = [
    "enumerate_interval_mappings",
    "brute_force_min_period",
    "brute_force_min_latency",
    "brute_force_pareto_front",
]

_MAX_STAGES = 14
_MAX_PROCESSORS = 8

#: number of mappings evaluated per packed chunk
_BATCH_SIZE = 4096

#: objectives closer than this tie; the other objective breaks the tie
_TIE = 1e-15
#: how far above the running minimum a mapping may still be accepted
#: without a climbing chain of ties (checked after the scan)
_SLACK = 4 * _TIE


def _check_size(app: PipelineApplication, platform: Platform) -> None:
    if app.n_stages > _MAX_STAGES or platform.n_processors > _MAX_PROCESSORS:
        raise ValueError(
            "brute-force enumeration is limited to "
            f"n <= {_MAX_STAGES} stages and p <= {_MAX_PROCESSORS} processors "
            f"(got n={app.n_stages}, p={platform.n_processors})"
        )


class _Enumeration:
    """Every interval mapping of ``n`` stages onto ``p`` processors, numbered.

    One block per interval count ``m``: its first number, the interval
    ``starts`` / ``ends`` of each cut choice and the processor tuple of
    each assignment.  Mapping ``base + c * len(procs) + q`` is cut choice
    ``c`` with assignment ``q``.
    """

    def __init__(self, n: int, p: int) -> None:
        self.blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        base = 0
        for m in range(1, min(n, p) + 1):
            cut_choices = list(combinations(range(n - 1), m - 1))
            cuts = np.array(cut_choices, dtype=np.intp).reshape(len(cut_choices), m - 1)
            first = np.zeros((len(cut_choices), 1), dtype=np.intp)
            starts = np.hstack([first, cuts + 1])
            ends = np.hstack([cuts, first + (n - 1)])
            procs = np.array(list(permutations(range(p), m)), dtype=np.intp)
            self.blocks.append((base, starts, ends, procs))
            base += len(starts) * len(procs)
        self.size = base

    def packed(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """``(starts, ends, procs, offsets)`` of mappings ``lo .. hi - 1``."""
        parts = []
        for base, starts, ends, procs in self.blocks:
            a, b = max(lo, base), min(hi, base + len(starts) * len(procs))
            if a < b:
                c, q = np.divmod(np.arange(a - base, b - base), len(procs))
                parts.append((starts[c], ends[c], procs[q]))
        counts = np.concatenate(
            [np.full(len(s), s.shape[1], dtype=np.intp) for s, _, _ in parts]
        )
        return (
            np.concatenate([s.ravel() for s, _, _ in parts]),
            np.concatenate([e.ravel() for _, e, _ in parts]),
            np.concatenate([u.ravel() for _, _, u in parts]),
            np.concatenate(([0], np.cumsum(counts))),
        )

    def mapping(self, k: int) -> IntervalMapping:
        """Mapping number ``k``."""
        for base, starts, ends, procs in reversed(self.blocks):
            if k >= base:
                c, q = divmod(k - base, len(procs))
                intervals = zip(starts[c].tolist(), ends[c].tolist())
                return IntervalMapping(list(intervals), procs[q].tolist())
        raise IndexError(k)


class _Table(NamedTuple):
    """An instance's enumeration with the period and latency of each mapping."""

    enumeration: _Enumeration
    periods: np.ndarray
    latencies: np.ndarray


def _table(app: PipelineApplication, platform: Platform) -> _Table:
    """The instance's evaluated enumeration, built on its scope's first query."""
    entry = tables_for(app, platform)
    if entry.brute_force is None:
        _check_size(app, platform)
        enumeration = _Enumeration(app.n_stages, platform.n_processors)
        chunks = [
            evaluate_packed(
                app, platform,
                *enumeration.packed(lo, min(lo + _BATCH_SIZE, enumeration.size)),
            )
            for lo in range(0, enumeration.size, _BATCH_SIZE)
        ]
        entry.brute_force = _Table(
            enumeration,
            np.concatenate([periods for periods, _ in chunks]),
            np.concatenate([latencies for _, latencies in chunks]),
        )
    return entry.brute_force


def _scan(
    indices: np.ndarray, primary: np.ndarray, secondary: np.ndarray
) -> tuple[int | None, np.ndarray, np.ndarray]:
    """The sequential selection over ``indices``, in order.

    Returns the winner and, for every acceptance, its index and the
    primary objective held from then on.
    """
    best: int | None = None
    best_primary = best_secondary = float("inf")
    accepted: list[int] = []
    held: list[float] = []
    for i, pri, sec in zip(
        indices.tolist(), primary[indices].tolist(), secondary[indices].tolist()
    ):
        if best is None or pri < best_primary - _TIE or (
            abs(pri - best_primary) <= _TIE and sec < best_secondary
        ):
            best, best_primary, best_secondary = i, pri, sec
            accepted.append(i)
            held.append(pri)
    return best, np.array(accepted, dtype=np.intp), np.array(held)


def _select(primary: np.ndarray, secondary: np.ndarray, allowed: np.ndarray) -> int | None:
    """The mapping the sequential scan over the ``allowed`` ones picks."""
    candidates = np.flatnonzero(allowed)
    if not candidates.size:
        return None
    values = primary[candidates]
    near = values <= np.minimum.accumulate(values) + _SLACK
    best, accepted, held = _scan(candidates[near], primary, secondary)
    dropped = candidates[~near]
    # every dropped mapping must lose to the one held when the scan passes
    # it (the first candidate is always kept, so one is always held)
    holding = held[np.searchsorted(accepted, dropped) - 1]
    if not np.all(primary[dropped] - holding > _TIE):
        best, _, _ = _scan(candidates, primary, secondary)
    return best


def enumerate_interval_mappings(
    app: PipelineApplication, platform: Platform
) -> Iterator[IntervalMapping]:
    """Yield every valid interval mapping of ``app`` onto ``platform``.

    All partitions of the stages into ``1 .. min(n, p)`` intervals are
    generated, combined with every ordered choice of distinct processors.
    """
    _check_size(app, platform)
    enumeration = _Enumeration(app.n_stages, platform.n_processors)
    for k in range(enumeration.size):
        yield enumeration.mapping(k)


def brute_force_min_period(
    app: PipelineApplication,
    platform: Platform,
    latency_bound: float | None = None,
) -> tuple[IntervalMapping, MappingEvaluation]:
    """Mapping of minimum period, optionally subject to ``latency <= bound``.

    Raises :class:`InfeasibleError` when no mapping satisfies the latency
    bound (the unconstrained problem is always feasible).
    """
    table = _table(app, platform)
    allowed = np.ones(table.enumeration.size, dtype=bool)
    if latency_bound is not None:
        allowed = ~(table.latencies > latency_bound + 1e-12)
    k = _select(table.periods, table.latencies, allowed)
    if k is None:
        raise InfeasibleError(
            f"no interval mapping satisfies latency <= {latency_bound}"
        )
    best = table.enumeration.mapping(k)
    return best, evaluate(app, platform, best)


def brute_force_min_latency(
    app: PipelineApplication,
    platform: Platform,
    period_bound: float | None = None,
) -> tuple[IntervalMapping, MappingEvaluation]:
    """Mapping of minimum latency, optionally subject to ``period <= bound``.

    Raises :class:`InfeasibleError` when no mapping satisfies the period bound.
    """
    table = _table(app, platform)
    allowed = np.ones(table.enumeration.size, dtype=bool)
    if period_bound is not None:
        allowed = ~(table.periods > period_bound + 1e-12)
    k = _select(table.latencies, table.periods, allowed)
    if k is None:
        raise InfeasibleError(f"no interval mapping satisfies period <= {period_bound}")
    best = table.enumeration.mapping(k)
    return best, evaluate(app, platform, best)


def brute_force_pareto_front(
    app: PipelineApplication, platform: Platform
) -> list[BicriteriaPoint]:
    """Exact Pareto front of (period, latency) over all interval mappings.

    Each returned point carries its mapping in ``payload``.
    """
    table = _table(app, platform)
    points = [
        BicriteriaPoint(period, latency, label="exact", payload=k)
        for k, (period, latency) in enumerate(
            zip(table.periods.tolist(), table.latencies.tolist())
        )
    ]
    return [
        replace(point, payload=table.enumeration.mapping(point.payload))
        for point in pareto_front(points)
    ]
