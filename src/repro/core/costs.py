"""Analytical cost model: period (eq. 1) and latency (eq. 2) of a mapping.

For an interval mapping with intervals ``I_j = [d_j, e_j]`` executed on
processors ``alloc(j)`` the paper defines (Section 2):

* period  ``T_period  = max_j ( delta_{d_j - 1}/b  +  sum_{i in I_j} w_i / s_alloc(j)  +  delta_{e_j}/b )``
* latency ``T_latency = sum_j ( delta_{d_j - 1}/b  +  sum_{i in I_j} w_i / s_alloc(j) )  +  delta_n / b``

with the convention that a communication between two stages mapped onto the
*same* processor is free (it only appears in the formulas when an interval
boundary is crossed).  On the communication-homogeneous platforms of the paper
every link has bandwidth ``b``; the functions below also support fully
heterogeneous platforms (per-link bandwidths) so that the extension modules can
reuse the same cost model.

The module exposes both fine-grained helpers (per-interval cycle time, used
heavily by the splitting heuristics) and aggregate evaluation returning a
:class:`MappingEvaluation` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernels
from .application import PipelineApplication
from .exceptions import InvalidMappingError
from .mapping import Interval, IntervalMapping
from .platform import Platform

__all__ = [
    "IntervalCost",
    "MappingEvaluation",
    "BatchEvaluation",
    "interval_compute_time",
    "interval_cycle_time",
    "interval_time_components",
    "period",
    "latency",
    "evaluate",
    "evaluate_batch",
    "evaluate_packed",
    "period_batch",
    "latency_batch",
    "optimal_latency",
    "optimal_latency_mapping",
    "period_lower_bound",
    "latency_of_intervals",
]


@dataclass(frozen=True)
class IntervalCost:
    """Cost breakdown of one interval of a mapping.

    Attributes
    ----------
    interval:
        The stage interval.
    processor:
        Processor executing the interval.
    input_time / compute_time / output_time:
        The three terms of the interval's cycle time: incoming communication,
        computation, and outgoing communication.
    """

    interval: Interval
    processor: int
    input_time: float
    compute_time: float
    output_time: float

    @property
    def cycle_time(self) -> float:
        """Cycle time of the interval (its contribution to the period)."""
        return self.input_time + self.compute_time + self.output_time

    @property
    def latency_contribution(self) -> float:
        """Contribution of the interval to the latency (eq. 2 term)."""
        return self.input_time + self.compute_time


@dataclass(frozen=True)
class MappingEvaluation:
    """Aggregate evaluation of a mapping under the analytical model."""

    period: float
    latency: float
    interval_costs: tuple[IntervalCost, ...] = field(default_factory=tuple)

    @property
    def bottleneck_interval(self) -> int:
        """Index of the interval achieving the period (first one on ties)."""
        best, best_cost = 0, float("-inf")
        for j, cost in enumerate(self.interval_costs):
            if cost.cycle_time > best_cost:
                best, best_cost = j, cost.cycle_time
        return best

    @property
    def n_intervals(self) -> int:
        return len(self.interval_costs)

    def dominates(self, other: "MappingEvaluation", tol: float = 1e-12) -> bool:
        """Pareto dominance: no worse on both criteria, better on at least one."""
        not_worse = (
            self.period <= other.period + tol and self.latency <= other.latency + tol
        )
        strictly_better = (
            self.period < other.period - tol or self.latency < other.latency - tol
        )
        return not_worse and strictly_better


# --------------------------------------------------------------------------- #
# per-interval helpers
# --------------------------------------------------------------------------- #
def interval_compute_time(
    app: PipelineApplication, platform: Platform, interval: Interval, processor: int
) -> float:
    """Computation time of ``interval`` on ``processor``: ``sum w_i / s_u``."""
    return app.work_sum(interval.start, interval.end) / platform.speed(processor)


def _input_bandwidth(
    platform: Platform, processor: int, predecessor: int | None
) -> float:
    """Bandwidth used to receive the interval's input."""
    if predecessor is None:
        return platform.input_bandwidth
    return platform.bandwidth(predecessor, processor)


def _output_bandwidth(
    platform: Platform, processor: int, successor: int | None
) -> float:
    """Bandwidth used to send the interval's output."""
    if successor is None:
        return platform.output_bandwidth
    return platform.bandwidth(processor, successor)


def interval_cycle_time(
    app: PipelineApplication,
    platform: Platform,
    interval: Interval,
    processor: int,
    predecessor: int | None = None,
    successor: int | None = None,
) -> float:
    """Cycle time of an interval: input + compute + output (eq. 1 inner term).

    ``predecessor`` / ``successor`` are the processors holding the neighbouring
    intervals (``None`` for the outside world).  On communication-homogeneous
    platforms they only matter when they equal ``processor`` (free transfer);
    on fully heterogeneous platforms they select the link bandwidth.
    """
    cost = _interval_cost(app, platform, interval, processor, predecessor, successor)
    return cost.cycle_time


def _interval_cost(
    app: PipelineApplication,
    platform: Platform,
    interval: Interval,
    processor: int,
    predecessor: int | None,
    successor: int | None,
) -> IntervalCost:
    delta_in = app.comm(interval.start)
    delta_out = app.comm(interval.end + 1)
    b_in = _input_bandwidth(platform, processor, predecessor)
    b_out = _output_bandwidth(platform, processor, successor)
    input_time = 0.0 if delta_in == 0 else delta_in / b_in
    output_time = 0.0 if delta_out == 0 else delta_out / b_out
    return IntervalCost(
        interval=interval,
        processor=processor,
        input_time=input_time,
        compute_time=interval_compute_time(app, platform, interval, processor),
        output_time=output_time,
    )


def _all_interval_costs(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> list[IntervalCost]:
    mapping.validate(app, platform)
    costs: list[IntervalCost] = []
    m = mapping.n_intervals
    for j, (interval, proc) in enumerate(mapping.items()):
        predecessor = mapping.processor_of_interval(j - 1) if j > 0 else None
        successor = mapping.processor_of_interval(j + 1) if j < m - 1 else None
        costs.append(
            _interval_cost(app, platform, interval, proc, predecessor, successor)
        )
    return costs


# --------------------------------------------------------------------------- #
# aggregate metrics
# --------------------------------------------------------------------------- #
def period(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> float:
    """Period of the mapping, eq. (1): the largest interval cycle time."""
    return max(c.cycle_time for c in _all_interval_costs(app, platform, mapping))


def latency(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> float:
    """Latency of the mapping, eq. (2).

    Sum over intervals of (input communication + computation), plus the final
    output communication ``delta_n / b``.
    """
    costs = _all_interval_costs(app, platform, mapping)
    total = sum(c.latency_contribution for c in costs)
    return total + costs[-1].output_time


def evaluate(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> MappingEvaluation:
    """Evaluate period and latency in a single pass."""
    costs = _all_interval_costs(app, platform, mapping)
    per = max(c.cycle_time for c in costs)
    lat = sum(c.latency_contribution for c in costs) + costs[-1].output_time
    return MappingEvaluation(period=per, latency=lat, interval_costs=tuple(costs))


# --------------------------------------------------------------------------- #
# vectorized kernels (batched evaluation)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BatchEvaluation:
    """Periods and latencies of a batch of mappings, in input order.

    Produced by :func:`evaluate_batch`; each entry matches what the scalar
    :func:`evaluate` returns for the corresponding mapping (eqs. 1 and 2),
    computed with a single pass of NumPy array operations over the whole
    batch.
    """

    periods: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        self.periods.setflags(write=False)
        self.latencies.setflags(write=False)

    @property
    def n_mappings(self) -> int:
        return int(self.periods.size)

    def __len__(self) -> int:
        return self.n_mappings

    def point(self, i: int) -> tuple[float, float]:
        """The ``(period, latency)`` objective point of mapping ``i``."""
        return (float(self.periods[i]), float(self.latencies[i]))

    def points(self) -> list[tuple[float, float]]:
        """All ``(period, latency)`` points, in input order."""
        return [
            (float(p), float(l)) for p, l in zip(self.periods, self.latencies)
        ]


def interval_time_components(
    prefix: np.ndarray,
    comm: np.ndarray,
    starts: np.ndarray | int,
    ends: np.ndarray | int,
    speeds: np.ndarray | float,
    *,
    bandwidth: float,
    input_bandwidth: float,
    output_bandwidth: float,
    n_stages: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (input, compute, output) times of stage intervals.

    The communication-homogeneous kernel of the splitting engine
    (:mod:`repro.heuristics.engine`): interval ``i`` spans stages
    ``[starts[i], ends[i]]`` and runs on a processor of speed
    ``speeds[i]``.  ``prefix`` is the work prefix-sum array (``prefix[k] =
    w_0 + .. + w_{k-1}``) and ``comm`` the ``delta`` vector of length
    ``n_stages + 1``.  The first interval reads through ``input_bandwidth``,
    the last writes through ``output_bandwidth``, every internal boundary
    crosses a ``bandwidth`` link.  All arguments broadcast, so scalars work
    too.  Always numpy: the splitting engine's batches (741 intervals at
    most on the paper-scale sweep, n=40, p=100) sit far below the size
    where a compiled loop would pay for its marshalling.
    """
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    in_bw = np.where(starts == 0, input_bandwidth, bandwidth)
    out_bw = np.where(ends == n_stages - 1, output_bandwidth, bandwidth)
    input_time = comm[starts] / in_bw
    output_time = comm[ends + 1] / out_bw
    compute_time = (prefix[ends + 1] - prefix[starts]) / speeds
    return input_time, compute_time, output_time


def _pack_mappings(
    mappings: Sequence[IntervalMapping],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a batch of mappings into (starts, ends, procs, offsets) arrays.

    ``offsets`` has one entry per mapping plus a final sentinel: the intervals
    of mapping ``i`` occupy the flat slice ``offsets[i]:offsets[i + 1]``.
    """
    counts = np.fromiter(
        (m.n_intervals for m in mappings), dtype=np.intp, count=len(mappings)
    )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    starts = np.fromiter(
        (iv.start for m in mappings for iv in m.intervals), dtype=np.intp, count=total
    )
    ends = np.fromiter(
        (iv.end for m in mappings for iv in m.intervals), dtype=np.intp, count=total
    )
    procs = np.fromiter(
        (u for m in mappings for u in m.processors), dtype=np.intp, count=total
    )
    return starts, ends, procs, offsets


def evaluate_batch(
    app: PipelineApplication,
    platform: Platform,
    mappings: Sequence[IntervalMapping],
    *,
    validate: bool = True,
) -> BatchEvaluation:
    """Evaluate period and latency of many mappings in one vectorized pass.

    Exact counterpart of calling :func:`evaluate` on every mapping (same
    floating-point operations per interval, so results agree to the last few
    ulps), but the per-interval arithmetic runs on flat arrays covering the
    whole batch.  Works for communication-homogeneous *and* fully
    heterogeneous platforms.

    The elementwise per-interval terms dispatch through
    :func:`repro.core.kernels.batch_terms` (the compiled engine for large
    batches, numpy otherwise), while the final ``reduceat`` reductions
    **always** run in numpy: the compiled engine is validated to reproduce
    the terms bit for bit, so periods and latencies are bit-identical
    whichever kernel served the terms — the exact-arithmetic contract the
    local search and the solve cache rely on.

    Parameters
    ----------
    app / platform:
        The instance shared by every mapping of the batch.
    mappings:
        The batch; an empty batch yields empty arrays.
    validate:
        Check every mapping against the instance first (as the scalar path
        does).  Callers that build structurally valid mappings can disable
        it.
    """
    if validate:
        for mapping in mappings:
            mapping.validate(app, platform)
    if not mappings:
        return BatchEvaluation(
            periods=np.empty(0, dtype=float), latencies=np.empty(0, dtype=float)
        )
    periods, latencies = evaluate_packed(app, platform, *_pack_mappings(mappings))
    return BatchEvaluation(periods=periods, latencies=latencies)


def evaluate_packed(
    app: PipelineApplication,
    platform: Platform,
    starts: np.ndarray,
    ends: np.ndarray,
    procs: np.ndarray,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Periods and latencies of a packed batch of mappings.

    The packed form is the one :func:`evaluate_batch` builds: flat interval
    ``starts`` / ``ends`` / ``procs`` arrays, and ``offsets`` with one entry
    per mapping plus a final sentinel.  No validation is done, so callers
    that enumerate structurally valid mappings (the brute-force solvers)
    evaluate them without building a mapping object each.
    """
    firsts = offsets[:-1]
    lasts = offsets[1:] - 1

    homogeneous = platform.is_communication_homogeneous
    cycle, contribution, output_time = kernels.batch_terms(
        app.comm_sizes,
        app.work_prefix,
        platform.speeds,
        starts,
        ends,
        procs,
        offsets,
        app.n_stages,
        homogeneous,
        platform.uniform_bandwidth if homogeneous else 0.0,
        platform.input_bandwidth,
        platform.output_bandwidth,
        None if homogeneous else platform.bandwidth_matrix(),
    )

    # The reductions stay in numpy whichever kernel served the terms:
    # reduceat's accumulation order is not sequential, and reproducing it
    # elsewhere would break the bit-identity contract between the kernels.
    periods = np.maximum.reduceat(cycle, firsts)
    latencies = np.add.reduceat(contribution, firsts) + output_time[lasts]
    return np.asarray(periods, dtype=float), np.asarray(latencies, dtype=float)


def period_batch(
    app: PipelineApplication,
    platform: Platform,
    mappings: Sequence[IntervalMapping],
    *,
    validate: bool = True,
) -> np.ndarray:
    """Periods of a batch of mappings (eq. 1), vectorized."""
    return evaluate_batch(app, platform, mappings, validate=validate).periods


def latency_batch(
    app: PipelineApplication,
    platform: Platform,
    mappings: Sequence[IntervalMapping],
    *,
    validate: bool = True,
) -> np.ndarray:
    """Latencies of a batch of mappings (eq. 2), vectorized."""
    return evaluate_batch(app, platform, mappings, validate=validate).latencies


def latency_of_intervals(
    app: PipelineApplication,
    platform: Platform,
    intervals: Sequence[Interval],
    processors: Sequence[int],
) -> float:
    """Latency of a (possibly partial) chain of intervals without validation.

    Used by the heuristics when scoring candidate splits: the candidate is not
    a fully-formed :class:`IntervalMapping` yet, but eq. (2) only needs the
    interval boundaries and the assigned processors.
    """
    if len(intervals) != len(processors) or not intervals:
        raise InvalidMappingError("intervals and processors must align and be non-empty")
    total = 0.0
    for j, (iv, proc) in enumerate(zip(intervals, processors)):
        predecessor = processors[j - 1] if j > 0 else None
        cost = _interval_cost(app, platform, iv, proc, predecessor, None)
        total += cost.input_time + cost.compute_time
    last = intervals[-1]
    last_cost = _interval_cost(
        app, platform, last, processors[-1], None, None
    )
    return total + last_cost.output_time


# --------------------------------------------------------------------------- #
# bounds and trivial optima
# --------------------------------------------------------------------------- #
def optimal_latency(app: PipelineApplication, platform: Platform) -> float:
    """Minimum achievable latency (Lemma 1).

    The optimum maps the whole pipeline onto the fastest processor; its latency
    is ``delta_0 / b_in + (sum_i w_i) / s_max + delta_n / b_out``.
    """
    return latency(
        app, platform, IntervalMapping.single_processor(app.n_stages, platform.fastest_processor)
    )


def optimal_latency_mapping(
    app: PipelineApplication, platform: Platform
) -> IntervalMapping:
    """The latency-optimal mapping of Lemma 1 (whole chain on the fastest CPU)."""
    return IntervalMapping.single_processor(app.n_stages, platform.fastest_processor)


def period_lower_bound(app: PipelineApplication, platform: Platform) -> float:
    """A simple lower bound on the achievable period.

    Three bounds are combined:

    * every stage must be computed somewhere, so the heaviest stage on the
      fastest processor bounds the period from below;
    * the first interval must read ``delta_0`` and the last must write
      ``delta_n``;
    * with ``p`` processors of aggregate speed ``S`` the total work per period
      cannot exceed ``T * S``, hence ``T >= W / S``.
    """
    heaviest_stage = float(app.works.max()) / platform.max_speed
    io_bound = max(
        app.comm(0) / platform.input_bandwidth,
        app.comm(app.n_stages) / platform.output_bandwidth,
    )
    aggregate = app.total_work / platform.total_speed
    return max(heaviest_stage, io_bound, aggregate)
