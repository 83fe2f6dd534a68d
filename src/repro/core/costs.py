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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .application import PipelineApplication
from .mapping import Interval, IntervalMapping
from .pareto import dominates
from .platform import Platform

__all__ = [
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
    "optimal_latency",
    "optimal_latency_mapping",
    "period_lower_bound",
]


@dataclass(frozen=True)
class MappingEvaluation:
    """Aggregate evaluation of a mapping under the analytical model."""

    period: float
    latency: float

    def dominates(self, other: "MappingEvaluation", tol: float = 1e-12) -> bool:
        """Pareto dominance (:func:`repro.core.pareto.dominates`)."""
        return dominates((self.period, self.latency), (other.period, other.latency), tol)


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
    return _terms_of(app, platform, interval, processor, predecessor, successor)[0]


def _interval_terms(
    delta_in: float,
    delta_out: float,
    work: float,
    speed: float,
    b_in: float,
    b_out: float,
) -> tuple[float, float, float]:
    """``(cycle time, latency contribution, output time)`` of one interval.

    ``work`` is the interval's work sum ``prefix[e + 1] - prefix[d]``, and
    ``delta_in`` / ``delta_out`` cross links of bandwidth ``b_in`` /
    ``b_out``.  The one place the package computes these per-interval
    terms on scalars: :func:`evaluate` and the helpers below, and the
    incremental scoring of
    :class:`~repro.extensions.heterogeneous_links.HeterogeneousSplittingPeriod`,
    all call it, so their floats agree bit for bit.
    """
    input_time = 0.0 if delta_in == 0 else delta_in / b_in
    output_time = 0.0 if delta_out == 0 else delta_out / b_out
    contribution = input_time + work / speed
    return contribution + output_time, contribution, output_time


def _terms_of(
    app: PipelineApplication,
    platform: Platform,
    interval: Interval,
    processor: int,
    predecessor: int | None,
    successor: int | None,
) -> tuple[float, float, float]:
    """:func:`_interval_terms` of ``interval`` on ``processor`` between its neighbours."""
    return _interval_terms(
        app.comm(interval.start),
        app.comm(interval.end + 1),
        app.work_sum(interval.start, interval.end),
        platform.speed(processor),
        _input_bandwidth(platform, processor, predecessor),
        _output_bandwidth(platform, processor, successor),
    )


def _mapping_terms(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> list[tuple[float, float, float]]:
    """:func:`_interval_terms` of every interval of ``mapping``, validated first."""
    mapping.validate(app, platform)
    procs = mapping.processors
    last = len(procs) - 1
    return [
        _terms_of(
            app, platform, interval, proc,
            procs[j - 1] if j > 0 else None,
            procs[j + 1] if j < last else None,
        )
        for j, (interval, proc) in enumerate(zip(mapping.intervals, procs))
    ]


# --------------------------------------------------------------------------- #
# aggregate metrics
# --------------------------------------------------------------------------- #
def period(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> float:
    """Period of the mapping, eq. (1): the largest interval cycle time."""
    return max(cycle for cycle, _, _ in _mapping_terms(app, platform, mapping))


def latency(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> float:
    """Latency of the mapping, eq. (2).

    Sum over intervals of (input communication + computation), plus the final
    output communication ``delta_n / b``.
    """
    return _latency_sum(_mapping_terms(app, platform, mapping))


def evaluate(
    app: PipelineApplication, platform: Platform, mapping: IntervalMapping
) -> MappingEvaluation:
    """Evaluate period and latency in a single pass."""
    terms = _mapping_terms(app, platform, mapping)
    return MappingEvaluation(
        period=max(cycle for cycle, _, _ in terms), latency=_latency_sum(terms)
    )


def _latency_sum(terms: Sequence[tuple[float, float, float]]) -> float:
    """Eq. (2) added left to right, then the last output.

    Every evaluator of the package (:func:`evaluate_packed`, the local
    search's :class:`~repro.solvers.moves.MappingState`, X1's incremental
    scoring) adds in this order, so their latencies equal this one bit for
    bit.  Not ``sum()``: from Python 3.12 it compensates float rounding,
    which changes the last bits.
    """
    total = 0.0
    for _, contribution, _ in terms:
        total += contribution
    return total + terms[-1][2]


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
    too.  Always numpy: the splitting engine calls it once per instance,
    over the ``n_stages`` single-stage intervals, to build its boundary
    tables (a part's input time depends only on its first stage, its
    output time only on its last), and once for the initial mapping's
    interval; batches that small never pay for a compiled loop's
    marshalling.
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

    Exact counterpart of calling :func:`evaluate` on every mapping: the same
    floating-point operations per interval and the same left-to-right
    latency sum, so periods and latencies equal the scalar ones bit for bit.
    The arithmetic runs on flat arrays covering the whole batch.  Works for
    communication-homogeneous *and* fully heterogeneous platforms.

    The elementwise per-interval terms dispatch through
    :func:`repro.core.kernels.batch_terms` (the compiled engine for large
    batches, numpy otherwise), while the reductions **always** run in
    numpy: the compiled engine is validated to reproduce the terms bit for
    bit, so the results do not depend on which kernel served the terms.

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

    periods = np.maximum.reduceat(cycle, firsts)
    # eq. (2) left to right, as the scalar evaluate adds it: position k of
    # every mapping with more than k intervals joins in the k-th step
    counts = offsets[1:] - firsts
    latencies = contribution[firsts]
    for k in range(1, int(counts.max())):
        np.add(
            latencies, contribution[np.minimum(firsts + k, lasts)],
            out=latencies, where=counts > k,
        )
    latencies += output_time[lasts]
    return np.asarray(periods, dtype=float), latencies


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
