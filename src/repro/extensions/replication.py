"""Stage replication with *deal* skeletons (Section 7, future work).

The paper's conclusion proposes nesting a deal (round-robin farm) skeleton
inside a bottleneck interval: several processors share the interval's data
sets, each processing every ``r``-th data set entirely.  Under that policy:

* every replica still executes the whole interval for the data sets it
  receives, so the latency of a data set is governed by the replica that
  processed it — the worst case being the slowest replica;
* each replica only has to complete one cycle every ``r`` periods, so the
  interval's contribution to the period becomes
  ``(input + work / s_min + output) / r`` where ``s_min`` is the slowest
  replica's speed (the round-robin dealing is oblivious, so the slowest
  replica is the constraint).

This module provides the replicated-mapping container, the corresponding cost
model, and a greedy heuristic that replicates the bottleneck interval of an
interval mapping while unused processors remain and the period improves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.application import PipelineApplication
from ..core.exceptions import InvalidMappingError
from ..core.mapping import Interval, IntervalMapping
from ..core.platform import Platform
from ..heuristics.base import reached

__all__ = [
    "ReplicatedInterval",
    "ReplicatedMapping",
    "ReplicatedEvaluation",
    "evaluate_replicated",
    "from_interval_mapping",
    "greedy_replication",
]


@dataclass(frozen=True)
class ReplicatedInterval:
    """An interval together with the processors that share it round-robin."""

    interval: Interval
    processors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.processors:
            raise InvalidMappingError("a replicated interval needs >= 1 processor")
        if len(set(self.processors)) != len(self.processors):
            raise InvalidMappingError("replica processors must be distinct")

    @property
    def replication_factor(self) -> int:
        return len(self.processors)


@dataclass(frozen=True)
class ReplicatedMapping:
    """An interval mapping in which intervals may be replicated (deal skeleton)."""

    assignments: tuple[ReplicatedInterval, ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise InvalidMappingError("a mapping needs at least one interval")
        expected = 0
        seen: set[int] = set()
        for item in self.assignments:
            if item.interval.start != expected:
                raise InvalidMappingError("intervals must be consecutive from stage 0")
            expected = item.interval.end + 1
            overlap = seen.intersection(item.processors)
            if overlap:
                raise InvalidMappingError(
                    f"processors {sorted(overlap)} are used by several intervals"
                )
            seen.update(item.processors)

    @property
    def n_stages(self) -> int:
        return self.assignments[-1].interval.end + 1

    @property
    def used_processors(self) -> frozenset[int]:
        return frozenset(u for item in self.assignments for u in item.processors)

    @property
    def n_intervals(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class ReplicatedEvaluation:
    """Period / latency of a replicated mapping under the deal-skeleton model."""

    period: float
    latency: float
    interval_periods: tuple[float, ...]
    interval_latencies: tuple[float, ...]


def from_interval_mapping(mapping: IntervalMapping) -> ReplicatedMapping:
    """Lift a plain interval mapping into a (degenerate) replicated mapping."""
    return ReplicatedMapping(
        tuple(
            ReplicatedInterval(interval=iv, processors=(proc,))
            for iv, proc in mapping.items()
        )
    )


def evaluate_replicated(
    app: PipelineApplication, platform: Platform, mapping: ReplicatedMapping
) -> ReplicatedEvaluation:
    """Period and latency of a replicated mapping.

    Communication-homogeneous platforms are assumed (the link bandwidth is the
    same whichever replica sends or receives).
    """
    if mapping.n_stages != app.n_stages:
        raise InvalidMappingError(
            f"mapping covers {mapping.n_stages} stages, application has {app.n_stages}"
        )
    for u in mapping.used_processors:
        if u >= platform.n_processors:
            raise InvalidMappingError(f"processor {u} not present on the platform")
    b = platform.uniform_bandwidth
    b_in, b_out = platform.input_bandwidth, platform.output_bandwidth
    n = app.n_stages

    interval_periods: list[float] = []
    interval_latencies: list[float] = []
    latency = 0.0  # eq. (2) added left to right, as core.costs.evaluate adds it
    for item in mapping.assignments:
        iv = item.interval
        in_bw = b_in if iv.start == 0 else b
        out_bw = b_out if iv.end == n - 1 else b
        input_time = app.comm(iv.start) / in_bw if app.comm(iv.start) else 0.0
        output_time = app.comm(iv.end + 1) / out_bw if app.comm(iv.end + 1) else 0.0
        slowest = min(platform.speed(u) for u in item.processors)
        work_time = app.work_sum(iv.start, iv.end) / slowest
        cycle = input_time + work_time + output_time
        interval_periods.append(cycle / item.replication_factor)
        interval_latencies.append(input_time + work_time)
        latency += interval_latencies[-1]

    final_out = app.comm(n) / b_out if app.comm(n) else 0.0
    return ReplicatedEvaluation(
        period=max(interval_periods),
        latency=latency + final_out,
        interval_periods=tuple(interval_periods),
        interval_latencies=tuple(interval_latencies),
    )


def greedy_replication(
    app: PipelineApplication,
    platform: Platform,
    base_mapping: IntervalMapping,
    period_bound: float | None = None,
    max_replicas: int | None = None,
) -> tuple[ReplicatedMapping, ReplicatedEvaluation]:
    """Replicate bottleneck intervals of a mapping with the unused processors.

    Starting from ``base_mapping`` (for example the output of ``Sp mono P``),
    the heuristic repeatedly adds the fastest unused processor as a replica of
    the interval currently bounding the period, as long as this strictly
    decreases the period (and, when given, until ``period_bound`` is
    reached).  ``max_replicas`` caps the replication factor of any interval.
    """
    base_mapping.validate(app, platform)
    assignments = [
        ReplicatedInterval(interval=iv, processors=(proc,))
        for iv, proc in base_mapping.items()
    ]
    unused = [
        u
        for u in platform.processors_by_speed(descending=True)
        if u not in base_mapping.used_processors
    ]
    current = ReplicatedMapping(tuple(assignments))
    evaluation = evaluate_replicated(app, platform, current)

    while unused:
        if period_bound is not None and reached(evaluation.period, period_bound):
            break
        bottleneck = int(
            max(
                range(len(assignments)),
                key=lambda j: evaluation.interval_periods[j],
            )
        )
        target = assignments[bottleneck]
        if max_replicas is not None and target.replication_factor >= max_replicas:
            break
        candidate_proc = unused[0]
        new_assignment = ReplicatedInterval(
            interval=target.interval,
            processors=target.processors + (candidate_proc,),
        )
        trial_assignments = list(assignments)
        trial_assignments[bottleneck] = new_assignment
        trial_mapping = ReplicatedMapping(tuple(trial_assignments))
        trial_eval = evaluate_replicated(app, platform, trial_mapping)
        if trial_eval.period >= evaluation.period - 1e-12:
            break
        assignments = trial_assignments
        current, evaluation = trial_mapping, trial_eval
        unused.pop(0)
    return current, evaluation
