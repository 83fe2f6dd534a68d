"""Low-level experiment runner: apply solvers to instance streams.

The runner turns an instance stream (from :mod:`repro.generators`) and a list
of solvers into per-instance result records and aggregated statistics.  The
higher-level sweep (Figures 2–7) and failure-threshold (Table 1) drivers are
built on top of it.

Since the workload refactor the runner is a thin adapter over the
declarative workload engine (:mod:`repro.workloads`): it builds a one-cell
plan from the instance stream and executes it through
:func:`repro.workloads.engine.execute_plan`, which in turn dispatches the
tasks through the batch solve service
(:func:`repro.solvers.service.solve_many`).  Anything with the
heuristic-style ``run(app, platform, period_bound=..., latency_bound=...)``
entry point — a plain :class:`~repro.heuristics.base.PipelineHeuristic`, a
registry :class:`~repro.solvers.registry.Solver` handle, or a registry
*name* — can be run over an instance stream, so exact solvers and
extensions plug into the same drivers as the six heuristics.  The engine
dedupes numerically identical instances up front and, when a
:class:`~repro.cache.store.SolveCache` is passed via ``cache=``, serves
previously solved cells from the cache instead of re-solving them.

Every driver takes ``workers=`` / ``batch_size=`` knobs: instances are
independent, so the cache-missing runs are dispatched to a process pool in
contiguous chunks (see :mod:`repro.utils.parallel`) and re-assembled in
instance order — every *solution* field of a parallel (or warm-cache) run
(mapping, period, latency, feasibility, trace) is byte-identical to the
serial cold run; the only exceptions are the ``wall_time`` / ``cache_hit``
run-provenance stamps of :class:`~repro.solvers.base.SolveResult`.
(Registry solver handles pickle by name, ad-hoc heuristic instances by
value, caches by configuration.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from ..core.costs import interval_cycle_time, optimal_latency
from ..core.mapping import Interval
from ..generators.experiments import Instance
from ..heuristics.base import PipelineHeuristic
from ..solvers.base import SolveResult
from ..solvers.registry import Solver, as_solver
from ..utils.parallel import parallel_map
from ..workloads.engine import execute_plan
from ..workloads.plan import solve_plan

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..cache.store import SolveCache

__all__ = [
    "InstanceRun",
    "AggregateStats",
    "AnySolver",
    "run_heuristic",
    "run_solver",
    "aggregate_runs",
    "reference_period_range",
    "reference_latency_range",
    "reference_ranges",
]

#: anything the runner can execute over an instance stream
AnySolver = Union[PipelineHeuristic, Solver]


@dataclass(frozen=True)
class InstanceRun:
    """Result of one heuristic on one instance at one threshold."""

    instance_index: int
    heuristic: str
    threshold: float
    result: SolveResult

    @property
    def feasible(self) -> bool:
        return self.result.feasible


@dataclass(frozen=True)
class AggregateStats:
    """Aggregate of a heuristic over an instance stream at one threshold."""

    heuristic: str
    threshold: float
    n_instances: int
    n_feasible: int
    mean_period: float
    mean_latency: float

    @property
    def feasible_fraction(self) -> float:
        return self.n_feasible / self.n_instances if self.n_instances else 0.0

    @property
    def point(self) -> tuple[float, float]:
        """Mean (period, latency) over the feasible instances."""
        return (self.mean_period, self.mean_latency)


def run_heuristic(
    heuristic: AnySolver,
    instances: Sequence[Instance],
    threshold: float,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
) -> list[InstanceRun]:
    """Run one solver on every instance with the given threshold.

    The threshold is interpreted according to the solver's objective: period
    bound for the fixed-period (and unconstrained min-latency) family,
    latency bound otherwise.  For the unconstrained objectives it is
    forwarded as the opposite-criterion bound — brute force honours it,
    while the solvers that cannot (homogeneous min-period DP, one-to-one)
    raise ``ConfigurationError`` unless it is ``None``.

    Executed as a one-cell workload plan through the shared engine
    (:func:`repro.workloads.engine.execute_plan`, which dispatches through
    :func:`repro.solvers.service.solve_many`): repeated instances are
    solved once, a ``cache`` serves previously solved cells, and with
    ``workers > 1`` the remaining runs are chunked across a process pool;
    results come back in instance order regardless.
    """
    plan, (cell,) = solve_plan(instances, [(heuristic, threshold)])
    run = execute_plan(
        plan, workers=workers, batch_size=batch_size, cache=cache
    )
    return [
        InstanceRun(
            instance_index=instance.index,
            heuristic=cell.solver,
            threshold=threshold,
            result=run.results[cell.tasks[digest].digest],
        )
        for instance, digest in zip(instances, plan.input_hashes)
    ]


def run_solver(
    solver: AnySolver | str,
    instances: Sequence[Instance],
    threshold: float | None = None,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
) -> list[InstanceRun]:
    """Run any registered solver (by name or handle) over an instance stream.

    The registry-name twin of :func:`run_heuristic`:
    ``run_solver("hom-dp-period", instances)`` dispatches the homogeneous DP
    exactly like ``run_solver("H1", instances, threshold)`` dispatches a
    heuristic — same pool, same chunking, same deterministic re-assembly.
    Leave ``threshold`` at ``None`` for the unconstrained exact solvers
    (only brute force accepts an opposite-criterion bound).
    """
    return run_heuristic(
        as_solver(solver) if not isinstance(solver, PipelineHeuristic) else solver,
        instances,
        threshold,
        workers=workers,
        batch_size=batch_size,
        cache=cache,
    )


def aggregate_runs(runs: Sequence[InstanceRun]) -> AggregateStats:
    """Average the feasible runs of one heuristic at one threshold."""
    if not runs:
        raise ValueError("cannot aggregate an empty run list")
    heuristic = runs[0].heuristic
    threshold = runs[0].threshold
    feasible = [r for r in runs if r.feasible]
    periods = np.array([r.result.period for r in feasible], dtype=float)
    latencies = np.array([r.result.latency for r in feasible], dtype=float)
    return AggregateStats(
        heuristic=heuristic,
        threshold=threshold,
        n_instances=len(runs),
        n_feasible=len(feasible),
        mean_period=float(periods.mean()) if feasible else float("nan"),
        mean_latency=float(latencies.mean()) if feasible else float("nan"),
    )


def _reference_point(instance: Instance) -> tuple[float, float, float, float]:
    """Per-instance anchors of the threshold grids (pool-picklable).

    Returns ``(best_period, single_proc_period, optimal_latency,
    latency_at_best_period)`` where "best" refers to unconstrained
    mono-criterion splitting (H1 pushed to exhaustion).
    """
    # import here to avoid a circular import at module load time
    from ..heuristics.splitting import SplittingMonoPeriod

    app, platform = instance.application, instance.platform
    whole = Interval(0, app.n_stages - 1)
    single = interval_cycle_time(app, platform, whole, platform.fastest_processor)
    best = SplittingMonoPeriod().run(app, platform, period_bound=1e-9)
    return best.period, single, optimal_latency(app, platform), best.latency


def reference_period_range(
    instances: Sequence[Instance],
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> tuple[float, float]:
    """Period range covered by the threshold sweep of an instance stream.

    The upper end is the mean single-fastest-processor period (always
    achievable); the lower end is the mean period reached by unconstrained
    mono-criterion splitting (what the simplest heuristic can hope for).
    """
    return reference_ranges(instances, workers=workers, batch_size=batch_size)[0]


def reference_latency_range(
    instances: Sequence[Instance],
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> tuple[float, float]:
    """Latency range covered by the threshold sweep of an instance stream.

    The lower end is the mean optimal latency (Lemma 1); the upper end the
    mean latency reached by unconstrained mono-criterion splitting (i.e. the
    latency price of chasing the best period).
    """
    return reference_ranges(instances, workers=workers, batch_size=batch_size)[1]


def reference_ranges(
    instances: Sequence[Instance],
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Both threshold ranges, ``((period_lo, period_hi), (latency_lo, latency_hi))``.

    :func:`reference_period_range` and :func:`reference_latency_range` are
    its two halves; calling this once runs the shared per-instance anchors
    (one exhaustive H1 run each) only once.
    """
    points = parallel_map(
        _reference_point, instances, workers=workers, batch_size=batch_size
    )
    period_lo = float(np.mean([p[0] for p in points]))
    period_hi = float(np.mean([p[1] for p in points]))
    latency_lo = float(np.mean([p[2] for p in points]))
    latency_hi = float(np.mean([p[3] for p in points]))
    if latency_hi <= latency_lo:
        latency_hi = latency_lo * 1.5 + 1e-9
    return (period_lo, period_hi), (latency_lo, latency_hi)
