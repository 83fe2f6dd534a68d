"""Threshold sweeps reproducing the latency-versus-period figures (Figs. 2–7).

Each figure of the paper plots, for one experiment family, stage count and
processor count, the average latency against the average period of the six
heuristics as the prescribed threshold varies.  :func:`run_sweep` reproduces
that protocol:

1. generate the instance stream of the experimental point (Section 5.1);
2. build a common threshold grid — period thresholds for the fixed-period
   heuristics, latency thresholds for the fixed-latency ones — spanning the
   achievable range of the instance stream;
3. run every heuristic on every instance at every threshold and average the
   achieved ``(period, latency)`` over the instances where the heuristic
   found a feasible mapping.

The result is a set of named curves directly comparable (in shape) to the
paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError
from ..generators.experiments import ExperimentConfig, Instance, generate_instances
from ..heuristics.base import Objective, PipelineHeuristic
from ..solvers.registry import as_solver, resolve_solvers
from ..workloads.engine import execute_plan
from ..workloads.plan import solve_plan
from .runner import (
    AggregateStats,
    AnySolver,
    InstanceRun,
    aggregate_runs,
    reference_ranges,
)

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..cache.store import SolveCache

__all__ = [
    "SweepPoint",
    "HeuristicCurve",
    "SweepResult",
    "run_sweep",
    "sweep_results_equal",
]


@dataclass(frozen=True)
class SweepPoint:
    """One averaged point of a heuristic curve."""

    threshold: float
    n_feasible: int
    n_instances: int
    mean_period: float
    mean_latency: float

    @property
    def point(self) -> tuple[float, float]:
        return (self.mean_period, self.mean_latency)


@dataclass
class HeuristicCurve:
    """The averaged latency-versus-period curve of one heuristic."""

    heuristic: str
    key: str
    objective: str
    points: list[SweepPoint] = field(default_factory=list)

    def as_series(self) -> list[tuple[float, float]]:
        """(period, latency) pairs of the points with at least one feasible run."""
        return [p.point for p in self.points if p.n_feasible > 0]

    @property
    def best_period(self) -> float:
        series = self.as_series()
        return min((p for p, _ in series), default=float("nan"))

    @property
    def best_latency(self) -> float:
        series = self.as_series()
        return min((l for _, l in series), default=float("nan"))


@dataclass
class SweepResult:
    """All heuristic curves of one experimental point."""

    config: ExperimentConfig
    period_thresholds: list[float]
    latency_thresholds: list[float]
    curves: dict[str, HeuristicCurve] = field(default_factory=dict)

    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Curve name -> (period, latency) series, for the text reports."""
        return {name: curve.as_series() for name, curve in self.curves.items()}


def _floats_identical(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def sweep_results_equal(a: SweepResult, b: SweepResult) -> bool:
    """Exact (bit-level) equality of two sweep results, treating NaN == NaN.

    The determinism contract of the parallel engine: a sweep run with any
    ``workers``/``batch_size`` must compare equal — not approximately, but on
    every threshold, count and averaged float — to the serial run.  NaN means
    (all-infeasible cells) are considered equal, which plain ``==`` on the
    dataclasses would reject.
    """
    if (
        a.period_thresholds != b.period_thresholds
        or a.latency_thresholds != b.latency_thresholds
        or set(a.curves) != set(b.curves)
    ):
        return False
    for name, curve_a in a.curves.items():
        curve_b = b.curves[name]
        if len(curve_a.points) != len(curve_b.points):
            return False
        for pa, pb in zip(curve_a.points, curve_b.points):
            if (pa.n_feasible, pa.n_instances) != (pb.n_feasible, pb.n_instances):
                return False
            if not (
                _floats_identical(pa.threshold, pb.threshold)
                and _floats_identical(pa.mean_period, pb.mean_period)
                and _floats_identical(pa.mean_latency, pb.mean_latency)
            ):
                return False
    return True


def _threshold_grid(lo: float, hi: float, n_points: int) -> list[float]:
    """``n_points`` thresholds spanning ``[lo, hi]``, duplicates removed.

    A degenerate range (``hi <= lo``, e.g. every instance achieving the
    same optimum) is widened before gridding, but ``linspace`` can still
    emit colliding grid points (``lo == hi == 0``, or steps below float
    resolution); those collapse to one threshold each — order preserved —
    so downstream plans never carry duplicate (solver, threshold) cells.
    """
    if hi <= lo:
        hi = lo * 1.1 + 1e-9
    return list(
        dict.fromkeys(float(x) for x in np.linspace(lo, hi, n_points))
    )


def run_sweep(
    config: ExperimentConfig,
    heuristics: Sequence[AnySolver] | Sequence[str] | None = None,
    n_thresholds: int = 10,
    seed: int | None = 0,
    instances: Sequence[Instance] | None = None,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
    frontier: bool = True,
) -> SweepResult:
    """Reproduce one latency-versus-period figure panel (Figs. 2–7).

    Parameters
    ----------
    config:
        The experimental point (family, stage count, processor count,
        instance count).
    heuristics:
        Solvers to sweep: heuristic instances, registry solver handles or
        registry *names* (any registered solver with a bounded objective,
        e.g. ``"hom-dp-latency-for-period"``); defaults to the six
        heuristics of the paper, resolved through the unified registry.
    n_thresholds:
        Number of threshold values per family (grid resolution of the curve).
    seed:
        Seed of the instance stream (ignored when ``instances`` is given).
    instances:
        Pre-generated instances, to share a stream across several sweeps
        (e.g. the ablation study).
    workers / batch_size:
        Process count and chunk size of the parallel engine.  The sweep is
        one workload plan — instances × (heuristic, threshold) cells —
        executed by the shared engine, which parallelises the cache-missing
        tasks of each cell over the pool and aggregates the cells in a
        fixed order, so results are byte-identical for any ``workers``
        value.
    cache:
        Optional :class:`~repro.cache.store.SolveCache` memoising the
        per-cell solver runs (results are byte-identical with or without
        it).  The engine probes the cache in the parent process — its
        statistics now count every sweep lookup — and with ``workers > 1``
        only the misses are shipped to the pool.
    frontier:
        Frontier routing (:mod:`repro.solvers.frontier`): a sweep asks each
        frontier-capable solver the same question at every grid threshold,
        so the engine collapses those cells to one frontier solve per
        (instance, solver) and extracts the per-threshold results — curves
        stay bit-identical (``sweep_results_equal``), the wall clock drops
        by roughly the grid size.  ``False`` forces per-threshold solves.
    """
    if instances is None:
        instances = generate_instances(config, seed=seed)
    resolved: list[AnySolver]
    if heuristics is None:
        resolved = resolve_solvers("heuristics")
    else:
        resolved = [
            h if isinstance(h, PipelineHeuristic) else as_solver(h)
            for h in heuristics
        ]
    bounded = (Objective.MIN_LATENCY_FOR_PERIOD, Objective.MIN_PERIOD_FOR_LATENCY)
    for solver in resolved:
        if solver.objective not in bounded:
            raise ConfigurationError(
                f"run_sweep sweeps a threshold, so {solver.name!r} "
                f"(objective {solver.objective!r}) cannot be swept; use a "
                "bounded-objective solver (e.g. its -for-period/-for-latency "
                "variant)"
            )

    (period_lo, period_hi), (latency_lo, latency_hi) = reference_ranges(
        instances, workers=workers, batch_size=batch_size
    )
    period_thresholds = _threshold_grid(period_lo, period_hi, n_thresholds)
    latency_thresholds = _threshold_grid(latency_lo, latency_hi, n_thresholds)

    result = SweepResult(
        config=config,
        period_thresholds=period_thresholds,
        latency_thresholds=latency_thresholds,
    )
    tasks: list[tuple[PipelineHeuristic, float]] = []
    for heuristic in resolved:
        if heuristic.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            thresholds = period_thresholds
        else:
            thresholds = latency_thresholds
        tasks.extend((heuristic, threshold) for threshold in thresholds)

    # one workload plan for the whole figure panel; the engine dedupes,
    # probes the cache and shards the remaining tasks over the pool
    plan, cells = solve_plan(instances, tasks)
    run = execute_plan(
        plan,
        workers=workers,
        batch_size=batch_size,
        cache=cache,
        frontier=frontier,
    )
    hashes = plan.input_hashes

    for (heuristic, threshold), cell in zip(tasks, cells):
        runs = [
            InstanceRun(
                instance_index=inst.index,
                heuristic=cell.solver,
                threshold=threshold,
                result=run.results[cell.tasks[digest].digest],
            )
            for inst, digest in zip(instances, hashes)
        ]
        curve = result.curves.get(heuristic.name)
        if curve is None:
            curve = HeuristicCurve(
                heuristic=heuristic.name,
                key=heuristic.key,
                objective=heuristic.objective,
            )
            result.curves[heuristic.name] = curve
        stats: AggregateStats = aggregate_runs(runs)
        curve.points.append(
            SweepPoint(
                threshold=threshold,
                n_feasible=stats.n_feasible,
                n_instances=stats.n_instances,
                mean_period=stats.mean_period,
                mean_latency=stats.mean_latency,
            )
        )
    return result
