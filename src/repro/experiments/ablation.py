"""Ablation studies on the design choices called out in DESIGN.md.

Three knobs of the Section 4 heuristics are isolated and measured on a shared
instance stream:

1. **selection rule** — mono-criterion (``max`` of the new cycle times)
   versus bi-criteria (``Δlatency/Δperiod`` ratio) inside the same 2-way
   splitting loop;
2. **exploration width** — 2-way splitting (``Sp``) versus 3-way exploration
   (``3-Explo``) under the same selection rule;
3. **processor order** — consuming processors by non-increasing speed (the
   paper's choice) versus increasing speed or a random order.

Each ablation reports, per variant, the average best-reachable period and the
average latency paid for it, i.e. the two ends of the trade-off the paper
plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..generators.experiments import ExperimentConfig, Instance, generate_instances
from ..heuristics.base import HeuristicResult
from ..heuristics.engine import SelectionRule, TrajectoryNode, trajectory
from ..heuristics.splitting import FixedPeriodWalk
from ..solvers.registry import get_solver
from ..utils.rng import ensure_rng
from ..workloads.engine import execute_plan
from ..workloads.plan import solve_plan

__all__ = [
    "AblationRow",
    "selection_rule_ablation",
    "exploration_width_ablation",
    "processor_order_ablation",
]

#: period bound that no heuristic can reach: forces splitting to exhaustion
_UNREACHABLE = 1e-9


@dataclass(frozen=True)
class AblationRow:
    """Average outcome of one heuristic variant on the shared instance stream."""

    variant: str
    mean_best_period: float
    mean_latency_at_best: float
    mean_splits: float

    def as_tuple(self) -> tuple[str, float, float, float]:
        return (
            self.variant,
            self.mean_best_period,
            self.mean_latency_at_best,
            self.mean_splits,
        )


class _RatioSplittingPeriod(FixedPeriodWalk):
    """2-way splitting with the bi-criteria rule and no latency cap.

    This is the inner loop of ``Sp bi P`` without the binary search: it
    isolates the effect of the selection rule from the effect of the latency
    budget.
    """

    name: ClassVar[str] = "Sp ratio P (ablation)"
    key: ClassVar[str] = "A-ratio"
    rule: ClassVar[str] = SelectionRule.RATIO


class _OrderedSplittingMonoPeriod(FixedPeriodWalk):
    """H1 with a configurable processor consumption order (ablation only)."""

    name: ClassVar[str] = "Sp mono P (ordered)"
    key: ClassVar[str] = "A-order"

    def __init__(self, order_strategy: str = "descending", seed: int | None = 0) -> None:
        self.order_strategy = order_strategy
        self.seed = seed

    def _processor_order(self, platform) -> list[int]:
        if self.order_strategy == "descending":
            return platform.processors_by_speed(descending=True)
        if self.order_strategy == "ascending":
            return platform.processors_by_speed(descending=False)
        if self.order_strategy == "random":
            rng = ensure_rng(self.seed)
            order = list(range(platform.n_processors))
            rng.shuffle(order)
            return order
        raise ValueError(f"unknown order strategy {self.order_strategy!r}")

    def _root(self, app, platform) -> TrajectoryNode:
        order = tuple(self._processor_order(platform))
        return trajectory(app, platform, self.rule, self.width, order)


def _summarise(variant: str, results: Sequence[HeuristicResult]) -> AblationRow:
    periods = np.array([r.period for r in results], dtype=float)
    latencies = np.array([r.latency for r in results], dtype=float)
    splits = np.array([r.n_splits for r in results], dtype=float)
    return AblationRow(
        variant=variant,
        mean_best_period=float(periods.mean()),
        mean_latency_at_best=float(latencies.mean()),
        mean_splits=float(splits.mean()),
    )


def _run_variant(
    heuristic,
    instances: Sequence[Instance],
    workers: int | None = None,
    batch_size: int | None = None,
) -> list:
    """Push one variant to exhaustion over the stream, via the engine.

    One single-cell workload plan with the unreachable period bound: the
    shared engine wraps the ad-hoc variant (which pickles by value), ships
    the cells to the pool and maps the results back in instance order.
    """
    plan, (cell,) = solve_plan(instances, [(heuristic, _UNREACHABLE)])
    run = execute_plan(plan, workers=workers, batch_size=batch_size)
    return [
        run.results[cell.tasks[digest].digest]
        for digest in plan.input_hashes
    ]


def selection_rule_ablation(
    config: ExperimentConfig,
    seed: int | None = 0,
    instances: Sequence[Instance] | None = None,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> list[AblationRow]:
    """Mono-criterion versus bi-criteria selection in the 2-way splitting loop."""
    if instances is None:
        instances = generate_instances(config, seed=seed)
    return [
        _summarise(
            "2-way / mono rule (H1)",
            _run_variant(get_solver("H1"), instances, workers, batch_size),
        ),
        _summarise(
            "2-way / ratio rule",
            _run_variant(_RatioSplittingPeriod(), instances, workers, batch_size),
        ),
    ]


def exploration_width_ablation(
    config: ExperimentConfig,
    seed: int | None = 0,
    instances: Sequence[Instance] | None = None,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> list[AblationRow]:
    """2-way splitting versus 3-way exploration under both selection rules."""
    if instances is None:
        instances = generate_instances(config, seed=seed)
    return [
        _summarise(
            "2-way / mono (H1)",
            _run_variant(get_solver("H1"), instances, workers, batch_size),
        ),
        _summarise(
            "3-way / mono (H2)",
            _run_variant(get_solver("H2"), instances, workers, batch_size),
        ),
        _summarise(
            "2-way / ratio",
            _run_variant(_RatioSplittingPeriod(), instances, workers, batch_size),
        ),
        _summarise(
            "3-way / ratio (H3)",
            _run_variant(get_solver("H3"), instances, workers, batch_size),
        ),
    ]


def processor_order_ablation(
    config: ExperimentConfig,
    seed: int | None = 0,
    instances: Sequence[Instance] | None = None,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> list[AblationRow]:
    """Effect of the processor consumption order on the splitting heuristic."""
    if instances is None:
        instances = generate_instances(config, seed=seed)
    rows = []
    for strategy in ("descending", "ascending", "random"):
        heuristic = _OrderedSplittingMonoPeriod(order_strategy=strategy, seed=seed)
        rows.append(
            _summarise(
                f"speed order: {strategy}",
                _run_variant(heuristic, instances, workers, batch_size),
            )
        )
    return rows
