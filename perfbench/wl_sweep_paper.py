"""Workload ``sweep-paper``: the paper's latency-versus-period panels.

One op is one panel: ``experiments.sweep.run_sweep`` over the six heuristics
H1-H6 with 10 thresholds, on an instance stream of one of the Fig. 2-7
points (E1-E4 at p=10 and p=100, n=40), with the library defaults
(``workers=1``, no cache, frontier routing on).

The eight panels form a campaign that is run in cycles, in an order drawn
from ``--seed``, until ``--seconds`` have passed and the cycle is complete.
Each op gets freshly generated (identical) instance objects, so nothing a
previous cycle memoised is reused.  Each op is timed between two reference
passes on the same CPU (``bench_common.Calibrated``), and a panel's time is
the median over the cycles of its calibrated time, which keeps the shared
host's changing speed out of the result.
The campaign's instances are fixed: on a shared 2-CPU VM the cost of the
eight panels at 5 instances each varied by about 17% between instance
streams, more than the bounds this benchmark has to hold.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any

from repro.experiments import sweep
from repro.generators.experiments import experiment_config, generate_instances
from repro.solvers.service import solve_many

from bench_common import (
    Calibrated, overhead_pct, percentile, probe_core, probe_heuristics, rng_for,
)

FAMILIES = ("E1", "E2", "E3", "E4")
PROCESSORS = (10, 100)
N_STAGES = 40
INSTANCES_PER_PANEL = 2
N_THRESHOLDS = 10
#: seed of the campaign's instance streams (``--seed`` orders the ops)
CAMPAIGN_SEED = 2007
#: sampled cells per op re-solved directly by the output check
CHECK_CELLS = 6


class Workload:
    def __init__(self, seed: int, seconds: float, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.panels = [(fam, p) for fam in FAMILIES for p in PROCESSORS]
        self.n_ops = 0
        #: per op: (curves complete, sampled cells as (pair, solver, task, result))
        self.samples: list[tuple[bool, list[tuple[Any, Any, Any, Any]]]] = []
        self._captured: list[tuple[Any, Any]] = []

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        self.configs = [
            experiment_config(fam, N_STAGES, p, n_instances=INSTANCES_PER_PANEL)
            for fam, p in self.panels
        ]
        # capture the engine's per-cell results for the output check; the
        # wrapper adds one Python call per panel and nothing per cell
        engine_execute = sweep.execute_plan

        def capture(plan, **kwargs):
            run = engine_execute(plan, **kwargs)
            self._captured.append((plan, run))
            return run

        sweep.execute_plan = capture
        self.cells = [0] * len(self.panels)
        for i in range(len(self.panels)):
            self._instances(i)
        # warm-up: one small panel loads every code path of the six curves
        warm = experiment_config("E1", 8, 10, n_instances=2)
        sweep.run_sweep(warm, n_thresholds=3, seed=rng_for(self.seed, 99_999))
        self._captured.clear()

    def _instances(self, i: int) -> list:
        """Fresh objects of panel ``i``'s instance stream."""
        return generate_instances(self.configs[i], seed=rng_for(CAMPAIGN_SEED, i))

    def _run_panel(self, i: int) -> float:
        instances = self._instances(i)
        start = time.perf_counter()
        result = sweep.run_sweep(
            self.configs[i], n_thresholds=N_THRESHOLDS, instances=instances
        )
        elapsed = time.perf_counter() - start
        self.cells[i] = sum(
            pt.n_instances for curve in result.curves.values() for pt in curve.points
        )
        self._sample(result)
        return elapsed

    def _sample(self, result) -> None:
        """Keep what the output check needs of the op just run, nothing more."""
        plan, run = self._captured.pop()
        complete = len(result.curves) == 6 and all(
            curve.points for curve in result.curves.values()
        )
        rng = rng_for(self.seed, 10_000 + self.n_ops)
        picks = rng.choice(len(plan.tasks), size=min(CHECK_CELLS, len(plan.tasks)), replace=False)
        cells = []
        for t in picks:
            task = plan.tasks[int(t)]
            cells.append(
                (plan.pair_for(task.instance_hash), plan.solvers[task.solver],
                 task, run.results[task.digest])
            )
        self.samples.append((complete, cells))
        self.n_ops += 1

    @property
    def attempted(self) -> int:
        return self.n_ops

    # ------------------------------------------------------------------ #
    def measure(self) -> dict[str, Any]:
        calib = Calibrated()
        # the sweep is single-threaded: pinning op n to CPU n mod k makes every
        # run spend equal time on each CPU, and keeps an op and the reference
        # passes around it on the same CPU
        cpus = sorted(os.sched_getaffinity(0))
        deadline = time.perf_counter() + self.seconds
        cycle = 0
        try:
            while cycle == 0 or time.perf_counter() < deadline:
                order = rng_for(self.seed, 1, cycle).permutation(len(self.panels))
                for n, i in enumerate(order):
                    os.sched_setaffinity(0, {cpus[(cycle + n) % len(cpus)]})
                    calib.timed(int(i), lambda: self._run_panel(int(i)))
                cycle += 1
        finally:
            os.sched_setaffinity(0, cpus)
        keys = range(len(self.panels))
        panel_s = calib.medians(keys)
        raw_s = calib.raw_medians(keys)
        return {
            "metrics": _metrics(sum(self.cells), panel_s),
            "aliases": {"throughput_per_s": "sweep_cells_per_s"},
            "detail": {
                "cycles": cycle,
                "uncalibrated": _metrics(sum(self.cells), raw_s),
                "reference_median_s": calib.reference_median_s(),
                "panel_s": panel_s,
                "ops": calib.raw,
            },
        }

    def check(self) -> int:
        """Failed ops: a missing curve or a sampled cell that differs from a
        direct ``solve_many`` (the per-threshold path, frontier routing off)."""
        failed = 0
        for complete, cells in self.samples:
            ok = complete
            for pair, solver, task, result in cells:
                direct = solve_many(
                    [pair], [solver],
                    period_bound=task.period_bound,
                    latency_bound=task.latency_bound,
                ).results[0][0]
                ok = ok and direct.identity() == result.identity()
            failed += not ok
        return failed

    # ------------------------------------------------------------------ #
    def trace(self) -> dict[str, Any]:
        """Each panel untraced, then again traced; then layer probes."""
        from repro.heuristics.base import PipelineHeuristic
        from repro.solvers import frontier, service
        from repro.workloads import engine

        tracer = self.tracer
        frontier_counts = {"runs": 0, "extracted": 0}

        def count_frontier(_extra, out):
            frontier_counts["runs"] += out[1].n_solved
            frontier_counts["extracted"] += out[1].n_frontier_extracted

        targets = [
            (sweep, "reference_ranges", "experiments.reference_ranges"),
            (sweep, "aggregate_runs", "experiments.aggregate_runs"),
            (sweep, "solve_plan", "workloads.solve_plan"),
            (sweep, "execute_plan", "workloads.execute_plan"),
            (engine, "solve_frontier_many", "solvers.solve_frontier_many", count_frontier),
            (engine, "solve_many", "solvers.solve_many"),
            (service, "frontier_solve", "solvers.frontier_solve"),
            (frontier, "compute_steps_frontier", "solvers.compute_steps_frontier"),
            (PipelineHeuristic, "run", "heuristics.run"),
        ]
        def traced_panel(i: int) -> float:
            with tracer.patch(targets), tracer.op(self.n_ops):
                with tracer.span("experiments.run_sweep"):
                    return self._run_panel(i)

        calib = Calibrated()
        for i in range(len(self.panels)):
            calib.timed(("untraced", i), lambda: self._run_panel(i))
            calib.timed(("traced", i), lambda: traced_panel(i))

        frontier_s = tracer.total("solvers.solve_frontier_many")
        direct_s = tracer.total("solvers.solve_many")
        metrics = {
            "experiments.reference_ranges_s": tracer.total("experiments.reference_ranges"),
            "workloads.plan_s": tracer.total("workloads.solve_plan"),
            "solvers.frontier_s": frontier_s,
            "solvers.frontier_runs": frontier_counts["runs"],
            "solvers.frontier_extracted": frontier_counts["extracted"],
            "solvers.direct_s": direct_s,
            "workloads.engine_overhead_s": tracer.total("workloads.execute_plan") - frontier_s - direct_s,
            "experiments.aggregate_s": tracer.total("experiments.aggregate_runs"),
            "trace.overhead_pct": overhead_pct(calib, len(self.panels)),
        }
        pairs = [
            (inst.application, inst.platform)
            for i in range(len(self.panels))
            for inst in self._instances(i)
        ]
        metrics.update(probe_core(pairs, tracer))
        first = sweep.run_sweep(self.configs[0], n_thresholds=N_THRESHOLDS, instances=self._instances(0))
        self._captured.clear()
        metrics.update(
            probe_heuristics(
                pairs,
                first.period_thresholds[len(first.period_thresholds) // 2],
                first.latency_thresholds[len(first.latency_thresholds) // 2],
                tracer,
            )
        )
        return metrics

    def close(self) -> None:
        pass

    def provenance(self) -> dict[str, Any]:
        return {
            "panels": [config.label for config in self.configs],
            "instances_per_panel": INSTANCES_PER_PANEL,
            "n_thresholds": N_THRESHOLDS,
            "campaign_seed": CAMPAIGN_SEED,
            "workers": 1,
        }


def _metrics(cells: int, panel_s: list[float]) -> dict[str, float]:
    """End-to-end metrics of one cycle of panels from each panel's seconds."""
    return {
        "throughput_per_s": cells / sum(panel_s),
        "latency_p50_ms": statistics.median(panel_s) * 1e3,
        "latency_p99_ms": percentile(panel_s, 99) * 1e3,
    }

