"""Workload ``fuzz-oracle``: the differential fuzzer over every scenario family.

One op is one scenario verified.  Ops run in batches: each batch is one
``scenarios.harness.run_fuzz`` call over all scenario families at
``workers=2`` with the default data sets, ``BATCH`` scenarios from one batch
seed.  The ``CAMPAIGN_BATCHES`` batches form a campaign that is run in
cycles, in an order drawn from ``--seed``, until ``--seconds`` have passed
and the cycle is complete.  Each batch is timed between two reference
samples taken on every CPU the pool uses (``bench_common.Calibrated``), and
a batch's time is the median over the cycles of its calibrated time, which
keeps the shared host's changing speed out of the result.  The batch
seeds are fixed: on a shared 2-CPU VM the oracle's cost per scenario has a
coefficient of variation of about 1.4, so a seed-drawn stream of a few
hundred scenarios would swing the throughput by more than its bound.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any

from repro.scenarios import harness

from bench_common import (
    Calibrated, overhead_pct, percentile, probe_core, probe_pool_startup, rng_for,
)


WORKERS = 2
BATCH = 32
CAMPAIGN_BATCHES = 2
#: reference passes per CPU in each calibration sample
REFERENCE_PASSES = 2
#: base of the campaign's batch seeds (``--seed`` orders the batches)
CAMPAIGN_SEED = 2007
#: batches replayed by a traced run (fixed, so its counts repeat exactly)
TRACE_BATCHES = 2


class Workload:
    def __init__(self, seed: int, seconds: float, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        #: (batch number, FuzzReport or exception text) per batch run
        self.batches: list[tuple[int, Any]] = []

    @staticmethod
    def _batch_seed(k: int) -> int:
        return CAMPAIGN_SEED * 100_000 + k

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        # warm-up: one cheap batch forks the pools and loads the oracle paths
        harness.run_fuzz(
            count=8, families="single-stage", seed=self._batch_seed(99_999),
            workers=WORKERS, shrink=False,
        )

    def _run_batch(self, k: int) -> float:
        start = time.perf_counter()
        try:
            report = harness.run_fuzz(
                count=BATCH, seed=self._batch_seed(k), workers=WORKERS, shrink=False
            )
        except Exception as exc:  # noqa: BLE001 - an oracle crash is a failed batch
            report = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.batches.append((k, report))
        return elapsed

    @property
    def attempted(self) -> int:
        return BATCH * len(self.batches)

    def measure(self) -> dict[str, Any]:
        # the pool runs on every CPU, so each reference sample visits them all
        calib = Calibrated(sorted(os.sched_getaffinity(0)), passes=REFERENCE_PASSES)
        deadline = time.perf_counter() + self.seconds
        cycle = 0
        while cycle == 0 or time.perf_counter() < deadline:
            for k in rng_for(self.seed, 1, cycle).permutation(CAMPAIGN_BATCHES):
                calib.timed(int(k), lambda: self._run_batch(int(k)))
            cycle += 1
        keys = range(CAMPAIGN_BATCHES)
        batch_s = calib.medians(keys)
        return {
            "metrics": _metrics(batch_s),
            "aliases": {"throughput_per_s": "fuzz_scenarios_per_s"},
            "detail": {
                "cycles": cycle,
                "uncalibrated": _metrics(calib.raw_medians(keys)),
                "reference_median_s": calib.reference_median_s(),
                "batch_s": batch_s,
                "ops": calib.raw,
            },
        }

    def check(self) -> int:
        """Failed ops: scenarios of a crashed batch, and every counterexample."""
        failed = 0
        for _, report in self.batches:
            if isinstance(report, str):
                failed += BATCH
            elif sum(report.per_family.values()) != BATCH:
                failed += BATCH
            else:
                failed += len(report.counterexamples)
        return failed

    # ------------------------------------------------------------------ #
    def trace(self) -> dict[str, Any]:
        """Each of ``TRACE_BATCHES`` batches untraced, then again traced; then
        batch 0 re-verified serially with the exact and simulation layers timed."""
        from repro.heuristics.base import PipelineHeuristic
        from repro.scenarios import differential
        from repro.scenarios.families import generate_scenarios, resolve_families
        from repro.solvers import adapters
        from repro.workloads import engine

        tracer = self.tracer

        arena_bytes: list[int] = []

        def arena_size(_extra, arena):
            arena_bytes.append(arena.shipment().size)

        targets = [
            (harness, "generate_scenarios", "scenarios.generate_scenarios"),
            (harness, "differential_plan", "workloads.differential_plan"),
            (harness, "execute_plan", "workloads.execute_plan"),
            (engine, "parallel_map", "utils.parallel_map"),
            (engine, "InstanceArena", "utils.InstanceArena", arena_size),
        ]

        def traced_batch(k: int) -> float:
            with tracer.patch(targets), tracer.op(ops[-1]):
                with tracer.span("scenarios.run_fuzz"):
                    return self._run_batch(k)

        calib = Calibrated(sorted(os.sched_getaffinity(0)), passes=REFERENCE_PASSES)
        ops = []
        for k in range(TRACE_BATCHES):
            calib.timed(("untraced", k), lambda: self._run_batch(k))
            ops.append(len(self.batches))
            calib.timed(("traced", k), lambda: traced_batch(k))
        pool_wall = [
            span.seconds for span in tracer.named("utils.parallel_map") if span.op == ops[0]
        ]

        # serial re-verification of batch 0, one span per layer call
        families = tuple(f.name for f in resolve_families(None))
        scenarios = generate_scenarios(BATCH, families, self._batch_seed(0))
        exact = [
            (adapters, "brute_force_min_latency", "exact.brute_force"),
            (adapters, "brute_force_min_period", "exact.brute_force"),
            (adapters, "dp_min_latency_for_period", "exact.bitmask_dp"),
            (adapters, "dp_min_period_for_latency", "exact.bitmask_dp"),
            (adapters, "homogeneous_min_latency_for_period", "exact.hom_dp"),
            (adapters, "homogeneous_min_period", "exact.hom_dp"),
            (adapters, "homogeneous_min_period_for_latency", "exact.hom_dp"),
            (adapters, "one_to_one_min_latency", "exact.one_to_one"),
            (adapters, "one_to_one_min_period", "exact.one_to_one"),
            (adapters, "refine", "solvers.local_search"),
            (differential, "frontier_solve", "solvers.frontier_solve"),
            (differential, "simulate_mapping", "simulation.event_driven"),
            (differential, "synchronous_schedule", "simulation.synchronous"),
            (PipelineHeuristic, "run", "heuristics.run"),
        ]
        comparisons = 0
        with tracer.patch(exact):
            for i, scenario in enumerate(scenarios):
                with tracer.op(10_000 + i), tracer.span("scenarios.differential_check"):
                    report = differential.differential_check(
                        scenario.application, scenario.platform
                    )
                comparisons += report.n_comparisons

        n = len(scenarios)
        serial_s = tracer.total("scenarios.differential_check")
        metrics = {
            "scenarios.generate_s": tracer.total("scenarios.generate_scenarios") / TRACE_BATCHES,
            "scenarios.check_ms": serial_s / n * 1e3,
            "scenarios.comparisons": comparisons,
            "exact.bitmask_ms": tracer.total("exact.bitmask_dp") / n * 1e3,
            "exact.brute_force_ms": tracer.total("exact.brute_force") / n * 1e3,
            "exact.hom_dp_ms": tracer.total("exact.hom_dp") / n * 1e3,
            "simulation.event_ms": tracer.total("simulation.event_driven") / n * 1e3,
            "utils.shm.publish_s": tracer.total("utils.InstanceArena") / TRACE_BATCHES,
            "utils.shm.arena_bytes": statistics.fmean(arena_bytes) if arena_bytes else 0.0,
            "utils.parallel.startup_s": probe_pool_startup(tracer, WORKERS),
            "utils.parallel.pool_efficiency": serial_s / (WORKERS * sum(pool_wall)),
            "trace.overhead_pct": overhead_pct(calib, TRACE_BATCHES),
        }
        metrics.update(probe_core([(s.application, s.platform) for s in scenarios], tracer))
        return metrics

    def close(self) -> None:
        pass

    def provenance(self) -> dict[str, Any]:
        return {"workers": WORKERS, "batch": BATCH, "n_datasets": "default"}


def _metrics(batch_s: list[float]) -> dict[str, float]:
    """End-to-end metrics of one cycle of batches from each batch's seconds."""
    return {
        "throughput_per_s": BATCH * len(batch_s) / sum(batch_s),
        "latency_p50_ms": statistics.median(batch_s) * 1e3,
        "latency_p99_ms": percentile(batch_s, 99) * 1e3,
    }
