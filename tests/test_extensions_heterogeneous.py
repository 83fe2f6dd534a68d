"""Tests of the fully-heterogeneous-platform extension."""

from __future__ import annotations

from repro.core.costs import evaluate, optimal_latency
from repro.extensions.heterogeneous_links import HeterogeneousSplittingPeriod
from repro.generators.applications import random_pipeline
from repro.generators.platforms import (
    random_comm_homogeneous_platform,
    random_fully_heterogeneous_platform,
)
from repro.heuristics import SplittingMonoPeriod


def hetero_instance(seed: int, n: int = 10, p: int = 6):
    app = random_pipeline(n, work_range=(1, 20), comm_range=(1, 100), seed=seed)
    platform = random_fully_heterogeneous_platform(p, seed=seed)
    return app, platform


class TestHeterogeneousHeuristic:
    def test_runs_on_heterogeneous_platforms(self):
        app, platform = hetero_instance(0)
        result = HeterogeneousSplittingPeriod().run(app, platform, period_bound=1e-9)
        result.mapping.validate(app, platform)
        ev = evaluate(app, platform, result.mapping)
        assert result.period == ev.period
        assert result.latency == ev.latency

    def test_period_only_improves_during_run(self):
        for seed in range(3):
            app, platform = hetero_instance(seed)
            result = HeterogeneousSplittingPeriod().run(app, platform, period_bound=1e-9)
            periods = [p for p, _ in result.history]
            assert all(b <= a + 1e-9 for a, b in zip(periods, periods[1:]))

    def test_feasibility_semantics(self):
        app, platform = hetero_instance(1)
        h = HeterogeneousSplittingPeriod()
        reachable = h.run(app, platform, period_bound=1e-9).period
        assert h.run(app, platform, period_bound=reachable * 1.001).feasible
        assert not h.run(app, platform, period_bound=reachable * 0.9).feasible

    def test_latency_never_below_lemma1(self):
        app, platform = hetero_instance(2)
        result = HeterogeneousSplittingPeriod().run(app, platform, period_bound=1e-9)
        assert result.latency >= optimal_latency(app, platform) - 1e-9

    def test_matches_sp_mono_p_spirit_on_comm_homogeneous_platform(self):
        """On a communication-homogeneous platform the extension heuristic
        reaches a period at least as good as H1 (it explores a superset of
        recipient processors)."""
        for seed in range(3):
            app = random_pipeline(10, work_range=(1, 20), comm_range=(1, 100), seed=seed)
            platform = random_comm_homogeneous_platform(6, seed=seed)
            h1 = SplittingMonoPeriod().run(app, platform, period_bound=1e-9)
            hx = HeterogeneousSplittingPeriod().run(app, platform, period_bound=1e-9)
            assert hx.period <= h1.period * 1.05 + 1e-9
