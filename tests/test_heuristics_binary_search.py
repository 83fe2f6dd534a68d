"""Tests of H4 Sp-bi-P (bi-criteria splitting with binary search on the latency)."""

from __future__ import annotations

import pytest

from repro.core.costs import evaluate, optimal_latency
from repro.heuristics import SelectionRule, SplittingBiPeriod, SplittingMonoPeriod
from repro.heuristics.engine import trajectory
from tests.conftest import random_instance


class TestBasics:
    def test_result_metrics_match_mapping(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = SplittingBiPeriod().run(app, platform, period_bound=5.0)
        ev = evaluate(app, platform, result.mapping)
        assert result.period == ev.period
        assert result.latency == ev.latency

    def test_feasibility_matches_unconstrained_pass(self, medium_instance):
        """Sp bi P is feasible exactly when its unconstrained pass reaches the
        period (the binary search can only restrict the latency further)."""
        app, platform = medium_instance.application, medium_instance.platform
        h = SplittingBiPeriod()
        probe = h.run(app, platform, period_bound=1e-9)
        reachable = probe.period
        assert h.run(app, platform, period_bound=reachable * 1.001).feasible
        assert not h.run(app, platform, period_bound=reachable * 0.9).feasible

    def test_infeasible_run_returns_valid_mapping(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = SplittingBiPeriod().run(app, platform, period_bound=1e-9)
        assert not result.feasible
        result.mapping.validate(app, platform)


class TestLatencyMinimisation:
    def test_latency_not_worse_than_unconstrained_pass(self):
        """The binary search keeps the best (smallest-latency) feasible pass, so
        it can never end up above the unconstrained pass's latency."""
        for seed in range(5):
            app, platform = random_instance(15, 10, seed=seed)
            h = SplittingBiPeriod()
            reachable = h.run(app, platform, period_bound=1e-9).period
            bound = reachable * 1.3
            constrained = h.run(app, platform, period_bound=bound)
            assert constrained.feasible
            # re-run the unconstrained pass manually (no authorised latency)
            root = trajectory(app, platform, SelectionRule.RATIO)
            unconstrained = root.walk(bound)
            assert constrained.latency <= unconstrained.latency + 1e-9

    def test_latency_at_least_lemma1(self):
        for seed in range(5):
            app, platform = random_instance(12, 8, seed=seed)
            result = SplittingBiPeriod().run(app, platform, period_bound=3.0)
            assert result.latency >= optimal_latency(app, platform) - 1e-9

    def test_loose_bound_keeps_lemma1_mapping(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = SplittingBiPeriod().run(app, platform, period_bound=1e9)
        assert result.feasible
        assert result.n_splits == 0
        assert result.latency == pytest.approx(optimal_latency(app, platform))


class TestAgainstMonoCriterion:
    def test_latency_usually_not_worse_than_h1_at_same_threshold(self):
        """Sp bi P trades period slack for latency: when both heuristics are
        feasible at a threshold, Sp bi P's latency should not be (much) worse
        than Sp mono P's on average (paper: it achieves the best latencies)."""
        better_or_equal = 0
        total = 0
        for seed in range(10):
            app, platform = random_instance(10, 10, seed=seed, family="E1")
            h1 = SplittingMonoPeriod()
            h4 = SplittingBiPeriod()
            reachable = h1.run(app, platform, period_bound=1e-9).period
            bound = reachable * 1.5
            r1 = h1.run(app, platform, period_bound=bound)
            r4 = h4.run(app, platform, period_bound=bound)
            if r1.feasible and r4.feasible:
                total += 1
                if r4.latency <= r1.latency + 1e-9:
                    better_or_equal += 1
        assert total > 0
        assert better_or_equal >= total * 0.6
