"""Tests of the fixed-latency heuristics (H5 Sp-mono-L, H6 Sp-bi-L)."""

from __future__ import annotations

import pytest

from repro.core.costs import evaluate, interval_cycle_time, optimal_latency
from repro.core.exceptions import ConfigurationError
from repro.core.mapping import Interval
from repro.heuristics import SplittingBiLatency, SplittingMonoLatency
from tests.conftest import random_instance

FIXED_LATENCY_HEURISTICS = [SplittingMonoLatency, SplittingBiLatency]


@pytest.fixture(params=FIXED_LATENCY_HEURISTICS, ids=lambda cls: cls.key)
def heuristic(request):
    return request.param()


class TestInterface:
    def test_requires_latency_bound(self, heuristic, small_app, small_platform):
        with pytest.raises(ConfigurationError):
            heuristic.run(small_app, small_platform, period_bound=10.0)
        with pytest.raises(ConfigurationError):
            heuristic.run(small_app, small_platform)
        with pytest.raises(ConfigurationError):
            heuristic.run(small_app, small_platform, latency_bound=0.0)

    def test_result_metrics_match_mapping(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        bound = optimal_latency(app, platform) * 1.5
        result = heuristic.run(app, platform, latency_bound=bound)
        ev = evaluate(app, platform, result.mapping)
        assert result.period == ev.period
        assert result.latency == ev.latency


class TestFeasibility:
    def test_feasible_iff_bound_above_optimal_latency(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        opt = optimal_latency(app, platform)
        assert heuristic.run(app, platform, latency_bound=opt * 1.0001).feasible
        assert not heuristic.run(app, platform, latency_bound=opt * 0.9).feasible

    def test_failure_keeps_lemma1_mapping(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = heuristic.run(app, platform, latency_bound=0.5)
        assert not result.feasible
        assert result.n_splits == 0
        assert result.mapping.n_intervals == 1

    def test_latency_constraint_always_respected_when_feasible(self, heuristic):
        for seed in range(4):
            app, platform = random_instance(12, 8, seed=seed)
            bound = optimal_latency(app, platform) * 1.8
            result = heuristic.run(app, platform, latency_bound=bound)
            assert result.feasible
            assert result.latency <= bound * (1 + 1e-9) + 1e-12


class TestPeriodImprovement:
    def test_period_improves_with_looser_latency(self, heuristic):
        """A larger latency budget can only help the reachable period."""
        app, platform = random_instance(15, 10, seed=11)
        opt = optimal_latency(app, platform)
        tight = heuristic.run(app, platform, latency_bound=opt * 1.05)
        loose = heuristic.run(app, platform, latency_bound=opt * 3.0)
        assert loose.period <= tight.period + 1e-9

    def test_history_periods_non_increasing(self, heuristic):
        for seed in range(3):
            app, platform = random_instance(10, 6, seed=seed)
            bound = optimal_latency(app, platform) * 2.0
            result = heuristic.run(app, platform, latency_bound=bound)
            periods = [p for p, _ in result.history]
            assert all(b <= a + 1e-9 for a, b in zip(periods, periods[1:]))

    def test_exactly_optimal_latency_bound_gives_single_interval(self, heuristic, medium_instance):
        """With the bound exactly at the optimum no split can stay within it
        (any split adds at least one communication or a slower processor)."""
        app, platform = medium_instance.application, medium_instance.platform
        opt = optimal_latency(app, platform)
        result = heuristic.run(app, platform, latency_bound=opt)
        assert result.feasible
        assert result.latency == pytest.approx(opt)

    def test_period_never_exceeds_initial_cycle(self, heuristic):
        for seed in range(3):
            app, platform = random_instance(10, 6, seed=seed)
            whole = Interval(0, app.n_stages - 1)
            start = interval_cycle_time(app, platform, whole, platform.fastest_processor)
            bound = optimal_latency(app, platform) * 2.5
            result = heuristic.run(app, platform, latency_bound=bound)
            assert result.period <= start + 1e-9


class TestRelativeBehaviour:
    def test_mono_reaches_period_at_least_as_low_as_bi_or_close(self):
        """Not a theorem, but both variants must stay within the latency bound
        and produce valid mappings on a batch of random instances."""
        for seed in range(5):
            app, platform = random_instance(12, 10, seed=seed)
            bound = optimal_latency(app, platform) * 2.0
            mono = SplittingMonoLatency().run(app, platform, latency_bound=bound)
            bi = SplittingBiLatency().run(app, platform, latency_bound=bound)
            for result in (mono, bi):
                result.mapping.validate(app, platform)
                assert result.latency <= bound * (1 + 1e-9)

    def test_same_failure_threshold_for_both(self):
        """Paper, Section 5.2.1: Sp mono L and Sp bi L share failure thresholds."""
        for seed in range(5):
            app, platform = random_instance(10, 6, seed=seed)
            opt = optimal_latency(app, platform)
            for factor, expected in ((0.99, False), (1.01, True)):
                mono = SplittingMonoLatency().run(
                    app, platform, latency_bound=opt * factor
                )
                bi = SplittingBiLatency().run(app, platform, latency_bound=opt * factor)
                assert mono.feasible == bi.feasible == expected
