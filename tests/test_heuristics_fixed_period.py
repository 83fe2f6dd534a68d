"""Tests of the fixed-period heuristics (H1 Sp-mono-P, H2 3-Explo-mono, H3 3-Explo-bi)."""

from __future__ import annotations

import pytest

from repro.core.costs import evaluate, interval_cycle_time, optimal_latency
from repro.core.exceptions import ConfigurationError
from repro.core.mapping import Interval
from repro.heuristics import (
    SplittingMonoPeriod,
    ThreeExploBi,
    ThreeExploMono,
)
from tests.conftest import random_instance

FIXED_PERIOD_HEURISTICS = [SplittingMonoPeriod, ThreeExploMono, ThreeExploBi]


@pytest.fixture(params=FIXED_PERIOD_HEURISTICS, ids=lambda cls: cls.key)
def heuristic(request):
    return request.param()


class TestInterface:
    def test_requires_period_bound(self, heuristic, small_app, small_platform):
        with pytest.raises(ConfigurationError):
            heuristic.run(small_app, small_platform, latency_bound=10.0)
        with pytest.raises(ConfigurationError):
            heuristic.run(small_app, small_platform)
        with pytest.raises(ConfigurationError):
            heuristic.run(small_app, small_platform, period_bound=-1.0)

    def test_result_metrics_match_mapping(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = heuristic.run(app, platform, period_bound=5.0)
        ev = evaluate(app, platform, result.mapping)
        assert result.period == ev.period
        assert result.latency == ev.latency
        assert result.threshold == 5.0
        assert result.heuristic == heuristic.name

    def test_history_starts_at_lemma1(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = heuristic.run(app, platform, period_bound=1e-9)
        first_period, first_latency = result.history[0]
        assert first_latency == pytest.approx(optimal_latency(app, platform))
        whole = Interval(0, app.n_stages - 1)
        assert first_period == pytest.approx(
            interval_cycle_time(app, platform, whole, platform.fastest_processor)
        )
        assert len(result.history) == result.n_splits + 1


class TestFeasibility:
    def test_loose_bound_returns_lemma1_mapping(self, heuristic, medium_instance):
        """A bound above the single-processor cycle needs no split at all."""
        app, platform = medium_instance.application, medium_instance.platform
        whole = Interval(0, app.n_stages - 1)
        bound = interval_cycle_time(app, platform, whole, platform.fastest_processor) * 1.01
        result = heuristic.run(app, platform, period_bound=bound)
        assert result.feasible
        assert result.n_splits == 0
        assert result.latency == pytest.approx(optimal_latency(app, platform))

    def test_impossible_bound_reports_failure(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        result = heuristic.run(app, platform, period_bound=1e-9)
        assert not result.feasible
        # the mapping returned is still valid and evaluable
        result.mapping.validate(app, platform)

    def test_feasible_flag_matches_threshold(self, heuristic, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        for bound in (2.0, 4.0, 8.0, 16.0):
            result = heuristic.run(app, platform, period_bound=bound)
            assert result.feasible == (result.period <= bound * (1 + 1e-9) + 1e-12)

    def test_monotone_in_threshold(self, heuristic, medium_instance):
        """If the heuristic succeeds at a threshold, it succeeds at any larger one."""
        app, platform = medium_instance.application, medium_instance.platform
        probe = heuristic.run(app, platform, period_bound=1e-9)
        reachable = probe.period
        assert heuristic.run(app, platform, period_bound=reachable * 1.001).feasible
        assert heuristic.run(app, platform, period_bound=reachable * 2.0).feasible


class TestStructuralInvariants:
    def test_mapping_uses_distinct_processors(self, heuristic):
        for seed in range(3):
            app, platform = random_instance(12, 8, seed=seed)
            result = heuristic.run(app, platform, period_bound=1e-9)
            procs = result.mapping.processors
            assert len(set(procs)) == len(procs)
            result.mapping.validate(app, platform)

    def test_period_never_exceeds_single_processor_cycle(self, heuristic):
        """Splitting starts from the Lemma 1 mapping and only improves the period."""
        for seed in range(3):
            app, platform = random_instance(10, 6, seed=seed)
            whole = Interval(0, app.n_stages - 1)
            start = interval_cycle_time(app, platform, whole, platform.fastest_processor)
            result = heuristic.run(app, platform, period_bound=1e-9)
            assert result.period <= start + 1e-9

    def test_history_periods_non_increasing(self, heuristic):
        for seed in range(3):
            app, platform = random_instance(10, 6, seed=seed)
            result = heuristic.run(app, platform, period_bound=1e-9)
            periods = [p for p, _ in result.history]
            assert all(b <= a + 1e-9 for a, b in zip(periods, periods[1:]))

    def test_latency_never_below_optimum(self, heuristic):
        for seed in range(3):
            app, platform = random_instance(10, 6, seed=seed)
            result = heuristic.run(app, platform, period_bound=1e-9)
            assert result.latency >= optimal_latency(app, platform) - 1e-9


class TestRelativeBehaviour:
    def test_three_explo_consumes_processor_pairs(self):
        app, platform = random_instance(20, 10, seed=7)
        result = ThreeExploMono().run(app, platform, period_bound=1e-9)
        # every 3-way split enrolls exactly two new processors
        assert result.mapping.n_intervals == 1 + 2 * result.n_splits

    def test_sp_mono_p_single_processor_platform(self):
        app, platform = random_instance(5, 1, seed=3)
        result = SplittingMonoPeriod().run(app, platform, period_bound=1e-9)
        assert result.n_splits == 0
        assert result.mapping.n_intervals == 1
