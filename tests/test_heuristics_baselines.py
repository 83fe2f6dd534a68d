"""Tests of the baseline heuristics (chains-to-chains partition, random)."""

from __future__ import annotations

import pytest

from repro.core.costs import evaluate
from repro.heuristics import (
    ChainsPartitionBaseline,
    RandomMappingBaseline,
    SplittingMonoPeriod,
)
from tests.conftest import random_instance


class TestChainsPartitionBaseline:
    def test_produces_valid_mappings(self):
        for seed in range(4):
            app, platform = random_instance(12, 8, seed=seed)
            result = ChainsPartitionBaseline().run(app, platform, period_bound=1e-9)
            result.mapping.validate(app, platform)
            ev = evaluate(app, platform, result.mapping)
            assert result.period == ev.period
            assert result.latency == ev.latency

    def test_feasibility_semantics(self):
        app, platform = random_instance(10, 6, seed=1)
        baseline = ChainsPartitionBaseline()
        reachable = baseline.run(app, platform, period_bound=1e-9).period
        assert baseline.run(app, platform, period_bound=reachable * 1.001).feasible
        assert not baseline.run(app, platform, period_bound=reachable * 0.9).feasible

    def test_stops_at_first_feasible_interval_count(self):
        app, platform = random_instance(10, 6, seed=2)
        loose = ChainsPartitionBaseline().run(app, platform, period_bound=1e6)
        # a huge bound is satisfied with a single interval (no partitioning)
        assert loose.mapping.n_intervals == 1

    def test_usually_behind_sp_mono_p(self):
        """The heterogeneity-aware splitting of the paper should beat the
        homogeneity-assuming baseline on most instances."""
        wins = 0
        total = 0
        for seed in range(8):
            app, platform = random_instance(15, 10, seed=seed)
            h1 = SplittingMonoPeriod().run(app, platform, period_bound=1e-9).period
            baseline = (
                ChainsPartitionBaseline().run(app, platform, period_bound=1e-9).period
            )
            total += 1
            if h1 <= baseline + 1e-9:
                wins += 1
        assert wins >= total * 0.6


class TestRandomMappingBaseline:
    def test_reproducible_and_valid(self):
        app, platform = random_instance(10, 6, seed=3)
        a = RandomMappingBaseline(n_samples=50, seed=7).run(app, platform, period_bound=5.0)
        b = RandomMappingBaseline(n_samples=50, seed=7).run(app, platform, period_bound=5.0)
        assert a.period == b.period and a.latency == b.latency
        a.mapping.validate(app, platform)

    def test_more_samples_never_hurt(self):
        app, platform = random_instance(10, 6, seed=4)
        few = RandomMappingBaseline(n_samples=5, seed=1).run(app, platform, period_bound=1e-9)
        many = RandomMappingBaseline(n_samples=200, seed=1).run(app, platform, period_bound=1e-9)
        assert many.period <= few.period + 1e-9

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            RandomMappingBaseline(n_samples=0)

    def test_random_baseline_is_not_competitive(self):
        """Sanity: on a non-trivial instance the paper's heuristic beats the
        random floor in period (this is why the heuristics matter)."""
        app, platform = random_instance(20, 10, seed=5)
        h1 = SplittingMonoPeriod().run(app, platform, period_bound=1e-9).period
        rand = RandomMappingBaseline(n_samples=100, seed=0).run(
            app, platform, period_bound=1e-9
        ).period
        assert h1 <= rand + 1e-9
