"""Unit tests for the polynomial homogeneous-platform dynamic programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import evaluate, optimal_latency
from repro.core.exceptions import InfeasibleError, InvalidPlatformError
from repro.core.platform import Platform
from repro.exact.brute_force import (
    brute_force_min_latency,
    brute_force_min_period,
)
from repro.exact.homogeneous_dp import (
    homogeneous_min_latency_for_period,
    homogeneous_min_period,
    homogeneous_min_period_for_latency,
)
from tests.kernel_engine import scalar_tables


def random_homogeneous_instance(seed: int, n: int = 7, p: int = 3):
    rng = np.random.default_rng(seed)
    app = PipelineApplication(
        rng.uniform(1, 20, size=n), rng.uniform(1, 20, size=n + 1)
    )
    platform = Platform.fully_homogeneous(p, speed=float(rng.integers(1, 10)), bandwidth=10.0)
    return app, platform


class TestMinPeriod:
    def test_matches_brute_force(self):
        for seed in range(5):
            app, platform = random_homogeneous_instance(seed)
            _, bf = brute_force_min_period(app, platform)
            mapping, value = homogeneous_min_period(app, platform)
            assert value == pytest.approx(bf.period, rel=1e-9)
            assert evaluate(app, platform, mapping).period == pytest.approx(value)

    def test_rejects_heterogeneous_speeds(self, small_app, small_platform):
        with pytest.raises(InvalidPlatformError):
            homogeneous_min_period(small_app, small_platform)

    def test_single_processor(self):
        app = PipelineApplication([1, 2, 3], [1, 1, 1, 1])
        platform = Platform.fully_homogeneous(1, speed=2.0, bandwidth=1.0)
        mapping, value = homogeneous_min_period(app, platform)
        assert mapping.n_intervals == 1
        assert value == pytest.approx(evaluate(app, platform, mapping).period)


class TestMinLatencyForPeriod:
    def test_matches_brute_force(self):
        for seed in range(5):
            app, platform = random_homogeneous_instance(seed)
            _, best = brute_force_min_period(app, platform)
            bound = best.period * 1.25
            _, bf = brute_force_min_latency(app, platform, period_bound=bound)
            mapping, value = homogeneous_min_latency_for_period(app, platform, bound)
            assert value == pytest.approx(bf.latency, rel=1e-9)
            assert evaluate(app, platform, mapping).period <= bound + 1e-9

    def test_infeasible_bound(self):
        app, platform = random_homogeneous_instance(0)
        with pytest.raises(InfeasibleError):
            homogeneous_min_latency_for_period(app, platform, 1e-9)

    def test_huge_bound_matches_lemma1(self):
        app, platform = random_homogeneous_instance(1)
        _, value = homogeneous_min_latency_for_period(app, platform, 1e9)
        assert value == pytest.approx(optimal_latency(app, platform))


class TestMinPeriodForLatency:
    def test_matches_brute_force(self):
        for seed in range(4):
            app, platform = random_homogeneous_instance(seed, n=6, p=3)
            base = optimal_latency(app, platform)
            for factor in (1.0, 1.5):
                bound = base * factor
                _, bf = brute_force_min_period(app, platform, latency_bound=bound)
                mapping, value = homogeneous_min_period_for_latency(app, platform, bound)
                assert value == pytest.approx(bf.period, rel=1e-9)
                assert evaluate(app, platform, mapping).latency <= bound + 1e-9

    def test_infeasible_bound(self):
        app, platform = random_homogeneous_instance(2)
        with pytest.raises(InfeasibleError):
            homogeneous_min_period_for_latency(app, platform, 1e-9)


class TestVectorizedKernels:
    """The default DP kernels must match the scalar reference loops."""

    def test_cycle_matrix_identical(self):
        from repro.exact.homogeneous_dp import _cycle_matrix, _cycle_matrix_scalar

        for seed in range(6):
            app, platform = random_homogeneous_instance(seed, n=9, p=4)
            assert np.array_equal(
                _cycle_matrix(app, platform), _cycle_matrix_scalar(app, platform)
            )

    def test_cycle_matrix_with_zero_communications(self):
        from repro.exact.homogeneous_dp import _cycle_matrix, _cycle_matrix_scalar

        app = PipelineApplication([4.0, 2.0, 6.0], [0.0, 3.0, 5.0, 0.0])
        platform = Platform.fully_homogeneous(3, speed=2.0, bandwidth=10.0)
        assert np.array_equal(
            _cycle_matrix(app, platform), _cycle_matrix_scalar(app, platform)
        )

    def test_min_period_paths_agree(self):
        for seed in range(6):
            app, platform = random_homogeneous_instance(seed, n=10, p=4)
            m_vec, v_vec = homogeneous_min_period(app, platform)
            with scalar_tables():
                m_sca, v_sca = homogeneous_min_period(app, platform)
            assert v_vec == v_sca
            assert m_vec == m_sca

    def test_min_latency_for_period_paths_agree(self):
        for seed in range(6):
            app, platform = random_homogeneous_instance(seed, n=10, p=4)
            _, optimum = homogeneous_min_period(app, platform)
            for factor in (1.0, 1.3, 2.0):
                bound = optimum * factor
                _, l_vec = homogeneous_min_latency_for_period(app, platform, bound)
                with scalar_tables():
                    _, l_sca = homogeneous_min_latency_for_period(
                        app, platform, bound
                    )
                assert l_vec == pytest.approx(l_sca, rel=1e-12)

    def test_min_period_for_latency_paths_agree(self):
        for seed in range(4):
            app, platform = random_homogeneous_instance(seed, n=8, p=3)
            bound = optimal_latency(app, platform) * 1.4
            _, p_vec = homogeneous_min_period_for_latency(app, platform, bound)
            with scalar_tables():
                _, p_sca = homogeneous_min_period_for_latency(app, platform, bound)
            assert p_vec == pytest.approx(p_sca, rel=1e-12)
