"""Unit tests for the exhaustive interval-mapping solvers."""

from __future__ import annotations

import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import evaluate, latency, optimal_latency, period
from repro.core.exceptions import InfeasibleError
from repro.core.platform import Platform
from repro.exact.brute_force import (
    brute_force_min_latency,
    brute_force_min_period,
    brute_force_pareto_front,
    enumerate_interval_mappings,
)
from repro.generators.experiments import experiment_config, generate_instances


class TestEnumeration:
    def test_number_of_mappings(self, small_app, small_platform):
        """n=4 stages, p=3 processors: sum over m of C(3, m-1) * P(3, m)."""
        mappings = list(enumerate_interval_mappings(small_app, small_platform))
        # m=1: 1*3, m=2: 3*6, m=3: 3*6 = 3 + 18 + 18 = 39
        assert len(mappings) == 39
        assert len({m for m in mappings}) == 39  # all distinct

    def test_all_mappings_valid(self, small_app, small_platform):
        for mapping in enumerate_interval_mappings(small_app, small_platform):
            mapping.validate(small_app, small_platform)

    def test_size_guard(self):
        app = PipelineApplication.homogeneous(20)
        platform = Platform.fully_homogeneous(3)
        with pytest.raises(ValueError):
            list(enumerate_interval_mappings(app, platform))
        big_platform = Platform.fully_homogeneous(12)
        small = PipelineApplication.homogeneous(3)
        with pytest.raises(ValueError):
            list(enumerate_interval_mappings(small, big_platform))


class TestMinPeriod:
    def test_unconstrained_optimum_is_global(self, small_app, small_platform):
        mapping, ev = brute_force_min_period(small_app, small_platform)
        for other in enumerate_interval_mappings(small_app, small_platform):
            assert ev.period <= period(small_app, small_platform, other) + 1e-12

    def test_latency_constraint_respected(self, small_app, small_platform):
        bound = optimal_latency(small_app, small_platform) * 1.2
        mapping, ev = brute_force_min_period(small_app, small_platform, latency_bound=bound)
        assert ev.latency <= bound + 1e-9

    def test_infeasible_latency_bound(self, small_app, small_platform):
        with pytest.raises(InfeasibleError):
            brute_force_min_period(small_app, small_platform, latency_bound=0.1)

    def test_constrained_never_better_than_unconstrained(self, small_app, small_platform):
        _, unconstrained = brute_force_min_period(small_app, small_platform)
        bound = optimal_latency(small_app, small_platform) * 1.5
        _, constrained = brute_force_min_period(
            small_app, small_platform, latency_bound=bound
        )
        assert constrained.period >= unconstrained.period - 1e-12


class TestMinLatency:
    def test_unconstrained_matches_lemma1(self, small_app, small_platform):
        mapping, ev = brute_force_min_latency(small_app, small_platform)
        assert ev.latency == pytest.approx(optimal_latency(small_app, small_platform))
        assert mapping.n_intervals == 1

    def test_period_constraint_respected(self, small_app, small_platform):
        _, best_period = brute_force_min_period(small_app, small_platform)
        bound = best_period.period * 1.2
        mapping, ev = brute_force_min_latency(small_app, small_platform, period_bound=bound)
        assert ev.period <= bound + 1e-9
        # every other mapping respecting the bound has larger-or-equal latency
        for other in enumerate_interval_mappings(small_app, small_platform):
            if period(small_app, small_platform, other) <= bound + 1e-12:
                assert latency(small_app, small_platform, other) >= ev.latency - 1e-9

    def test_infeasible_period_bound(self, small_app, small_platform):
        with pytest.raises(InfeasibleError):
            brute_force_min_latency(small_app, small_platform, period_bound=1e-6)


class TestParetoFront:
    def test_front_points_are_non_dominated(self, small_app, small_platform):
        front = brute_force_pareto_front(small_app, small_platform)
        assert front, "the Pareto front cannot be empty"
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not a.dominates(b)

    def test_front_contains_extremes(self, small_app, small_platform):
        front = brute_force_pareto_front(small_app, small_platform)
        periods = [p.period for p in front]
        latencies = [p.latency for p in front]
        _, best_period = brute_force_min_period(small_app, small_platform)
        assert min(periods) == pytest.approx(best_period.period)
        assert min(latencies) == pytest.approx(
            optimal_latency(small_app, small_platform)
        )

    def test_payload_is_the_mapping(self, small_app, small_platform):
        front = brute_force_pareto_front(small_app, small_platform)
        for point in front:
            ev = evaluate(small_app, small_platform, point.payload)
            assert ev.period == pytest.approx(point.period)
            assert ev.latency == pytest.approx(point.latency)

    def test_points_equal_scalar_evaluate_bitwise(self):
        """Front floats are the scalar evaluate() of their mapping, exactly.

        The enumeration table and the scalar path add eq. (2) in the same
        order, so brute force selects on the floats it reports.  These
        fronts hold mappings of 3 and 4 intervals, where a different
        summation order would show in the last bits.
        """
        config = experiment_config("E1", 7, 4, n_instances=3)
        widest = 0
        for inst in generate_instances(config, seed=0):
            app, platform = inst.application, inst.platform
            for point in brute_force_pareto_front(app, platform):
                ev = evaluate(app, platform, point.payload)
                assert (point.period, point.latency) == (ev.period, ev.latency)
                widest = max(widest, point.payload.n_intervals)
        assert widest >= 3
