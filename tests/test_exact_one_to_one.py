"""Tests of the one-to-one mapping exact solvers."""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import evaluate, interval_cycle_time
from repro.core.exceptions import InfeasibleError
from repro.core.mapping import IntervalMapping
from repro.core.platform import Platform
from repro.exact.brute_force import brute_force_min_period
from repro.exact.one_to_one import (
    one_to_one_cycle_matrix,
    one_to_one_min_latency,
    one_to_one_min_period,
)
from tests.conftest import random_instance


def brute_force_one_to_one(app, platform, objective):
    """Exhaustive optimum over all one-to-one assignments (small instances)."""
    best = None
    for procs in permutations(range(platform.n_processors), app.n_stages):
        mapping = IntervalMapping.one_to_one(list(procs))
        ev = evaluate(app, platform, mapping)
        value = ev.period if objective == "period" else ev.latency
        if best is None or value < best - 1e-12:
            best = value
    return best


class TestCycleMatrix:
    def test_dimensions_and_values(self, small_app, small_platform):
        cycles = one_to_one_cycle_matrix(small_app, small_platform)
        assert cycles.shape == (4, 3)
        # stage 0 on processor 0: 10/10 (input) + 4/10 (output) + 4/4 (work)
        assert cycles[0, 0] == pytest.approx(1.0 + 0.4 + 1.0)
        # stage 3 on processor 2: 2/10 + 10/10 + 8/1
        assert cycles[3, 2] == pytest.approx(0.2 + 1.0 + 8.0)

    def test_matches_evaluate_for_one_to_one_mapping(self):
        app, platform = random_instance(4, 6, seed=0)
        cycles = one_to_one_cycle_matrix(app, platform)
        mapping = IntervalMapping.one_to_one([3, 0, 5, 2])
        procs = mapping.processors
        for k, (interval, proc) in enumerate(mapping.items()):
            cycle = interval_cycle_time(
                app, platform, interval, proc,
                procs[k - 1] if k > 0 else None,
                procs[k + 1] if k + 1 < len(procs) else None,
            )
            assert cycle == pytest.approx(cycles[k, proc])


class TestMinPeriod:
    def test_matches_exhaustive_assignment(self):
        for seed in range(4):
            app, platform = random_instance(4, 5, seed=seed)
            _, value = one_to_one_min_period(app, platform)
            assert value == pytest.approx(
                brute_force_one_to_one(app, platform, "period")
            )

    def test_mapping_is_one_to_one_and_valid(self):
        app, platform = random_instance(5, 7, seed=1)
        mapping, value = one_to_one_min_period(app, platform)
        assert mapping.is_one_to_one
        mapping.validate(app, platform)
        assert evaluate(app, platform, mapping).period == pytest.approx(value)

    def test_interval_mappings_can_only_be_better(self):
        """The period-optimal interval mapping is never worse than the
        period-optimal one-to-one mapping (it has strictly more freedom)."""
        for seed in range(3):
            app, platform = random_instance(4, 5, seed=seed)
            _, one_to_one_value = one_to_one_min_period(app, platform)
            _, interval_best = brute_force_min_period(app, platform)
            assert interval_best.period <= one_to_one_value + 1e-9

    def test_requires_enough_processors(self, small_app):
        tiny = Platform([1.0, 2.0], 10.0)
        with pytest.raises(InfeasibleError):
            one_to_one_min_period(small_app, tiny)


class TestMinLatency:
    def test_matches_exhaustive_assignment(self):
        for seed in range(4):
            app, platform = random_instance(4, 5, seed=seed)
            _, value = one_to_one_min_latency(app, platform)
            assert value == pytest.approx(
                brute_force_one_to_one(app, platform, "latency")
            )

    def test_never_beats_lemma1(self):
        from repro.core.costs import optimal_latency

        app, platform = random_instance(5, 6, seed=2)
        _, value = one_to_one_min_latency(app, platform)
        assert value >= optimal_latency(app, platform) - 1e-9

    def test_requires_enough_processors(self):
        app = PipelineApplication([1, 2, 3], [1, 1, 1, 1])
        platform = Platform([1.0], 10.0)
        with pytest.raises(InfeasibleError):
            one_to_one_min_latency(app, platform)
