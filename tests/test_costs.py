"""Unit tests for the analytical cost model (eqs. 1 and 2)."""

from __future__ import annotations

import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import (
    evaluate,
    interval_compute_time,
    interval_cycle_time,
    latency,
    optimal_latency,
    optimal_latency_mapping,
    period,
    period_lower_bound,
)
from repro.core.exceptions import InvalidMappingError
from repro.core.mapping import Interval, IntervalMapping
from repro.core.platform import Platform


class TestSingleInterval:
    """Whole pipeline on one processor: hand-checked numbers.

    works = [4, 2, 6, 8], comms = [10, 4, 6, 2, 10], b = 10, fastest speed 4:
    cycle = 10/10 + 20/4 + 10/10 = 7 and latency = 7 as well.
    """

    def test_period_equals_latency(self, small_app, small_platform, single_interval_mapping):
        assert period(small_app, small_platform, single_interval_mapping) == pytest.approx(7.0)
        assert latency(small_app, small_platform, single_interval_mapping) == pytest.approx(7.0)

    def test_evaluate_consistency(self, small_app, small_platform, single_interval_mapping):
        ev = evaluate(small_app, small_platform, single_interval_mapping)
        assert ev.period == pytest.approx(7.0)
        assert ev.latency == pytest.approx(7.0)
        assert ev.n_intervals == 1
        assert ev.bottleneck_interval == 0


class TestTwoIntervals:
    """Stages [0,1] on P1 (speed 4) and [2,3] on P2 (speed 2).

    interval 0: 10/10 + 6/4 + 6/10  = 3.1
    interval 1:  6/10 + 14/2 + 10/10 = 8.6
    period = 8.6, latency = (1 + 1.5) + (0.6 + 7) + 1 = 11.1
    """

    def test_period(self, small_app, small_platform, two_interval_mapping):
        assert period(small_app, small_platform, two_interval_mapping) == pytest.approx(8.6)

    def test_latency(self, small_app, small_platform, two_interval_mapping):
        assert latency(small_app, small_platform, two_interval_mapping) == pytest.approx(11.1)

    def test_interval_costs_breakdown(self, small_app, small_platform, two_interval_mapping):
        ev = evaluate(small_app, small_platform, two_interval_mapping)
        first, second = ev.interval_costs
        assert first.input_time == pytest.approx(1.0)
        assert first.compute_time == pytest.approx(1.5)
        assert first.output_time == pytest.approx(0.6)
        assert first.cycle_time == pytest.approx(3.1)
        assert second.cycle_time == pytest.approx(8.6)
        assert ev.bottleneck_interval == 1

    def test_latency_counts_only_crossed_boundaries(self, small_app, small_platform):
        """Intra-interval communications are free (they never appear)."""
        one = IntervalMapping.single_processor(4, 0)
        split = IntervalMapping([(0, 1), (2, 3)], [0, 1])
        lat_one = latency(small_app, small_platform, one)
        lat_split = latency(small_app, small_platform, split)
        # splitting adds the crossed boundary (0.6 twice... once as input of the
        # second interval) and the slowdown of the second processor
        assert lat_split > lat_one


class TestHelpers:
    def test_interval_compute_time(self, small_app, small_platform):
        assert interval_compute_time(
            small_app, small_platform, Interval(1, 2), 1
        ) == pytest.approx(8 / 2)

    def test_interval_cycle_time_matches_evaluate(self, small_app, small_platform):
        mapping = IntervalMapping([(0, 0), (1, 3)], [1, 0])
        ev = evaluate(small_app, small_platform, mapping)
        c0 = interval_cycle_time(small_app, small_platform, Interval(0, 0), 1, None, 0)
        c1 = interval_cycle_time(small_app, small_platform, Interval(1, 3), 0, 1, None)
        assert ev.interval_costs[0].cycle_time == pytest.approx(c0)
        assert ev.interval_costs[1].cycle_time == pytest.approx(c1)

    def test_latency_adds_eq2_left_to_right(self, small_app, small_platform):
        mapping = IntervalMapping([(0, 0), (1, 1), (2, 3)], [0, 2, 1])
        ev = evaluate(small_app, small_platform, mapping)
        total = 0.0
        for cost in ev.interval_costs:
            total += cost.input_time + cost.compute_time
        expected = total + ev.interval_costs[-1].output_time
        assert ev.latency == expected
        assert latency(small_app, small_platform, mapping) == expected

    def test_zero_communication_is_free(self):
        app = PipelineApplication([2.0, 2.0], [0.0, 0.0, 0.0])
        platform = Platform([1.0, 1.0], 10.0)
        mapping = IntervalMapping([(0, 0), (1, 1)], [0, 1])
        assert period(app, platform, mapping) == pytest.approx(2.0)
        assert latency(app, platform, mapping) == pytest.approx(4.0)


class TestDominance:
    def test_mapping_evaluation_dominates(self, small_app, small_platform):
        better = evaluate(
            small_app, small_platform, IntervalMapping.single_processor(4, 0)
        )
        worse = evaluate(
            small_app, small_platform, IntervalMapping.single_processor(4, 2)
        )
        assert better.dominates(worse)
        assert not worse.dominates(better)
        assert not better.dominates(better)


class TestOptimalLatency:
    def test_optimal_latency_is_fastest_processor(self, small_app, small_platform):
        assert optimal_latency(small_app, small_platform) == pytest.approx(7.0)
        mapping = optimal_latency_mapping(small_app, small_platform)
        assert mapping.processors == (small_platform.fastest_processor,)

    def test_no_other_mapping_beats_lemma1(self, small_app, small_platform):
        """Lemma 1: the single-fastest-processor mapping minimises the latency."""
        from repro.exact.brute_force import enumerate_interval_mappings

        best = optimal_latency(small_app, small_platform)
        for mapping in enumerate_interval_mappings(small_app, small_platform):
            assert latency(small_app, small_platform, mapping) >= best - 1e-9


class TestPeriodLowerBound:
    def test_lower_bound_below_all_mappings(self, small_app, small_platform):
        from repro.exact.brute_force import enumerate_interval_mappings

        bound = period_lower_bound(small_app, small_platform)
        for mapping in enumerate_interval_mappings(small_app, small_platform):
            assert period(small_app, small_platform, mapping) >= bound - 1e-9

    def test_lower_bound_components(self):
        app = PipelineApplication([100.0, 1.0], [0.0, 0.0, 0.0])
        platform = Platform([10.0, 1.0], 10.0)
        # heaviest stage on the fastest processor dominates here
        assert period_lower_bound(app, platform) == pytest.approx(10.0)


class TestValidationErrors:
    def test_period_rejects_invalid_mapping(self, small_app, small_platform):
        mapping = IntervalMapping([(0, 2)], [0])  # only 3 of the 4 stages
        with pytest.raises(InvalidMappingError):
            period(small_app, small_platform, mapping)
