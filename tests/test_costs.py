"""Unit tests for the analytical cost model (eqs. 1 and 2)."""

from __future__ import annotations

import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import (
    _interval_terms,
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

    def test_interval_terms_breakdown(self, small_app, small_platform):
        # interval 0: delta_0 = 10 in at b = 10, work 6 at speed 4, delta_2 = 6 out
        cycle, contribution, output = _interval_terms(10.0, 6.0, 6.0, 4.0, 10.0, 10.0)
        assert output == pytest.approx(0.6)
        assert contribution == pytest.approx(1.0 + 1.5)
        assert cycle == pytest.approx(3.1)
        assert interval_cycle_time(
            small_app, small_platform, Interval(0, 1), 0, None, 1
        ) == cycle
        assert interval_cycle_time(
            small_app, small_platform, Interval(2, 3), 1, 0, None
        ) == pytest.approx(8.6)

    def test_zero_communication_is_free(self):
        _, contribution, output = _interval_terms(0.0, 0.0, 6.0, 4.0, 0.0, 0.0)
        assert (contribution, output) == (1.5, 0.0)

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
        assert ev.period == max(c0, c1)
        assert period(small_app, small_platform, mapping) == max(c0, c1)

    def test_latency_adds_eq2_left_to_right(self, small_app, small_platform):
        mapping = IntervalMapping([(0, 0), (1, 1), (2, 3)], [0, 2, 1])
        ev = evaluate(small_app, small_platform, mapping)
        app, platform, procs = small_app, small_platform, mapping.processors
        total = 0.0
        for j, iv in enumerate(mapping.intervals):
            _, contribution, output = _interval_terms(
                app.comm(iv.start),
                app.comm(iv.end + 1),
                app.work_sum(iv.start, iv.end),
                platform.speed(procs[j]),
                platform.input_bandwidth if j == 0 else platform.bandwidth(procs[j - 1], procs[j]),
                platform.output_bandwidth if j == 2 else platform.bandwidth(procs[j], procs[j + 1]),
            )
            total += contribution
        expected = total + output
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
