"""Unit tests for the shared splitting engine."""

from __future__ import annotations

import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import evaluate
from repro.core.exceptions import InvalidPlatformError
from repro.core.platform import Platform
from repro.extensions.replication import evaluate_replicated, from_interval_mapping
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics import get_heuristic
from repro.heuristics.engine import SelectionRule, SplittingState
from tests.conftest import random_instance


class TestInitialState:
    def test_starts_on_fastest_processor(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform)
        assert state.n_intervals == 1
        assert state.processors == [small_platform.fastest_processor]
        ev = evaluate(small_app, small_platform, state.mapping())
        assert state.period == pytest.approx(ev.period)
        assert state.latency == pytest.approx(ev.latency)

    def test_unused_processor_order(self, small_platform, small_app):
        state = SplittingState(small_app, small_platform)
        assert state.next_unused(5) == [1, 2]
        assert state.n_unused == 2

    def test_custom_processor_order(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform, processor_order=[2, 0, 1])
        assert state.processors == [2]
        assert state.next_unused(2) == [0, 1]

    def test_invalid_processor_order(self, small_app, small_platform):
        with pytest.raises(InvalidPlatformError):
            SplittingState(small_app, small_platform, processor_order=[0, 0, 1])
        with pytest.raises(InvalidPlatformError):
            SplittingState(small_app, small_platform, processor_order=[0, 7])

    def test_rejects_heterogeneous_links(self, small_app):
        platform = Platform.fully_heterogeneous(
            [1.0, 2.0, 3.0],
            [[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]],
        )
        with pytest.raises(InvalidPlatformError):
            SplittingState(small_app, platform)


class TestTwoWaySplit:
    def test_candidate_metrics_match_cost_model(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform)
        candidate = state.best_two_way_split(0, 1, rule=SelectionRule.MONO)
        assert candidate is not None
        # applying the candidate and re-evaluating must agree with its metrics
        state.apply(candidate)
        ev = evaluate(small_app, small_platform, state.mapping())
        assert candidate.new_period == pytest.approx(ev.period)
        assert candidate.new_latency == pytest.approx(ev.latency)

    def test_single_stage_interval_cannot_split(self, small_platform):
        app = PipelineApplication([5.0], [1.0, 1.0])
        state = SplittingState(app, small_platform)
        assert state.best_two_way_split(0, 1) is None

    def test_mono_rule_minimises_local_max(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        new_proc = state.next_unused(1)[0]
        best = state.best_two_way_split(0, new_proc, rule=SelectionRule.MONO)
        assert best is not None
        # exhaustively verify no other cut/orientation has a lower local max
        iv = state.intervals[0]
        proc_j = state.processors[0]
        for cut in range(iv.start, iv.end):
            for procs in ((proc_j, new_proc), (new_proc, proc_j)):
                mapping = state.mapping().replace(
                    0, [(iv.start, cut), (cut + 1, iv.end)], procs
                )
                ev = evaluate(app, platform, mapping)
                touched = max(c.cycle_time for c in ev.interval_costs)
                assert touched >= best.local_max_cycle - 1e-9

    def test_latency_cap_filters_candidates(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        new_proc = state.next_unused(1)[0]
        unconstrained = state.best_two_way_split(0, new_proc, rule=SelectionRule.MONO)
        assert unconstrained is not None
        capped = state.best_two_way_split(
            0, new_proc, rule=SelectionRule.MONO, latency_cap=state.latency
        )
        # keeping the latency at its optimum forbids every split here
        assert capped is None or capped.new_latency <= state.latency * (1 + 1e-9)

    def test_improvement_requirement(self):
        # the only other processor is so slow that handing it any stage makes
        # the period worse, so no candidate improves and None is returned
        app = PipelineApplication([100.0, 100.0], [0.0, 0.0, 0.0])
        platform = Platform.communication_homogeneous([10.0, 1.0], bandwidth=10.0)
        state = SplittingState(app, platform)
        assert state.best_two_way_split(0, 1, require_improvement=True) is None
        relaxed = state.best_two_way_split(0, 1, require_improvement=False)
        assert relaxed is not None


class TestThreeWaySplit:
    def test_requires_two_processors(self, small_app, small_platform):
        state = SplittingState(small_app, small_platform)
        with pytest.raises(ValueError):
            state.best_three_way_split(0, [1], rule=SelectionRule.MONO)

    def test_requires_three_stages(self, small_platform):
        app = PipelineApplication([5.0, 5.0], [1.0, 1.0, 1.0])
        state = SplittingState(app, small_platform)
        assert state.best_three_way_split(0, [1, 2]) is None

    def test_candidate_matches_cost_model(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        pair = state.next_unused(2)
        candidate = state.best_three_way_split(0, pair, rule=SelectionRule.MONO)
        assert candidate is not None
        assert len(candidate.new_intervals) == 3
        state.apply(candidate)
        ev = evaluate(app, platform, state.mapping())
        assert candidate.new_period == pytest.approx(ev.period)
        assert candidate.new_latency == pytest.approx(ev.latency)

    def test_three_way_at_least_as_good_as_locally(self, medium_instance):
        """The best 3-way split cannot have a worse local max than forced 2-way
        splits that use only one of the two offered processors... unless no
        3-way candidate improves; in that case it returns None."""
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        pair = state.next_unused(2)
        three = state.best_three_way_split(0, pair, rule=SelectionRule.MONO)
        if three is not None:
            assert three.improves_period


class TestApply:
    def test_apply_consumes_processors(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        before_unused = state.n_unused
        candidate = state.best_two_way_split(0, state.next_unused(1)[0])
        state.apply(candidate)
        assert state.n_unused == before_unused - 1
        assert state.n_intervals == 2

    def test_repeated_splits_keep_state_consistent(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        for _ in range(4):
            unused = state.next_unused(1)
            if not unused:
                break
            candidate = state.best_two_way_split(
                state.bottleneck_index, unused[0], require_improvement=False
            )
            if candidate is None:
                break
            state.apply(candidate)
            ev = evaluate(app, platform, state.mapping())
            assert state.period == pytest.approx(ev.period)
            assert state.latency == pytest.approx(ev.latency)

    def test_stale_candidate_rejected(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        state = SplittingState(app, platform)
        candidate = state.best_two_way_split(0, state.next_unused(1)[0])
        bogus = type(candidate)(
            interval_index=5,
            new_intervals=candidate.new_intervals,
            new_processors=candidate.new_processors,
            new_cycles=candidate.new_cycles,
            new_contributions=candidate.new_contributions,
            new_period=candidate.new_period,
            new_latency=candidate.new_latency,
            old_cycle=candidate.old_cycle,
            old_latency=candidate.old_latency,
            score=candidate.score,
        )
        with pytest.raises(ValueError):
            state.apply(bogus)


class TestRatioRule:
    def test_ratio_prefers_smaller_latency_increase(self, rng):
        """On random instances the ratio-selected split never has a larger
        Δlatency/Δperiod ratio than the mono-selected split."""
        for seed in range(5):
            app, platform = random_instance(8, 6, seed=seed)
            state = SplittingState(app, platform)
            new_proc = state.next_unused(1)[0]
            mono = state.best_two_way_split(0, new_proc, rule=SelectionRule.MONO)
            ratio = state.best_two_way_split(0, new_proc, rule=SelectionRule.RATIO)
            if mono is None or ratio is None:
                continue

            def worst_ratio(cand):
                deltas = [cand.old_cycle - c for c in cand.new_cycles]
                if any(d <= 0 for d in deltas):
                    return float("inf")
                return max(cand.delta_latency / d for d in deltas)

            assert worst_ratio(ratio) <= worst_ratio(mono) + 1e-9


class TestLatencySum:
    @pytest.mark.parametrize("family", ["E1", "E2", "E3", "E4"])
    def test_trajectory_latencies_equal_evaluate_bitwise(self, family):
        """Every state of the H1-H3 trajectories reports the latency that
        ``evaluate`` (and the replication extension) adds up, bit for bit:
        all of them add eq. (2) left to right, which builtin ``sum()`` does
        not from Python 3.12 on."""
        config = experiment_config(family, 12, 10, n_instances=2)
        n_states = 0
        for inst in generate_instances(config, seed=7):
            app, platform = inst.application, inst.platform
            for key in ("H1", "H2", "H3"):
                heuristic = get_heuristic(key)
                state = SplittingState(app, platform)
                while True:
                    mapping = state.mapping()
                    expected = evaluate(app, platform, mapping).latency
                    assert state.latency == expected
                    replicated = evaluate_replicated(
                        app, platform, from_interval_mapping(mapping)
                    )
                    assert replicated.latency == expected
                    n_states += 1
                    candidate = heuristic._step_candidate(state)
                    if candidate is None:
                        break
                    state.apply(candidate)
        assert n_states > 2 * 3  # some trajectory split at least once
