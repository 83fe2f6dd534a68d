"""Unit tests for the shared splitting engine (trajectory-trie nodes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.application import PipelineApplication
from repro.core.costs import evaluate, interval_cycle_time
from repro.core.exceptions import InvalidPlatformError
from repro.core.platform import Platform
from repro.core.tables import instance_tables
from repro.extensions.replication import evaluate_replicated, from_interval_mapping
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics import get_heuristic
from repro.heuristics.base import Objective, stop_limit
from repro.heuristics.engine import SelectionRule, trajectory
from tests.conftest import random_instance


class TestInitialState:
    def test_starts_on_fastest_processor(self, small_app, small_platform):
        root = trajectory(small_app, small_platform, SelectionRule.MONO)
        assert len(root.intervals) == 1
        assert root.processors == (small_platform.fastest_processor,)
        assert root.depth == 0
        ev = evaluate(small_app, small_platform, root.mapping())
        assert root.period == ev.period
        assert root.latency == ev.latency

    def test_unused_processor_order(self, small_platform, small_app):
        root = trajectory(small_app, small_platform, SelectionRule.MONO)
        assert root.unused == (1, 2)

    def test_custom_processor_order(self, small_app, small_platform):
        root = trajectory(small_app, small_platform, SelectionRule.MONO, order=(2, 0, 1))
        assert root.processors == (2,)
        assert root.unused == (0, 1)

    def test_rejects_heterogeneous_links(self, small_app):
        platform = Platform.fully_heterogeneous(
            [1.0, 2.0, 3.0],
            [[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]],
        )
        with pytest.raises(InvalidPlatformError):
            trajectory(small_app, platform, SelectionRule.MONO)


class TestTwoWaySplit:
    def test_candidate_metrics_match_cost_model(self, small_app, small_platform):
        child = trajectory(small_app, small_platform, SelectionRule.MONO).child(None)
        assert child is not None
        # re-evaluating the child's mapping must agree with its metrics
        ev = evaluate(small_app, small_platform, child.mapping())
        assert child.period == ev.period
        assert child.latency == ev.latency

    def test_single_stage_interval_cannot_split(self, small_platform):
        app = PipelineApplication([5.0], [1.0, 1.0])
        assert trajectory(app, small_platform, SelectionRule.MONO).child(None) is None

    def test_mono_rule_minimises_local_max(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        root = trajectory(app, platform, SelectionRule.MONO)
        best = root.child(None)
        assert best is not None
        # exhaustively verify no other cut/orientation has a lower local max
        iv = root.intervals[0]
        proc_j, new_proc = root.processors[0], root.unused[0]
        for cut in range(iv.start, iv.end):
            for procs in ((proc_j, new_proc), (new_proc, proc_j)):
                mapping = root.mapping().replace(
                    0, [(iv.start, cut), (cut + 1, iv.end)], procs
                )
                (left, right), (pl, pr) = mapping.intervals, mapping.processors
                touched = max(
                    interval_cycle_time(app, platform, left, pl, None, pr),
                    interval_cycle_time(app, platform, right, pr, pl, None),
                )
                assert touched >= max(best.cycles) - 1e-9

    def test_latency_cap_filters_candidates(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        root = trajectory(app, platform, SelectionRule.MONO)
        assert root.child(None) is not None
        capped = root.child(stop_limit(root.latency))
        # keeping the latency at its optimum forbids every split here
        assert capped is None or capped.latency <= root.latency * (1 + 1e-9)


class TestThreeWaySplit:
    def test_requires_two_processors(self, small_app):
        platform = Platform.communication_homogeneous([4.0, 2.0], bandwidth=10.0)
        assert trajectory(small_app, platform, SelectionRule.MONO).child(None) is not None
        assert trajectory(small_app, platform, SelectionRule.MONO, 3).child(None) is None

    def test_requires_three_stages(self, small_platform):
        app = PipelineApplication([5.0, 5.0], [1.0, 1.0, 1.0])
        assert trajectory(app, small_platform, SelectionRule.MONO, 3).child(None) is None

    def test_takes_no_latency_limit(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        root = trajectory(app, platform, SelectionRule.MONO, 3)
        with pytest.raises(ValueError):
            root.child(stop_limit(root.latency))

    def test_candidate_matches_cost_model(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        root = trajectory(app, platform, SelectionRule.MONO, 3)
        child = root.child(None)
        assert child is not None
        assert len(child.intervals) == 3
        assert set(child.processors) == {root.processors[0], *root.unused[:2]}
        ev = evaluate(app, platform, child.mapping())
        assert child.period == ev.period
        assert child.latency == ev.latency

    def test_three_way_at_least_as_good_as_locally(self, medium_instance):
        """A 3-way child exists only when every part beats the old bottleneck."""
        app, platform = medium_instance.application, medium_instance.platform
        root = trajectory(app, platform, SelectionRule.MONO, 3)
        child = root.child(None)
        if child is not None:
            assert child.period < root.period


class TestApply:
    def test_apply_consumes_processors(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        root = trajectory(app, platform, SelectionRule.MONO)
        child = root.child(None)
        assert child.unused == root.unused[1:]
        assert len(child.intervals) == 2
        assert child.depth == 1
        assert child.history == root.history + ((child.period, child.latency),)

    def test_repeated_splits_keep_state_consistent(self, medium_instance):
        app, platform = medium_instance.application, medium_instance.platform
        node = trajectory(app, platform, SelectionRule.MONO)
        for _ in range(4):
            node = node.child(None)
            if node is None:
                break
            ev = evaluate(app, platform, node.mapping())
            assert node.period == ev.period
            assert node.latency == ev.latency


class TestRatioRule:
    def test_ratio_prefers_smaller_latency_increase(self, rng):
        """On random instances the ratio-selected split never has a larger
        Δlatency/Δperiod ratio than the mono-selected split."""
        for seed in range(5):
            app, platform = random_instance(8, 6, seed=seed)
            root = trajectory(app, platform, SelectionRule.MONO)
            mono = root.child(None)
            ratio = trajectory(app, platform, SelectionRule.RATIO).child(None)
            if mono is None or ratio is None:
                continue

            def worst_ratio(child):
                # the first split replaces the root's only interval
                deltas = [root.period - c for c in child.cycles]
                if any(d <= 0 for d in deltas):
                    return float("inf")
                return max((child.latency - root.latency) / d for d in deltas)

            assert worst_ratio(ratio) <= worst_ratio(mono) + 1e-9


class TestTieBreaks:
    """Hand-built ties: generated instances do not reach them."""

    def test_ratio_tie_goes_to_the_smaller_largest_cycle(self):
        # all on P0 (speed 4): period = latency = 1.75.  Cut after stage 0:
        # cycles (1.25, 1.0), latency 2.25, score max(0.5/0.5, 0.5/0.75) = 1.
        # Cut after stage 1: cycles (1.5, 0.5), latency 2.0,
        # score max(0.25/0.25, 0.25/1.25) = 1.  Equal scores: the smaller
        # largest new cycle wins over the smaller new latency.
        app = PipelineApplication([5.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])
        platform = Platform.communication_homogeneous([4.0, 2.0], bandwidth=1.0)
        child = trajectory(app, platform, SelectionRule.RATIO).child(None)
        assert child is not None
        assert [(iv.start, iv.end) for iv in child.intervals] == [(0, 0), (1, 2)]
        assert child.processors == (0, 1)
        assert (child.period, child.latency) == (1.25, 2.25)

    def test_mono_tie_goes_to_the_smaller_new_latency(self):
        # all on P0 (speed 4): period 1 + 6/4 = 2.5.  Both orientations of
        # the one cut reach a largest new cycle of 2.0; putting stage 0 on
        # the slow P1 gives latency 2.0 + 1.0 = 3.0, keeping it on P0 gives
        # 1.5 + 2.0 = 3.5, and the first assignment in ``permutations``
        # order is the latter, so only the latency key picks the former.
        app = PipelineApplication([2.0, 4.0], [1.0, 0.0, 0.0])
        platform = Platform.communication_homogeneous([4.0, 2.0], bandwidth=1.0)
        child = trajectory(app, platform, SelectionRule.MONO).child(None)
        assert child is not None
        assert child.processors == (1, 0)
        assert (child.period, child.latency) == (2.0, 3.0)


class TestLatencySum:
    @pytest.mark.parametrize("family", ["E1", "E2", "E3", "E4"])
    def test_trajectory_latencies_equal_evaluate_bitwise(self, family):
        """Every state of the H1-H3 trajectories, and every H1-H6 result of
        a campaign-sized panel, reports the ``(period, latency)`` that
        ``evaluate`` computes, bit for bit: results take the node's point as
        it is, and every path adds eq. (2) left to right, which builtin
        ``sum()`` does not from Python 3.12 on.  The panel (n=40, p=10 and
        100, 10 bounds per objective) reaches the capped H4-H6 tries and
        deep 3-way nodes that small instances rarely do."""
        config = experiment_config(family, 12, 10, n_instances=2)
        n_states = 0
        for inst in generate_instances(config, seed=7):
            app, platform = inst.application, inst.platform
            for key in ("H1", "H2", "H3"):
                node = get_heuristic(key)._root(app, platform)
                while node is not None:
                    mapping = node.mapping()
                    ev = evaluate(app, platform, mapping)
                    assert (node.period, node.latency) == (ev.period, ev.latency)
                    replicated = evaluate_replicated(
                        app, platform, from_interval_mapping(mapping)
                    )
                    assert replicated.latency == ev.latency
                    n_states += 1
                    node = node.child(None)
        assert n_states > 2 * 3  # some trajectory split at least once

        n_results = 0
        with instance_tables():
            for n_processors in (10, 100):
                config = experiment_config(family, 40, n_processors, n_instances=2)
                for inst in generate_instances(config, seed=7):
                    app, platform = inst.application, inst.platform
                    root = trajectory(app, platform, SelectionRule.MONO)
                    end = root.walk()
                    bounds = {
                        "period_bound": np.linspace(0.9 * end.period, root.period, 10),
                        "latency_bound": np.linspace(root.latency, end.latency, 10),
                    }
                    for key in ("H1", "H2", "H3", "H4", "H5", "H6"):
                        heuristic = get_heuristic(key)
                        name = (
                            "period_bound"
                            if heuristic.objective == Objective.MIN_LATENCY_FOR_PERIOD
                            else "latency_bound"
                        )
                        for bound in bounds[name]:
                            result = heuristic.run(app, platform, **{name: float(bound)})
                            ev = evaluate(app, platform, result.mapping)
                            assert result.point == (ev.period, ev.latency), (key, bound)
                            n_results += 1
        assert n_results == 2 * 2 * 6 * 10
