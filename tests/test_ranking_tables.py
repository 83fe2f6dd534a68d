"""Split rankings read per-instance boundary tables; 3-way nodes select without sorting.

:class:`repro.heuristics.engine._Ranking` takes every part's terms from
the instance's boundary tables (``_Instance.in_time``/``out_time`` and the
work prefix sums) instead of calling the cost kernel per split, and a
3-way node keeps the least candidate of each selection key in turn instead
of sorting its ``O(n²)`` candidates.  These tests pin both down:

* the boundary tables plus the prefix slices equal
  :func:`~repro.core.costs.interval_time_components` for every part of
  every family, zero-communication stages included;
* every edge of a 3-way trie equals the first entry of one full
  ``np.lexsort`` over the split's candidates
  (``splitting_reference.lexsort_step``);
* two hand-built 3-way splits are decided by the second key (largest new
  cycle time) and by the third (new latency).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.application import PipelineApplication
from repro.core.costs import interval_time_components
from repro.core.platform import Platform
from repro.core.tables import instance_tables
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics import SelectionRule, engine, trajectory
from repro.scenarios.families import FAMILIES
from splitting_reference import lexsort_step, state_fields

COMM_HOMOGENEOUS_FAMILIES = [name for name in FAMILIES if name != "heterogeneous-links"]
EXPERIMENT_FAMILIES = ["E1", "E2", "E3", "E4"]


def _experiment_pair(family, n_stages, n_processors, seed):
    config = experiment_config(family, n_stages, n_processors, n_instances=1)
    inst = generate_instances(config, seed=seed)[0]
    return inst.application, inst.platform


# --------------------------------------------------------------------------- #
# boundary tables
# --------------------------------------------------------------------------- #
def _assert_tables_match_the_kernel(app, platform):
    inst = engine._Instance(app, platform)
    starts, ends = np.triu_indices(app.n_stages)  # every part [start, end]
    want = interval_time_components(
        app.work_prefix, app.comm_sizes, starts, ends, 1.0,
        bandwidth=platform.uniform_bandwidth,
        input_bandwidth=platform.input_bandwidth,
        output_bandwidth=platform.output_bandwidth,
        n_stages=app.n_stages,
    )
    got = (
        inst.in_time[starts],
        inst.prefix[ends + 1] - inst.prefix[starts],
        inst.out_time[ends],
    )
    for name, g, w in zip(("input", "work", "output"), got, want):
        assert np.array_equal(g, w), name


class TestBoundaryTables:
    @pytest.mark.parametrize("family", COMM_HOMOGENEOUS_FAMILIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_scenario_families(self, family, seed):
        _assert_tables_match_the_kernel(
            *FAMILIES[family].build(np.random.default_rng(seed))
        )

    @pytest.mark.parametrize("family", EXPERIMENT_FAMILIES)
    def test_experiment_families(self, family):
        _assert_tables_match_the_kernel(*_experiment_pair(family, 30, 10, 3))

    def test_zero_communication_stages_and_distinct_end_links(self):
        # zero-size input, output and inner boundaries, over links whose
        # input, inner and output bandwidths all differ
        app = PipelineApplication(
            [3.0, 0.0, 5.0, 1.5, 0.0, 2.0], [0.0, 4.0, 0.0, 0.0, 2.5, 1.0, 0.0]
        )
        platform = Platform(
            [4.0, 2.0, 1.0], 2.0, input_bandwidth=0.5, output_bandwidth=3.0
        )
        assert platform.is_communication_homogeneous
        _assert_tables_match_the_kernel(app, platform)
        inst = engine._Instance(app, platform)
        assert inst.in_time[0] == 0.0 and inst.out_time[-1] == 0.0
        assert inst.in_time[1] == 4.0 / 2.0 and inst.out_time[0] == 4.0 / 2.0


# --------------------------------------------------------------------------- #
# 3-way selection: the first entry of a full lexsort
# --------------------------------------------------------------------------- #
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(EXPERIMENT_FAMILIES),
    n_stages=st.integers(3, 60),
    n_processors=st.integers(3, 24),
    seed=st.integers(0, 2**32 - 1),
    rule=st.sampled_from([SelectionRule.MONO, SelectionRule.RATIO]),
)
def test_three_way_edges_are_the_first_lexsort_entry(
    family, n_stages, n_processors, seed, rule
):
    app, platform = _experiment_pair(family, n_stages, n_processors, seed)
    inst = engine._Instance(app, platform)
    with instance_tables():
        node = trajectory(app, platform, rule, 3)
        while node is not None:
            got = node.child(None)
            want = lexsort_step(inst, node, rule, 3)
            assert state_fields(got) == state_fields(want), (family, seed, rule, node.depth)
            node = got


class TestThreeWayTieBreaks:
    """Hand-built 3-way ties, found by a search over small integer instances.

    Both split the three stages ``[0, 2]`` one stage per part; with a single
    cut pair, the candidates are the six assignments of the parts to the
    processors, in ``permutations`` order.
    """

    def test_ratio_tie_goes_to_the_smaller_largest_cycle(self):
        # all on P0 (speed 4): period = latency = 1 + 4/4 = 2.
        # (P0, P1, P2): cycles (1.25, 0.5, 1.0), latency 2.75,
        #   score max(0.75/0.75, 0.75/1.5, 0.75/1.0) = 1.
        # (P1, P2, P0): cycles (1.5, 0.5, 0.5), latency 2.5,
        #   score max(0.5/0.5, 0.5/1.5, 0.5/1.5) = 1.
        # Equal scores: the smaller largest new cycle wins although its new
        # latency is the larger.
        app = PipelineApplication([1.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0])
        platform = Platform.communication_homogeneous([4.0, 2.0, 2.0], bandwidth=1.0)
        child = trajectory(app, platform, SelectionRule.RATIO, 3).child(None)
        assert child is not None
        assert [(iv.start, iv.end) for iv in child.intervals] == [(0, 0), (1, 1), (2, 2)]
        assert child.processors == (0, 1, 2)
        assert child.cycles == (1.25, 0.5, 1.0)
        assert (child.period, child.latency) == (1.25, 2.75)

    def test_mono_tie_goes_to_the_smaller_new_latency(self):
        # all on P0 (speed 2): period = latency = 1 + 4/2 = 3.
        # (P0, P1, P2): cycles (1.5, 1.0, 2.0), latency 4.5.
        # (P1, P2, P0): cycles (2.0, 1.0, 1.0), latency 4.0.
        # Both reach a largest new cycle of 2.0 (the mono score): the first
        # assignment in ``permutations`` order is the former, so only the
        # latency key picks the latter.
        app = PipelineApplication([1.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0])
        platform = Platform.communication_homogeneous([2.0, 1.0, 1.0], bandwidth=1.0)
        child = trajectory(app, platform, SelectionRule.MONO, 3).child(None)
        assert child is not None
        assert child.processors == (1, 2, 0)
        assert child.cycles == (2.0, 1.0, 1.0)
        assert (child.period, child.latency) == (2.0, 4.0)
