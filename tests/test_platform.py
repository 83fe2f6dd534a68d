"""Unit tests for :mod:`repro.core.platform`."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.exceptions import InvalidPlatformError
from repro.core.platform import Platform, PlatformClass, Processor
from repro.core.serialization import platform_from_dict, platform_to_dict
from repro.scenarios.families import family_names, generate_scenarios
from repro.utils.shm import InstanceArena, resolve_instance


class TestProcessor:
    def test_compute_time(self):
        proc = Processor(index=0, speed=4.0)
        assert proc.compute_time(8.0) == pytest.approx(2.0)

    def test_default_name(self):
        assert Processor(index=2, speed=1.0).name == "P3"


class TestConstruction:
    def test_scalar_bandwidth(self):
        platform = Platform([1.0, 2.0], 10.0)
        assert platform.n_processors == 2
        assert platform.bandwidth(0, 1) == 10.0
        assert platform.uniform_bandwidth == 10.0

    def test_matrix_bandwidth(self):
        mat = [[0.0, 5.0], [5.0, 0.0]]
        platform = Platform([1.0, 2.0], mat)
        assert platform.bandwidth(0, 1) == 5.0
        assert platform.bandwidth(1, 0) == 5.0

    def test_intra_processor_bandwidth_is_infinite(self):
        platform = Platform([1.0, 2.0], 10.0)
        assert platform.bandwidth(0, 0) == float("inf")

    def test_empty_speeds_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([], 10.0)

    def test_non_positive_speed_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([1.0, 0.0], 10.0)
        with pytest.raises(InvalidPlatformError):
            Platform([1.0, -1.0], 10.0)

    def test_non_positive_bandwidth_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([1.0], 0.0)

    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([1.0, 2.0], [[1.0]])

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([1.0, 2.0], [[0.0, 1.0], [2.0, 0.0]])

    def test_negative_matrix_entry_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([1.0, 2.0], [[0.0, -1.0], [-1.0, 0.0]])

    def test_io_bandwidth_defaults_and_overrides(self):
        platform = Platform([1.0, 2.0], 10.0)
        assert platform.input_bandwidth == 10.0
        assert platform.output_bandwidth == 10.0
        custom = Platform([1.0, 2.0], 10.0, input_bandwidth=3.0, output_bandwidth=4.0)
        assert custom.input_bandwidth == 3.0
        assert custom.output_bandwidth == 4.0

    def test_invalid_io_bandwidth_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([1.0], 10.0, input_bandwidth=0.0)


class TestClassification:
    def test_fully_homogeneous(self):
        platform = Platform.fully_homogeneous(3, speed=2.0, bandwidth=5.0)
        assert platform.platform_class is PlatformClass.FULLY_HOMOGENEOUS
        assert platform.is_communication_homogeneous

    def test_communication_homogeneous(self, small_platform):
        assert (
            small_platform.platform_class is PlatformClass.COMMUNICATION_HOMOGENEOUS
        )
        assert small_platform.is_communication_homogeneous

    def test_fully_heterogeneous(self):
        mat = [[0.0, 5.0, 2.0], [5.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        platform = Platform.fully_heterogeneous([1.0, 2.0, 3.0], mat)
        assert platform.platform_class is PlatformClass.FULLY_HETEROGENEOUS
        assert not platform.is_communication_homogeneous
        with pytest.raises(InvalidPlatformError):
            _ = platform.uniform_bandwidth

    def test_matrix_with_identical_entries_is_comm_homogeneous(self):
        mat = np.full((3, 3), 7.0)
        platform = Platform([1.0, 2.0, 3.0], mat)
        assert platform.is_communication_homogeneous
        assert platform.uniform_bandwidth == 7.0


class TestClassificationCache:
    """``platform_class`` is computed once and never goes stale."""

    @pytest.mark.parametrize("family", family_names())
    def test_memoised_value_equals_fresh_classification(self, family):
        for scenario in generate_scenarios(4, family, seed=5):
            platform = scenario.platform
            memoised = platform.platform_class
            assert platform.platform_class is memoised  # served from the slot
            assert memoised is platform._classify()
            rebuilt = platform_from_dict(platform_to_dict(platform))
            assert rebuilt.platform_class is memoised

    def test_every_class_is_memoised(self):
        platforms = [
            Platform.fully_homogeneous(3, speed=2.0, bandwidth=5.0),
            Platform.communication_homogeneous([4.0, 2.0, 1.0], 10.0),
            Platform.fully_heterogeneous(
                [1.0, 2.0, 3.0], [[0.0, 5.0, 2.0], [5.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
            ),
        ]
        for platform, expected in zip(platforms, PlatformClass):
            assert platform._platform_class is None
            assert platform.platform_class is expected
            assert platform._platform_class is expected

    @pytest.mark.parametrize("classified", [True, False])
    def test_survives_pickle_round_trip(self, classified):
        for scenario in generate_scenarios(6, "heterogeneous*", seed=2):
            platform = scenario.platform
            if classified:
                platform.platform_class
            clone = pickle.loads(pickle.dumps(platform))
            assert clone.platform_class is platform.platform_class
            assert clone.platform_class is clone._classify()

    def test_survives_instance_arena_round_trip(self):
        pairs = [
            (scenario.application, scenario.platform)
            for scenario in generate_scenarios(8, seed=11)
        ]
        for _, platform in pairs:
            platform.platform_class
        arena = InstanceArena(pairs)
        arena.shipment().install()
        for pair in pairs:
            _, platform = resolve_instance(arena.ref(*pair))
            assert platform.platform_class is pair[1].platform_class
            assert platform.platform_class is platform._classify()


class TestOrderingHelpers:
    def test_processors_by_speed_descending(self, small_platform):
        assert small_platform.processors_by_speed() == [0, 1, 2]

    def test_processors_by_speed_tie_break_by_index(self):
        platform = Platform([2.0, 5.0, 5.0, 1.0], 10.0)
        assert platform.processors_by_speed() == [1, 2, 0, 3]
        assert platform.processors_by_speed(descending=False) == [3, 0, 1, 2]

    def test_fastest_processor_and_speeds(self, small_platform):
        assert small_platform.fastest_processor == 0
        assert small_platform.max_speed == 4.0
        assert small_platform.total_speed == 7.0

    def test_speed_lookup_and_bounds(self, small_platform):
        assert small_platform.speed(1) == 2.0
        with pytest.raises(InvalidPlatformError):
            small_platform.speed(3)
        with pytest.raises(InvalidPlatformError):
            small_platform.speed(-1)


class TestRestrictAndIteration:
    def test_restrict_scalar_bandwidth(self, small_platform):
        sub = small_platform.restrict([2, 0])
        assert sub.n_processors == 2
        assert list(sub.speeds) == [1.0, 4.0]
        assert sub.uniform_bandwidth == 10.0

    def test_restrict_matrix_bandwidth(self):
        mat = [[0.0, 5.0, 2.0], [5.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        platform = Platform.fully_heterogeneous([1.0, 2.0, 3.0], mat)
        sub = platform.restrict([0, 2])
        assert sub.bandwidth(0, 1) == 2.0

    def test_restrict_empty_rejected(self, small_platform):
        with pytest.raises(InvalidPlatformError):
            small_platform.restrict([])

    def test_iteration_yields_processors(self, small_platform):
        procs = list(small_platform)
        assert [p.index for p in procs] == [0, 1, 2]
        assert [p.speed for p in procs] == [4.0, 2.0, 1.0]

    def test_bandwidth_matrix_has_inf_diagonal(self, small_platform):
        mat = small_platform.bandwidth_matrix()
        assert np.all(np.isinf(np.diag(mat)))
        assert mat[0, 1] == 10.0


class TestEqualityAndDescribe:
    def test_equality(self):
        a = Platform([1.0, 2.0], 10.0)
        b = Platform([1.0, 2.0], 10.0)
        c = Platform([1.0, 3.0], 10.0)
        assert a == b
        assert a != c

    def test_describe_mentions_processors_and_bandwidth(self, small_platform):
        text = small_platform.describe()
        assert "P1" in text and "P3" in text
        assert "b=10" in text

    def test_repr(self, small_platform):
        assert "p=3" in repr(small_platform)
