"""Tests of the vectorized batch cost kernel (``evaluate_batch``).

The contract is exact parity with the scalar path: for any valid mapping the
batched period/latency equal what :func:`repro.core.costs.evaluate` returns,
bit for bit, since the kernel performs the same floating-point operations on
flat arrays and adds the latency in the same left-to-right order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import (
    BatchEvaluation,
    evaluate,
    evaluate_batch,
    interval_time_components,
    latency,
    period,
)
from repro.core.exceptions import InvalidMappingError
from repro.core.mapping import IntervalMapping
from repro.core.platform import Platform
from repro.exact.brute_force import enumerate_interval_mappings
from repro.generators.experiments import experiment_config, generate_instances


# ----------------------------------------------------------------------------- #
# strategies
# ----------------------------------------------------------------------------- #
positive_floats = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
sizes = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def instances_with_mappings(draw, max_stages: int = 10, max_procs: int = 6):
    """A random application/platform pair plus a batch of valid mappings."""
    from repro.core.application import PipelineApplication

    n = draw(st.integers(min_value=1, max_value=max_stages))
    works = draw(st.lists(positive_floats, min_size=n, max_size=n))
    comms = draw(st.lists(sizes, min_size=n + 1, max_size=n + 1))
    app = PipelineApplication(works, comms)

    p = draw(st.integers(min_value=1, max_value=max_procs))
    speeds = draw(
        st.lists(st.integers(min_value=1, max_value=20), min_size=p, max_size=p)
    )
    bandwidth = draw(st.floats(min_value=1.0, max_value=50.0))
    platform = Platform.communication_homogeneous(
        [float(s) for s in speeds], bandwidth
    )

    n_mappings = draw(st.integers(min_value=1, max_value=5))
    mappings = []
    for _ in range(n_mappings):
        m = draw(st.integers(min_value=1, max_value=min(n, p)))
        boundaries = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 2),
                    min_size=m - 1,
                    max_size=m - 1,
                    unique=True,
                )
            )
        ) if m > 1 else []
        procs = draw(st.permutations(list(range(p))))[:m]
        mappings.append(IntervalMapping.from_boundaries(boundaries, procs, n))
    return app, platform, mappings


# ----------------------------------------------------------------------------- #
# parity with the scalar path
# ----------------------------------------------------------------------------- #
class TestScalarParity:
    @given(instances_with_mappings())
    @settings(max_examples=120, deadline=None)
    def test_batched_matches_scalar_bitwise(self, case):
        """Property: batched results equal scalar evaluate() bit for bit."""
        app, platform, mappings = case
        batch = evaluate_batch(app, platform, mappings)
        assert batch.n_mappings == len(mappings)
        for i, mapping in enumerate(mappings):
            scalar = evaluate(app, platform, mapping)
            assert batch.point(i) == (scalar.period, scalar.latency)

    def test_parity_over_full_enumeration(self):
        """Every mapping of a full enumeration agrees with the scalar path."""
        config = experiment_config("E2", 7, 5, n_instances=2)
        for inst in generate_instances(config, seed=13):
            app, platform = inst.application, inst.platform
            mappings = list(enumerate_interval_mappings(app, platform))
            batch = evaluate_batch(app, platform, mappings, validate=False)
            for i in (0, len(mappings) // 3, len(mappings) // 2, len(mappings) - 1):
                scalar = evaluate(app, platform, mappings[i])
                assert batch.point(i) == (scalar.period, scalar.latency)

    def test_parity_on_heterogeneous_platform(self):
        """The kernel handles per-link bandwidths like the scalar path."""
        rng = np.random.default_rng(29)
        p = 5
        mat = rng.uniform(2.0, 20.0, size=(p, p))
        mat = (mat + mat.T) / 2.0
        platform = Platform.fully_heterogeneous(
            rng.uniform(1.0, 10.0, p),
            mat,
            input_bandwidth=5.0,
            output_bandwidth=7.0,
        )
        config = experiment_config("E2", 6, 5, n_instances=1)
        app = generate_instances(config, seed=17)[0].application
        mappings = list(enumerate_interval_mappings(app, platform))
        batch = evaluate_batch(app, platform, mappings)
        for i, mapping in enumerate(mappings):
            scalar = evaluate(app, platform, mapping)
            assert batch.point(i) == (scalar.period, scalar.latency)

    def test_zero_communication_sizes(self):
        """delta = 0 boundaries cost nothing in both paths."""
        from repro.core.application import PipelineApplication

        app = PipelineApplication([3.0, 5.0, 2.0], [0.0, 0.0, 4.0, 0.0])
        platform = Platform.communication_homogeneous([2.0, 1.0], bandwidth=4.0)
        mappings = [
            IntervalMapping([(0, 1), (2, 2)], [0, 1]),
            IntervalMapping.single_processor(3, 0),
        ]
        batch = evaluate_batch(app, platform, mappings)
        for i, mapping in enumerate(mappings):
            scalar = evaluate(app, platform, mapping)
            assert batch.point(i) == (scalar.period, scalar.latency)


# ----------------------------------------------------------------------------- #
# API surface
# ----------------------------------------------------------------------------- #
class TestBatchApi:
    def test_empty_batch(self, small_app, small_platform):
        batch = evaluate_batch(small_app, small_platform, [])
        assert batch.n_mappings == 0
        assert len(batch) == 0
        assert batch.points() == []

    def test_columns_match_scalar_period_and_latency(self, small_app, small_platform):
        mappings = [
            IntervalMapping.single_processor(small_app.n_stages, 0),
            IntervalMapping([(0, 1), (2, 3)], [0, 1]),
        ]
        batch = evaluate_batch(small_app, small_platform, mappings)
        assert batch.periods.tolist() == [
            period(small_app, small_platform, m) for m in mappings
        ]
        assert batch.latencies.tolist() == [
            latency(small_app, small_platform, m) for m in mappings
        ]

    def test_points_accessors(self, small_app, small_platform):
        mappings = [IntervalMapping.single_processor(small_app.n_stages, 0)]
        batch = evaluate_batch(small_app, small_platform, mappings)
        scalar = evaluate(small_app, small_platform, mappings[0])
        assert batch.point(0) == (scalar.period, scalar.latency)
        assert batch.points()[0] == batch.point(0)

    def test_validation_rejects_mismatched_mapping(self, small_app, small_platform):
        wrong = IntervalMapping.single_processor(small_app.n_stages + 1, 0)
        with pytest.raises(InvalidMappingError):
            evaluate_batch(small_app, small_platform, [wrong])

    def test_validation_can_be_disabled(self, small_app, small_platform):
        mappings = [IntervalMapping.single_processor(small_app.n_stages, 0)]
        batch = evaluate_batch(small_app, small_platform, mappings, validate=False)
        assert batch.n_mappings == 1

    def test_result_arrays_are_read_only(self, small_app, small_platform):
        mappings = [IntervalMapping.single_processor(small_app.n_stages, 0)]
        batch = evaluate_batch(small_app, small_platform, mappings)
        with pytest.raises(ValueError):
            batch.periods[0] = 0.0

    def test_batch_evaluation_dataclass(self):
        batch = BatchEvaluation(
            periods=np.array([1.0, 2.0]), latencies=np.array([3.0, 4.0])
        )
        assert batch.n_mappings == 2
        assert batch.points() == [(1.0, 3.0), (2.0, 4.0)]


# ----------------------------------------------------------------------------- #
# shared kernel
# ----------------------------------------------------------------------------- #
class TestIntervalTimeComponents:
    def test_scalar_inputs_match_hand_computation(self):
        prefix = np.array([0.0, 4.0, 6.0, 12.0, 20.0])
        comm = np.array([10.0, 4.0, 6.0, 2.0, 10.0])
        inp, work, out = interval_time_components(
            prefix, comm, 1, 2, 2.0,
            bandwidth=10.0, input_bandwidth=5.0, output_bandwidth=2.0, n_stages=4,
        )
        # interval [1, 2]: reads delta_1 over b, computes (w_1 + w_2)/2,
        # writes delta_3 over b (neither boundary touches the outside world)
        assert float(inp) == pytest.approx(4.0 / 10.0)
        assert float(work) == pytest.approx((6.0 + 6.0 - 4.0) / 2.0)
        assert float(out) == pytest.approx(2.0 / 10.0)

    def test_boundary_intervals_use_io_bandwidths(self):
        prefix = np.array([0.0, 4.0, 6.0])
        comm = np.array([10.0, 4.0, 8.0])
        inp, _, _ = interval_time_components(
            prefix, comm, 0, 0, 1.0,
            bandwidth=10.0, input_bandwidth=5.0, output_bandwidth=2.0, n_stages=2,
        )
        _, _, out = interval_time_components(
            prefix, comm, 1, 1, 1.0,
            bandwidth=10.0, input_bandwidth=5.0, output_bandwidth=2.0, n_stages=2,
        )
        assert float(inp) == pytest.approx(10.0 / 5.0)   # delta_0 / b_in
        assert float(out) == pytest.approx(8.0 / 2.0)    # delta_n / b_out

    def test_array_inputs_broadcast(self):
        prefix = np.array([0.0, 1.0, 3.0, 6.0])
        comm = np.array([1.0, 2.0, 3.0, 4.0])
        starts = np.array([0, 1])
        ends = np.array([0, 2])
        inp, work, out = interval_time_components(
            prefix, comm, starts, ends, 2.0,
            bandwidth=10.0, input_bandwidth=10.0, output_bandwidth=10.0, n_stages=3,
        )
        assert inp.shape == work.shape == out.shape == (2,)
        assert work[1] == pytest.approx((6.0 - 1.0) / 2.0)
