"""Differential parity of the kernels over the scenario families.

The kernel contract (:mod:`repro.core.kernels`) is two-tiered:

* the compiled engine is **bit-identical** to numpy — it computes the same
  elementwise terms and every reduction stays in numpy, so periods,
  latencies and DP tables match to the last bit;
* the scalar reference DP loops (:mod:`repro.core.kernels.reference`)
  agree within 1e-9 relative — same mathematics, different tie rule.

Every evaluator of a mapping — scalar :func:`~repro.core.costs.evaluate`,
:func:`~repro.core.costs.evaluate_batch` with the engine on or off, and the
local search's :class:`~repro.solvers.moves.MappingState` — adds eq. (2)
left to right, so all of them agree with ``==``.

Kernel-level cases call the engine's functions
(:func:`repro.core.kernels.compiled.engine_functions`) and the reference
ones directly; solver-level cases run the solvers with the engine on (the
default wherever it validated) against the engine off
(:func:`tests.kernel_engine.engine_disabled`).  Instances come from **all
eight scenario families** (the differential-fuzzing generators, which
cover the degenerate shapes the experiment families never produce), plus
a replay of the archived counterexample corpus with the engine on: every
instance that once broke a solver must keep its full solver cross-check
green when the compiled kernels serve the hot paths.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.application import PipelineApplication
from repro.core.costs import _pack_mappings, evaluate, evaluate_batch
from repro.core.kernels import compiled, dispatch, reference
from repro.core.mapping import IntervalMapping
from repro.core.platform import Platform
from repro.exact.homogeneous_dp import (
    homogeneous_min_latency_for_period,
    homogeneous_min_period,
)
from repro.scenarios import (
    differential_check,
    family_names,
    generate_scenarios,
    load_corpus,
)
from repro.solvers import get_solver
from repro.solvers.moves import MappingState
from tests.kernel_engine import engine_disabled, scalar_tables
from tests.test_corpus_replay import CORPUS_DIR

_REL_TOL = 1e-9

ENTRIES = load_corpus(CORPUS_DIR)


# ----------------------------------------------------------------------------- #
# strategies: one scenario from any family, plus mappings for it
# ----------------------------------------------------------------------------- #
@st.composite
def scenario_instances(draw):
    """An (application, platform) pair drawn from any scenario family."""
    family = draw(st.sampled_from(family_names()))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scenario = generate_scenarios(1, [family], seed)[0]
    return scenario.application, scenario.platform


def _random_mappings(app, platform, seed: int, count: int = 6):
    """Valid interval mappings: contiguous stage partitions, distinct procs."""
    rng = np.random.default_rng(seed)
    n, p = app.n_stages, platform.n_processors
    mappings = []
    for _ in range(count):
        k = int(rng.integers(1, min(n, p) + 1))
        boundaries = sorted(
            int(b) for b in rng.choice(np.arange(n - 1), size=k - 1, replace=False)
        ) if k > 1 else []
        procs = [int(q) for q in rng.permutation(p)[:k]]
        mappings.append(IntervalMapping.from_boundaries(boundaries, procs, n))
    return mappings


# ----------------------------------------------------------------------------- #
# elementwise kernels: batch_terms and evaluate_batch
# ----------------------------------------------------------------------------- #
def _batch_terms_args(app, platform, mappings) -> tuple:
    """The packed ``batch_terms`` arguments :func:`evaluate_batch` builds."""
    starts, ends, procs, offsets = _pack_mappings(mappings)
    homogeneous = platform.is_communication_homogeneous
    return (
        app.comm_sizes, app.work_prefix, platform.speeds,
        starts, ends, procs, offsets, app.n_stages, homogeneous,
        platform.uniform_bandwidth if homogeneous else 0.0,
        platform.input_bandwidth, platform.output_bandwidth,
        None if homogeneous else platform.bandwidth_matrix(),
    )


class TestBatchParity:
    @given(case=scenario_instances(), mapping_seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_compiled_bit_identical_to_numpy(self, case, mapping_seed):
        """Property: the engine's batch_terms == numpy, bit for bit.

        Called directly: the dispatcher only routes batches of
        ``ELEMENTWISE_COMPILED_MIN`` intervals and up to the engine, far
        more than a hypothesis-sized batch holds.
        """
        funcs = compiled.engine_functions()
        if funcs is None:
            return
        app, platform = case
        args = _batch_terms_args(
            app, platform, _random_mappings(app, platform, mapping_seed)
        )
        want = reference.batch_terms_numpy(*args)
        got = funcs["batch_terms"](*args)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @given(case=scenario_instances(), mapping_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_scalar_batch_and_state_agree_bitwise(self, case, mapping_seed):
        """Property: every evaluator returns the same period and latency."""
        app, platform = case
        _assert_evaluators_agree(
            app, platform, _random_mappings(app, platform, mapping_seed)
        )

    @pytest.mark.parametrize("family", family_names())
    def test_every_family_agrees_bitwise(self, family):
        """The same agreement on each of the eight scenario families."""
        for seed, scenario in enumerate(generate_scenarios(4, [family], 7)):
            app, platform = scenario.application, scenario.platform
            _assert_evaluators_agree(
                app, platform, _random_mappings(app, platform, seed, count=12)
            )


def _assert_evaluators_agree(app, platform, mappings) -> None:
    """Scalar evaluate == evaluate_batch (engine on, engine off) == state.

    The dispatch floor is lowered to 0 so that a batch this small reaches
    the engine wherever it validated.
    """
    with mock.patch.object(dispatch, "ELEMENTWISE_COMPILED_MIN", 0):
        served = evaluate_batch(app, platform, mappings)
    with engine_disabled():
        on_numpy = evaluate_batch(app, platform, mappings)
    for i, mapping in enumerate(mappings):
        scalar = evaluate(app, platform, mapping)
        want = (scalar.period, scalar.latency)
        state = MappingState(app, platform, mapping)
        assert served.point(i) == want
        assert on_numpy.point(i) == want
        assert (state.period, state.latency) == want


# ----------------------------------------------------------------------------- #
# DP table kernels: the homogeneous solvers across backends
# ----------------------------------------------------------------------------- #
def _homogenized(platform) -> Platform:
    """The platform with one speed and one bandwidth (what the DP needs)."""
    speed = float(np.median(platform.speeds))
    return Platform.communication_homogeneous(
        [speed] * platform.n_processors, bandwidth=4.0
    )


class TestHomogeneousDpParity:
    @given(case=scenario_instances())
    @settings(max_examples=60, deadline=None)
    def test_min_period_identical_numpy_vs_compiled(self, case):
        """Property: same optimal period *and* same mapping, bitwise."""
        app, platform = case
        hom = _homogenized(platform)
        with engine_disabled():
            ref_mapping, ref_period = homogeneous_min_period(app, hom)
        got_mapping, got_period = homogeneous_min_period(app, hom)
        assert got_period == ref_period
        assert got_mapping.intervals == ref_mapping.intervals
        with scalar_tables():
            _, scalar_period = homogeneous_min_period(app, hom)
        assert scalar_period == pytest.approx(ref_period, rel=_REL_TOL)

    @given(case=scenario_instances(), slack=st.floats(1.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_min_latency_identical_numpy_vs_compiled(self, case, slack):
        """Property: the bounded-latency DP matches with the engine on and off."""
        app, platform = case
        hom = _homogenized(platform)
        with engine_disabled():
            _, period = homogeneous_min_period(app, hom)
            bound = period * slack
            ref_mapping, ref_latency = homogeneous_min_latency_for_period(
                app, hom, bound
            )
        got_mapping, got_latency = homogeneous_min_latency_for_period(
            app, hom, bound
        )
        assert got_latency == ref_latency
        assert got_mapping.intervals == ref_mapping.intervals
        with scalar_tables():
            _, scalar_latency = homogeneous_min_latency_for_period(app, hom, bound)
        assert scalar_latency == pytest.approx(ref_latency, rel=_REL_TOL)

    @given(
        n=st.integers(2, 16),
        p=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_raw_table_kernels_bit_identical(self, n, p, seed):
        """The engine's table kernels match numpy exactly on random inputs.

        Bypasses the dispatcher so the test is meaningful even when a floor
        or routing rule changes; skip-free because it only runs when an
        engine actually loaded (otherwise dispatch == numpy trivially and
        the other tests still hold).
        """
        funcs = compiled.engine_functions()
        if funcs is None:
            return
        rng = np.random.default_rng(seed)
        cycle = rng.uniform(0.1, 10.0, size=(n, n))
        term = rng.uniform(0.1, 10.0, size=(n, n))
        lower = np.tril_indices(n, k=-1)
        cycle[lower] = np.inf
        term[lower] = np.inf
        bound = float(np.median(cycle[np.isfinite(cycle)]))

        ref_dp, ref_parent = reference.min_period_tables_numpy(cycle, n, p)
        got_dp, got_parent = funcs["min_period_tables"](cycle, n, p)
        assert (ref_dp == got_dp).all() and (ref_parent == got_parent).all()

        ref_dp, ref_parent = reference.min_latency_tables_numpy(
            cycle, term, bound, n, p
        )
        got_dp, got_parent = funcs["min_latency_tables"](cycle, term, bound, n, p)
        assert (ref_dp == got_dp).all() and (ref_parent == got_parent).all()


# ----------------------------------------------------------------------------- #
# kernel selection: the engine serves by default, numpy when it is off
# ----------------------------------------------------------------------------- #
def _homogeneous_instance() -> tuple[PipelineApplication, Platform]:
    app = PipelineApplication([3.0, 1.0, 4.0, 1.0, 5.0, 9.0], [2.0] * 7)
    return app, Platform.fully_homogeneous(3, speed=2.0, bandwidth=4.0)


class TestKernelSelection:
    def test_engine_serves_calls_without_arguments(self, monkeypatch):
        """With the engine available, a plain solver call runs the C tables."""
        funcs = compiled.engine_functions()
        if funcs is None:
            pytest.skip(f"no compiled engine: {compiled.unavailable_reason()}")
        spy = mock.Mock(wraps=funcs["min_period_tables"])
        monkeypatch.setitem(funcs, "min_period_tables", spy)
        app, platform = _homogeneous_instance()
        homogeneous_min_period(app, platform)
        assert spy.call_count == 1
        result = get_solver("hom-dp-period").run(app, platform)
        assert spy.call_count == 2
        assert result.backend == "compiled"
        assert kernels.active_backend() == "compiled"

    def test_disabled_engine_serves_numpy(self, monkeypatch):
        """With the engine off, numpy serves and the stamp says so."""
        spy = mock.Mock(wraps=reference.min_period_tables_numpy)
        monkeypatch.setattr(reference, "min_period_tables_numpy", spy)
        app, platform = _homogeneous_instance()
        with engine_disabled():
            assert compiled.engine_functions() is None
            result = get_solver("hom-dp-period").run(app, platform)
            assert kernels.active_backend() == "numpy"
        assert spy.call_count == 1
        assert result.backend == "numpy"

    def test_batch_terms_reaches_the_engine_from_the_floor_up(self, monkeypatch):
        """``batch_terms`` below ``ELEMENTWISE_COMPILED_MIN`` stays on numpy."""
        funcs = compiled.engine_functions()
        if funcs is None:
            pytest.skip(f"no compiled engine: {compiled.unavailable_reason()}")
        spy = mock.Mock(wraps=funcs["batch_terms"])
        monkeypatch.setitem(funcs, "batch_terms", spy)
        app, platform = _homogeneous_instance()
        mapping = IntervalMapping.single_processor(app.n_stages, 0)
        floor = kernels.ELEMENTWISE_COMPILED_MIN
        small = evaluate_batch(app, platform, [mapping] * (floor - 1))
        assert spy.call_count == 0
        large = evaluate_batch(app, platform, [mapping] * floor)
        assert spy.call_count == 1
        assert (large.periods[: floor - 1] == small.periods).all()
        assert (large.latencies[: floor - 1] == small.latencies).all()


# ----------------------------------------------------------------------------- #
# corpus replay with the engine on
# ----------------------------------------------------------------------------- #
@pytest.mark.skipif(not ENTRIES, reason="corpus is empty")
class TestCorpusReplayCompiled:
    @pytest.mark.parametrize(
        "entry", ENTRIES, ids=[entry.label for entry in ENTRIES]
    )
    def test_corpus_entry_green_with_compiled_kernels(self, entry):
        """Every archived counterexample stays green with the engine on."""
        report = differential_check(entry.application, entry.platform)
        assert report.ok, report.failures
