"""Tests of the unified solver registry (repro.solvers)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.application import PipelineApplication
from repro.core.exceptions import ConfigurationError
from repro.core.platform import Platform
from repro.exact.homogeneous_dp import homogeneous_min_period
from repro.heuristics import get_heuristic
from repro.solvers import (
    Capability,
    Objective,
    SolveRequest,
    SolveResult,
    SolverFamily,
    as_solver,
    get_solver,
    resolve_solvers,
    solver_names,
    solvers_for_platform,
)


@pytest.fixture
def app() -> PipelineApplication:
    return PipelineApplication(
        works=[5.0, 3.0, 8.0, 2.0], comm_sizes=[10.0, 4.0, 6.0, 2.0, 10.0]
    )


@pytest.fixture
def hetero_platform() -> Platform:
    return Platform.communication_homogeneous([4.0, 2.0, 1.0], bandwidth=10.0)


@pytest.fixture
def hom_platform() -> Platform:
    return Platform.communication_homogeneous([2.0, 2.0, 2.0], bandwidth=10.0)


class TestRegistryContents:
    def test_every_family_is_registered(self):
        names = solver_names()
        # 6 heuristics + 3 homogeneous DPs + 2 bitmask + 2 brute force
        # + 2 one-to-one + replication + heterogeneous links + 3 local search
        assert len(names) == 20
        assert len(solver_names(SolverFamily.HEURISTIC)) == 6
        assert len(solver_names(SolverFamily.EXACT)) == 9
        assert len(solver_names(SolverFamily.EXTENSION)) == 5

    def test_heuristics_keep_table1_order_and_names(self):
        heuristic = resolve_solvers("heuristics")
        assert [s.key for s in heuristic] == ["H1", "H2", "H3", "H4", "H5", "H6"]
        assert heuristic[0].name == "Sp mono P"

    @pytest.mark.parametrize(
        "query,expected",
        [
            ("H1", "Sp mono P"),
            ("sp-mono-p", "Sp mono P"),
            ("DP-P", "hom-dp-period"),
            ("hom_dp_period", "hom-dp-period"),
            ("homogeneous_min_period", "hom-dp-period"),
            ("BITMASK-DP", "bitmask-dp-latency-for-period"),
            ("brute force period", "brute-force-period"),
            ("one_to_one_min_latency", "one-to-one-latency"),
            ("replication", "greedy-replication"),
            ("X1", "Hetero Sp P"),
        ],
    )
    def test_lookup_variants(self, query, expected):
        assert get_solver(query).name == expected

    def test_unknown_name_has_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_solver("hom-dp-perod")
        message = excinfo.value.args[0]
        assert "did you mean" in message
        assert "hom-dp-period" in message

    def test_group_selectors(self):
        assert [s.family for s in resolve_solvers("exact")] == ["exact"] * 9
        assert len(resolve_solvers("all")) == 20
        assert len(resolve_solvers(None)) == 20
        assert [s.key for s in resolve_solvers(["H6", "DP-P"])] == ["H6", "DP-P"]


class TestCapabilities:
    def test_homogeneous_only_filtered_out_on_hetero_platform(
        self, hetero_platform
    ):
        names = {s.name for s in solvers_for_platform(hetero_platform, "exact")}
        assert "hom-dp-period" not in names
        assert "bitmask-dp-latency-for-period" in names

    def test_exact_solvers_for_homogeneous_platform(self, hom_platform):
        exact = solvers_for_platform(
            hom_platform, "all", require={Capability.EXACT}
        )
        assert {s.name for s in exact} >= {
            "hom-dp-period",
            "bitmask-dp-latency-for-period",
            "brute-force-period",
        }

    def test_supports_reports_reason(self, hetero_platform):
        ok, reason = get_solver("hom-dp-period").supports(hetero_platform)
        assert not ok
        assert "identical processor speeds" in reason

    def test_frontier_capability_is_exactly_h1_to_h3(self):
        """Only threshold-independent trajectories are frontier-routed; the
        exact DPs answer each threshold with their own solve."""
        frontier = {
            solver.key
            for solver in resolve_solvers("all")
            if Capability.FRONTIER in solver.capabilities
        }
        assert frontier == {"H1", "H2", "H3"}

    def test_adhoc_wrapper_mirrors_registered_capabilities(self):
        """as_solver(H1 instance) must agree with get_solver('H1').supports."""
        from repro.extensions.heterogeneous_links import HeterogeneousSplittingPeriod

        wrapped = as_solver(get_heuristic("H1"))
        # ad-hoc wrappers are uncacheable, so they cannot carry the frontier
        # capability (frontier curves are cache entries keyed by solver
        # name/version); every platform capability must still mirror
        assert wrapped.capabilities == (
            get_solver("H1").capabilities - {Capability.FRONTIER}
        )
        hetero_aware = as_solver(HeterogeneousSplittingPeriod())
        assert Capability.HETEROGENEOUS_LINKS in hetero_aware.capabilities
        assert Capability.COMM_HOMOGENEOUS_ONLY not in hetero_aware.capabilities


class TestSolving:
    def test_heuristic_solver_matches_direct_run(self, app, hetero_platform):
        direct = get_heuristic("H1").run(app, hetero_platform, period_bound=6.0)
        via_registry = get_solver("H1").solve(
            app, hetero_platform, SolveRequest.fixed_period(6.0)
        )
        assert via_registry.period == direct.period
        assert via_registry.latency == direct.latency
        assert via_registry.mapping == direct.mapping
        assert via_registry.n_splits == direct.n_splits
        assert via_registry.history == direct.history
        assert via_registry.solver == "Sp mono P"
        assert via_registry.family == SolverFamily.HEURISTIC
        assert via_registry.wall_time > 0.0

    def test_exact_solver_matches_direct_call(self, app, hom_platform):
        mapping, period = homogeneous_min_period(app, hom_platform)
        result = get_solver("hom-dp-period").run(app, hom_platform)
        assert result.period == period
        assert result.mapping == mapping
        assert result.family == SolverFamily.EXACT
        assert result.feasible

    def test_objective_mismatch_rejected(self, app, hom_platform):
        with pytest.raises(ConfigurationError):
            get_solver("hom-dp-period").solve(
                app, hom_platform, SolveRequest.fixed_period(5.0)
            )

    def test_missing_bound_rejected(self, app, hetero_platform):
        with pytest.raises(ConfigurationError):
            get_solver("H1").run(app, hetero_platform)

    def test_infeasible_reported_through_flag(self, app, hom_platform):
        result = get_solver("hom-dp-latency-for-period").run(
            app, hom_platform, period_bound=1e-9
        )
        assert not result.feasible
        assert result.mapping.n_intervals == 1  # Lemma 1 fallback mapping
        assert "infeasible_reason" in result.details

    def test_replication_carries_replica_groups(self, app, hetero_platform):
        result = get_solver("greedy-replication").run(
            app, hetero_platform, period_bound=2.0
        )
        groups = result.details["replicated_intervals"]
        assert sum(len(g["processors"]) for g in groups) <= 3
        assert result.period <= result.details["base_period"]

    def test_solve_result_point(self, app, hetero_platform):
        result = get_solver("H1").run(app, hetero_platform, period_bound=6.0)
        assert result.point == (result.period, result.latency)


class TestDriverGuards:
    """The experiment drivers reject solvers their protocol can't measure."""

    def test_sweep_rejects_unconstrained_solvers(self):
        from repro.experiments.sweep import run_sweep
        from repro.generators.experiments import experiment_config

        cfg = experiment_config("E1", 5, 4, n_instances=2)
        with pytest.raises(ConfigurationError, match="cannot be swept"):
            run_sweep(cfg, heuristics=["hom-dp-period"], n_thresholds=2, seed=0)

    def test_failure_thresholds_reject_unconstrained_solvers(self):
        from repro.experiments.failure import failure_thresholds
        from repro.generators.experiments import experiment_config

        cfg = experiment_config("E1", 5, 4, n_instances=2)
        with pytest.raises(ConfigurationError, match="bounded-objective"):
            failure_thresholds(cfg, heuristics=["one-to-one-period"], seed=0)

    def test_failure_thresholds_reject_exact_solvers(self):
        """Exact solvers have no best-effort period at an unreachable bound."""
        from repro.experiments.failure import failure_thresholds
        from repro.generators.experiments import experiment_config

        cfg = experiment_config("E1", 5, 4, n_instances=2)
        with pytest.raises(ConfigurationError, match="best-effort"):
            failure_thresholds(
                cfg, heuristics=["bitmask-dp-latency-for-period"], seed=0
            )

    def test_validate_solver_simulates_the_real_exact_mapping(self):
        """Exact fixed-period solvers must not validate the Lemma 1 fallback."""
        from repro.simulation.validate import validate_solver

        app = PipelineApplication(
            works=[5.0, 3.0, 8.0, 2.0], comm_sizes=[10.0, 4.0, 6.0, 2.0, 10.0]
        )
        platform = Platform.communication_homogeneous(
            [2.0, 2.0, 2.0], bandwidth=10.0
        )
        result, report = validate_solver(
            app, platform, "hom-dp-latency-for-period", n_datasets=20
        )
        assert result.feasible
        assert "infeasible_reason" not in result.details
        # at the whole-chain period bound the latency optimum is reachable
        assert report.period_relative_error <= 0.05


class TestRequestValidation:
    def test_bounded_objectives_require_their_bound(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(Objective.MIN_LATENCY_FOR_PERIOD)
        with pytest.raises(ConfigurationError):
            SolveRequest(Objective.MIN_PERIOD_FOR_LATENCY)

    def test_bounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SolveRequest.fixed_period(0.0)
        with pytest.raises(ConfigurationError):
            SolveRequest.min_period(latency_bound=-1.0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            SolveRequest("maximise-throughput")

    def test_threshold_property(self):
        assert SolveRequest.fixed_period(4.0).threshold == 4.0
        assert SolveRequest.fixed_latency(9.0).threshold == 9.0
        assert SolveRequest.min_period().threshold is None


class TestPickling:
    def test_registered_solver_pickles_by_name(self):
        solver = get_solver("bitmask-dp-latency-for-period")
        clone = pickle.loads(pickle.dumps(solver))
        assert clone.name == solver.name
        assert clone.family == solver.family

    def test_adhoc_heuristic_solver_pickles_by_value(self, app, hetero_platform):
        wrapped = as_solver(get_heuristic("H4"))
        clone = pickle.loads(pickle.dumps(wrapped))
        a = wrapped.run(app, hetero_platform, period_bound=5.0)
        b = clone.run(app, hetero_platform, period_bound=5.0)
        assert a.period == b.period and a.mapping == b.mapping

    def test_solve_result_pickles(self, app, hetero_platform):
        result = get_solver("H1").run(app, hetero_platform, period_bound=6.0)
        clone = pickle.loads(pickle.dumps(result))
        assert isinstance(clone, SolveResult)
        assert clone == result
