"""Hypothesis property suite of the frontier-solve layer.

The frontier contract (:mod:`repro.solvers.frontier`): for every
frontier-capable solver (H1-H3), one frontier run answers *any* threshold
with a result **bit-identical** (``SolveResult.identity``) to solving that
threshold directly — including thresholds below the infeasible knee, where
the extracted result must report infeasibility exactly like the direct
path.  This suite pins that contract on random instances from all eight
scenario families, and cross-checks the extracted curves against the exact
Pareto front (:func:`brute_force_pareto_front`) on instances small enough
to enumerate: heuristics must never beat it, and extraction must walk the
curve monotonically.  The exact DPs, which answer each threshold with a
direct solve, are held to the same front: their points must sit *on* it.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.costs import evaluate, optimal_latency_mapping, period_lower_bound
from repro.exact.brute_force import brute_force_pareto_front
from repro.scenarios.families import family_names, generate_scenarios
from repro.heuristics.base import stop_limit
from repro.solvers import frontier
from repro.solvers.frontier import frontier_eligible, frontier_solve
from repro.solvers.registry import get_solver

ALL_FAMILIES = family_names()

#: the frontier-capable registry solvers
FRONTIER_SOLVERS = ("H1", "H2", "H3")
#: the exact DPs bounded by a period (checked through direct solves)
EXACT_PERIOD_SOLVERS = ("hom-dp-latency-for-period", "bitmask-dp-latency-for-period")

#: bitmask-DP size gate (matches the differential oracle's)
_BM_MAX_STAGES, _BM_MAX_PROCS = 14, 8
#: brute-force enumeration gate for the Pareto-front oracle
_BF_MAX_STAGES, _BF_MAX_PROCS = 8, 5

_REL = 1e-9
_LOOSE_REL = 1e-6
#: skip feasibility comparisons this close to the threshold boundary
#: (different solvers use different epsilon conventions there)
_MARGIN = 1e-7


def _applicable(name: str, app, platform) -> bool:
    """Platform/size gates, mirroring the registry's capability checks."""
    if name.startswith("hom-dp"):
        return platform.is_fully_homogeneous
    if name.startswith("bitmask-dp"):
        return (
            platform.is_communication_homogeneous
            and app.n_stages <= _BM_MAX_STAGES
            and platform.n_processors <= _BM_MAX_PROCS
        )
    return platform.is_communication_homogeneous


def _threshold_range(app, platform) -> tuple[float, float]:
    """A period span straddling the infeasible knee: from a quarter of the
    period lower bound to past the period of the latency-optimal mapping."""
    period_hi = evaluate(app, platform, optimal_latency_mapping(app, platform)).period
    return 0.25 * period_lower_bound(app, platform), 1.25 * period_hi


def _request(solver, threshold: float):
    return solver.default_request(period_bound=threshold)


def _thresholds(lo: float, hi: float, fractions) -> list[float]:
    """Distinct strictly-positive thresholds at ``fractions`` of [lo, hi]."""
    return list(
        dict.fromkeys(max(lo + f * (hi - lo), 1e-6) for f in fractions)
    )


def _assert_extraction_identity(solver, app, platform, thresholds) -> None:
    """frontier_solve's answers == direct solves, bit for bit."""
    assert frontier_eligible(solver, _request(solver, thresholds[0]))
    _, extracted, _ = frontier_solve(solver, app, platform, thresholds)
    for threshold, from_frontier in zip(thresholds, extracted):
        direct = solver.solve(app, platform, _request(solver, threshold))
        assert from_frontier.identity() == direct.identity(), (
            f"{solver.name}@{threshold!r}: frontier extraction differs "
            f"from the direct solve"
        )


class TestExtractionIdentity:
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fractions=st.tuples(
            st.floats(min_value=0.05, max_value=1.45),
            st.floats(min_value=0.05, max_value=1.45),
            st.floats(min_value=0.05, max_value=1.45),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_extracted_result_equals_direct_solve(
        self, family, seed, fractions
    ):
        scenario = generate_scenarios(1, family, seed=seed)[0]
        app, platform = scenario.application, scenario.platform
        names = [n for n in FRONTIER_SOLVERS if _applicable(n, app, platform)]
        assume(names)
        for name in names:
            solver = get_solver(name)
            lo, hi = _threshold_range(app, platform)
            _assert_extraction_identity(
                solver, app, platform, _thresholds(lo, hi, fractions)
            )

    def test_every_family_and_solver_covered(self):
        """Deterministic sweep: each family and each frontier solver is
        exercised by at least one extraction-identity check (the drawn
        examples above cannot guarantee that)."""
        covered: set[tuple[str, str]] = set()
        for family in ALL_FAMILIES:
            for seed in range(3):
                scenario = generate_scenarios(1, family, seed=seed)[0]
                app, platform = scenario.application, scenario.platform
                for name in FRONTIER_SOLVERS:
                    if not _applicable(name, app, platform):
                        continue
                    solver = get_solver(name)
                    lo, hi = _threshold_range(app, platform)
                    _assert_extraction_identity(
                        solver, app, platform,
                        _thresholds(lo, hi, (0.1, 0.5, 0.9, 1.3)),
                    )
                    covered.add((family, name))
        assert {name for _, name in covered} == set(FRONTIER_SOLVERS)
        # heterogeneous-links platforms are communication-heterogeneous,
        # outside the platform class of every frontier-capable solver
        assert {family for family, _ in covered} == (
            set(ALL_FAMILIES) - {"heterogeneous-links"}
        )


class TestExtractionMemo:
    def test_each_distinct_iterate_is_decoded_once(self, monkeypatch):
        """One ``frontier_solve`` decodes the mapping of each iterate its
        thresholds stop at once, and every answer still equals its direct
        solve."""
        calls = []
        decode_once = frontier.mapping_from_dict
        monkeypatch.setattr(
            frontier,
            "mapping_from_dict",
            lambda *args: calls.append(args) or decode_once(*args),
        )
        scenario = generate_scenarios(1, "homogeneous-chain", seed=3)[0]
        app, platform = scenario.application, scenario.platform
        for name in FRONTIER_SOLVERS:
            solver = get_solver(name)
            lo, hi = _threshold_range(app, platform)
            thresholds = _thresholds(lo, hi, [k / 20 for k in range(30)])
            calls.clear()
            document, _, _ = frontier_solve(solver, app, platform, thresholds)
            stops = {
                frontier._first_reaching(document["iterates"], stop_limit(t))
                for t in thresholds
            }
            assert len(calls) == len(stops) < len(thresholds)
            _assert_extraction_identity(solver, app, platform, thresholds)


class TestInfeasibleKnee:
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_query_below_the_knee_matches_direct_infeasibility(
        self, family, seed
    ):
        """A threshold below anything achievable: the extracted result must
        carry the same feasibility flag and details as the direct path."""
        scenario = generate_scenarios(1, family, seed=seed)[0]
        app, platform = scenario.application, scenario.platform
        names = [n for n in FRONTIER_SOLVERS if _applicable(n, app, platform)]
        assume(names)
        below = max(0.25 * period_lower_bound(app, platform), 1e-6)
        for name in names:
            solver = get_solver(name)
            _, (from_frontier,), _ = frontier_solve(
                solver, app, platform, [below]
            )
            direct = solver.solve(app, platform, _request(solver, below))
            assert from_frontier.feasible == direct.feasible
            assert from_frontier.identity() == direct.identity()

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_solvers_cannot_beat_the_period_lower_bound(self, family, seed):
        scenario = generate_scenarios(1, family, seed=seed)[0]
        app, platform = scenario.application, scenario.platform
        names = [n for n in EXACT_PERIOD_SOLVERS if _applicable(n, app, platform)]
        assume(names)
        p_lb = period_lower_bound(app, platform)
        below = max(0.25 * p_lb, 1e-6)
        assume(below < p_lb * (1 - _MARGIN))
        for name in names:
            solver = get_solver(name)
            assert not solver.solve(app, platform, _request(solver, below)).feasible


def _small_scenarios():
    """Instances of every family small enough to enumerate exhaustively."""
    for family in ALL_FAMILIES:
        for seed in range(6):
            scenario = generate_scenarios(1, family, seed=seed)[0]
            app, platform = scenario.application, scenario.platform
            if (
                app.n_stages <= _BF_MAX_STAGES
                and platform.n_processors <= _BF_MAX_PROCS
            ):
                yield app, platform


def _check_curve(name, front, grid, results, *, exact: bool) -> int:
    """Hold one solver's answers on a rising threshold grid to the exact
    front; returns the number of feasible points checked."""
    feasible = [r.feasible for r in results]
    # feasibility is monotone in the threshold
    assert feasible == sorted(feasible)
    achieved = [r for r in results if r.feasible]
    for a, b in zip(achieved, achieved[1:]):
        # a looser threshold never forces a tighter period
        assert a.period <= b.period * (1 + _REL)
    n_checked = 0
    for threshold, result in zip(grid, results):
        if not result.feasible:
            continue
        assert result.period <= threshold * (1 + _REL)
        best = min(
            (
                point.latency
                for point in front
                if point.period <= threshold * (1 + _MARGIN)
            ),
            default=None,
        )
        assert best is not None, (
            f"{name}: feasible at {threshold!r} where the exact front has no point"
        )
        # never non-dominated *past* the optimal front
        assert result.latency >= best * (1 - _LOOSE_REL)
        if exact:
            # the exact solvers' points lie on the front
            assert result.latency <= best * (1 + _LOOSE_REL)
        n_checked += 1
    return n_checked


class TestFrontierShape:
    def test_extracted_curves_are_monotone_and_never_beat_the_front(self):
        """Walking the threshold grid upward, extraction moves monotonically
        along the recorded curve, and never beats the exact Pareto front."""
        n_checked = 0
        for app, platform in _small_scenarios():
            front = brute_force_pareto_front(app, platform)
            for name in FRONTIER_SOLVERS:
                if not _applicable(name, app, platform):
                    continue
                solver = get_solver(name)
                lo, hi = _threshold_range(app, platform)
                grid = _thresholds(lo, hi, [i / 9 for i in range(10)])
                _, extracted, _ = frontier_solve(solver, app, platform, grid)
                n_checked += _check_curve(name, front, grid, extracted, exact=False)
        assert n_checked > 0

    def test_exact_solvers_sit_on_the_front(self):
        """The exact DPs, solved directly at every threshold of the grid,
        move monotonically and land on the exact Pareto front."""
        n_checked = 0
        for app, platform in _small_scenarios():
            front = brute_force_pareto_front(app, platform)
            for name in EXACT_PERIOD_SOLVERS:
                if not _applicable(name, app, platform):
                    continue
                solver = get_solver(name)
                lo, hi = _threshold_range(app, platform)
                grid = _thresholds(lo, hi, [i / 9 for i in range(10)])
                direct = [
                    solver.solve(app, platform, _request(solver, t)) for t in grid
                ]
                n_checked += _check_curve(name, front, grid, direct, exact=True)
        assert n_checked > 0
