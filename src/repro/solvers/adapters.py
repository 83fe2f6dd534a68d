"""Adapters registering every built-in solver with the unified registry.

Importing this module (done lazily by :mod:`repro.solvers.registry`)
registers:

* the six Section 4 heuristics (family ``heuristic``, thin adapters over the
  existing :mod:`repro.heuristics.registry` classes);
* the exact solvers (family ``exact``): the three homogeneous DP entry
  points, both directions of the bitmask DP, both brute-force objectives and
  both one-to-one assignment solvers;
* the Section 7 extensions (family ``extension``): greedy interval
  replication (deal skeleton) and the heterogeneous-link splitting heuristic.

Adapters translate each solver's native signature into
``solve_fn(app, platform, request) -> SolveResult``.  Exact solvers report
infeasibility by raising :class:`InfeasibleError`; the adapters convert that
into a ``feasible=False`` result carrying the Lemma 1 mapping (whole chain on
the fastest processor — always valid), so the unified layer never leaks
exceptions for ordinary threshold misses.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.application import PipelineApplication
from ..core.costs import evaluate, optimal_latency_mapping
from ..core.exceptions import ConfigurationError, InfeasibleError
from ..core.mapping import IntervalMapping
from ..core.platform import Platform
from ..exact.brute_force import brute_force_min_latency, brute_force_min_period
from ..exact.dp_bitmask import dp_min_latency_for_period, dp_min_period_for_latency
from ..exact.homogeneous_dp import (
    homogeneous_min_latency_for_period,
    homogeneous_min_period,
    homogeneous_min_period_for_latency,
)
from ..exact.one_to_one import one_to_one_min_latency, one_to_one_min_period
from ..extensions.heterogeneous_links import HeterogeneousSplittingPeriod
from ..extensions.replication import greedy_replication
from ..heuristics.base import PipelineHeuristic, reached
from ..heuristics.registry import HEURISTIC_CLASSES
from ..heuristics.splitting import SplittingBiLatency, SplittingMonoPeriod
from .base import Capability, Objective, SolveRequest, SolveResult, SolverFamily
from .local_search import random_seed_mapping, refine
from .registry import SolverSpec, register_solver

__all__ = ["heuristic_solve_fn"]


def _infeasible_result(
    app: PipelineApplication,
    platform: Platform,
    request: SolveRequest,
    reason: str,
) -> SolveResult:
    """``feasible=False`` result carrying the always-valid Lemma 1 mapping."""
    mapping = optimal_latency_mapping(app, platform)
    ev = evaluate(app, platform, mapping)
    return SolveResult(
        solver="",
        family="",
        mapping=mapping,
        period=float(ev.period),
        latency=float(ev.latency),
        feasible=False,
        objective=request.objective,
        threshold=request.threshold,
        details={"infeasible_reason": reason},
    )


def _result_from_mapping(
    app: PipelineApplication,
    platform: Platform,
    request: SolveRequest,
    mapping: IntervalMapping,
    *,
    feasible: bool = True,
) -> SolveResult:
    ev = evaluate(app, platform, mapping)
    return SolveResult(
        solver="",
        family="",
        mapping=mapping,
        period=float(ev.period),
        latency=float(ev.latency),
        feasible=feasible,
        objective=request.objective,
        threshold=request.threshold,
    )


# --------------------------------------------------------------------------- #
# heuristics (and heuristic-shaped extensions)
# --------------------------------------------------------------------------- #
def heuristic_solve_fn(
    heuristic_or_factory: PipelineHeuristic | Callable[[], PipelineHeuristic],
) -> Callable[..., SolveResult]:
    """Adapt a heuristic (instance or zero-arg factory) to the solver API."""

    def solve_fn(
        app: PipelineApplication, platform: Platform, request: SolveRequest
    ) -> SolveResult:
        heuristic = (
            heuristic_or_factory
            if isinstance(heuristic_or_factory, PipelineHeuristic)
            else heuristic_or_factory()
        )
        if request.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            result = heuristic.run(app, platform, period_bound=request.period_bound)
        elif request.objective == Objective.MIN_PERIOD_FOR_LATENCY:
            result = heuristic.run(app, platform, latency_bound=request.latency_bound)
        else:
            raise ConfigurationError(
                f"{heuristic.name} only handles the bounded objectives, "
                f"got {request.objective!r}"
            )
        return SolveResult.from_heuristic(result, solver=heuristic.name)

    return solve_fn


# The splitting heuristics whose trajectory never sees the threshold (the
# bound appears only in the loop's stop test): one exhaustion run answers
# every threshold (see repro.solvers.frontier).  H4 bisects with a
# threshold-dependent latency cap and H5/H6 cap the selection at the bound,
# so their trajectories are bound-dependent and not frontier-replayable.
_FRONTIER_KEYS = ("H1", "H2", "H3")

for _cls in HEURISTIC_CLASSES:
    _caps = {Capability.BICRITERIA, Capability.COMM_HOMOGENEOUS_ONLY}
    if _cls.key in _FRONTIER_KEYS:
        _caps.add(Capability.FRONTIER)
    register_solver(
        SolverSpec(
            name=_cls.name,
            key=_cls.key,
            family=SolverFamily.HEURISTIC,
            objective=_cls.objective,
            solve_fn=heuristic_solve_fn(_cls),
            capabilities=frozenset(_caps),
            description=f"Section 4 heuristic {_cls.key} ({_cls.name})",
            aliases=(_cls.__name__,),
        )
    )


# --------------------------------------------------------------------------- #
# exact solvers — homogeneous DPs
# --------------------------------------------------------------------------- #
def _hom_dp_period(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    if request.latency_bound is not None:
        raise ConfigurationError(
            "hom-dp-period is unconstrained; use hom-dp-period-for-latency "
            "for a latency bound"
        )
    mapping, _ = homogeneous_min_period(app, platform)
    return _result_from_mapping(app, platform, request, mapping)


def _hom_dp_latency_for_period(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    try:
        mapping, _ = homogeneous_min_latency_for_period(
            app, platform, request.period_bound
        )
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


def _hom_dp_period_for_latency(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    try:
        mapping, _ = homogeneous_min_period_for_latency(
            app, platform, request.latency_bound
        )
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


register_solver(
    SolverSpec(
        name="hom-dp-period",
        key="DP-P",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_PERIOD,
        solve_fn=_hom_dp_period,
        capabilities=frozenset({Capability.EXACT, Capability.HOMOGENEOUS_ONLY}),
        description="optimal period on fully homogeneous platforms (O(n^2 p) DP)",
        aliases=("homogeneous-dp-period", "homogeneous_min_period"),
    )
)
register_solver(
    SolverSpec(
        name="hom-dp-latency-for-period",
        key="DP-LP",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_LATENCY_FOR_PERIOD,
        solve_fn=_hom_dp_latency_for_period,
        capabilities=frozenset(
            {Capability.EXACT, Capability.HOMOGENEOUS_ONLY, Capability.BICRITERIA}
        ),
        description="optimal latency under a period bound (homogeneous DP)",
        aliases=("homogeneous_min_latency_for_period",),
    )
)
register_solver(
    SolverSpec(
        name="hom-dp-period-for-latency",
        key="DP-PL",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_PERIOD_FOR_LATENCY,
        solve_fn=_hom_dp_period_for_latency,
        capabilities=frozenset(
            {Capability.EXACT, Capability.HOMOGENEOUS_ONLY, Capability.BICRITERIA}
        ),
        description="optimal period under a latency bound (homogeneous DP)",
        aliases=("homogeneous_min_period_for_latency",),
    )
)


# --------------------------------------------------------------------------- #
# exact solvers — bitmask DP
# --------------------------------------------------------------------------- #
def _bitmask_latency_for_period(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    try:
        mapping, _ = dp_min_latency_for_period(app, platform, request.period_bound)
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


def _bitmask_period_for_latency(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    try:
        mapping, _ = dp_min_period_for_latency(app, platform, request.latency_bound)
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


register_solver(
    SolverSpec(
        name="bitmask-dp-latency-for-period",
        key="BM-LP",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_LATENCY_FOR_PERIOD,
        solve_fn=_bitmask_latency_for_period,
        capabilities=frozenset(
            {Capability.EXACT, Capability.COMM_HOMOGENEOUS_ONLY, Capability.BICRITERIA}
        ),
        description="exact latency under a period bound (O(n^2 2^p p) subset DP)",
        aliases=("bitmask-dp", "dp_min_latency_for_period"),
    )
)
register_solver(
    SolverSpec(
        name="bitmask-dp-period-for-latency",
        key="BM-PL",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_PERIOD_FOR_LATENCY,
        solve_fn=_bitmask_period_for_latency,
        capabilities=frozenset(
            {Capability.EXACT, Capability.COMM_HOMOGENEOUS_ONLY, Capability.BICRITERIA}
        ),
        description="exact period under a latency bound (bitmask DP + bisection)",
        aliases=("dp_min_period_for_latency",),
    )
)


# --------------------------------------------------------------------------- #
# exact solvers — brute force and one-to-one
# --------------------------------------------------------------------------- #
def _brute_force_period(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    try:
        mapping, _ = brute_force_min_period(
            app, platform, latency_bound=request.latency_bound
        )
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


def _brute_force_latency(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    try:
        mapping, _ = brute_force_min_latency(
            app, platform, period_bound=request.period_bound
        )
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


def _one_to_one_period(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    if request.latency_bound is not None:
        raise ConfigurationError("one-to-one-period does not take a latency bound")
    try:
        mapping, _ = one_to_one_min_period(app, platform)
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


def _one_to_one_latency(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    if request.period_bound is not None:
        raise ConfigurationError("one-to-one-latency does not take a period bound")
    try:
        mapping, _ = one_to_one_min_latency(app, platform)
    except InfeasibleError as exc:
        return _infeasible_result(app, platform, request, str(exc))
    return _result_from_mapping(app, platform, request, mapping)


register_solver(
    SolverSpec(
        name="brute-force-period",
        key="BF-P",
        version="2",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_PERIOD,
        solve_fn=_brute_force_period,
        capabilities=frozenset({Capability.EXACT, Capability.BICRITERIA}),
        description="exhaustive minimum period (optional latency bound); tiny instances",
        aliases=("brute_force_min_period",),
    )
)
register_solver(
    SolverSpec(
        name="brute-force-latency",
        key="BF-L",
        version="2",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_LATENCY,
        solve_fn=_brute_force_latency,
        capabilities=frozenset({Capability.EXACT, Capability.BICRITERIA}),
        description="exhaustive minimum latency (optional period bound); tiny instances",
        aliases=("brute_force_min_latency",),
    )
)
register_solver(
    SolverSpec(
        name="one-to-one-period",
        key="O2O-P",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_PERIOD,
        solve_fn=_one_to_one_period,
        capabilities=frozenset(
            {Capability.EXACT, Capability.ONE_TO_ONE, Capability.COMM_HOMOGENEOUS_ONLY}
        ),
        description="period-optimal one-to-one mapping (bottleneck assignment)",
        aliases=("one_to_one_min_period",),
    )
)
register_solver(
    SolverSpec(
        name="one-to-one-latency",
        key="O2O-L",
        family=SolverFamily.EXACT,
        objective=Objective.MIN_LATENCY,
        solve_fn=_one_to_one_latency,
        capabilities=frozenset(
            {Capability.EXACT, Capability.ONE_TO_ONE, Capability.COMM_HOMOGENEOUS_ONLY}
        ),
        description="latency-optimal one-to-one mapping (linear sum assignment)",
        aliases=("one_to_one_min_latency",),
    )
)


# --------------------------------------------------------------------------- #
# extensions — replication and heterogeneous links
# --------------------------------------------------------------------------- #
def _replication_details(assignments: Iterable) -> dict:
    return {
        "replicated_intervals": [
            {
                "start": int(item.interval.start),
                "end": int(item.interval.end),
                "processors": [int(u) for u in item.processors],
            }
            for item in assignments
        ]
    }


def _greedy_replication(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> SolveResult:
    """Sp mono P base mapping, then bottleneck replication toward the bound.

    ``mapping`` holds the base interval mapping (replication assigns extra
    processors on top of it); the replica groups and the deal-skeleton
    period/latency are reported in ``details`` and the scalar fields.
    """
    bound = request.period_bound
    base = SplittingMonoPeriod().run(app, platform, period_bound=bound)
    replicated, ev = greedy_replication(
        app, platform, base.mapping, period_bound=bound
    )
    feasible = reached(ev.period, bound)
    details = _replication_details(replicated.assignments)
    details["base_period"] = float(base.period)
    details["base_latency"] = float(base.latency)
    return SolveResult(
        solver="",
        family="",
        mapping=base.mapping,
        period=float(ev.period),
        latency=float(ev.latency),
        feasible=bool(feasible),
        objective=request.objective,
        threshold=request.threshold,
        n_splits=base.n_splits,
        history=base.history + ((float(ev.period), float(ev.latency)),),
        details=details,
    )


register_solver(
    SolverSpec(
        name="greedy-replication",
        key="REP",
        family=SolverFamily.EXTENSION,
        objective=Objective.MIN_LATENCY_FOR_PERIOD,
        solve_fn=_greedy_replication,
        capabilities=frozenset(
            {
                Capability.REPLICATION,
                Capability.COMM_HOMOGENEOUS_ONLY,
                Capability.BICRITERIA,
            }
        ),
        description="Sp mono P then deal-skeleton replication of the bottleneck",
        aliases=("replication",),
    )
)
register_solver(
    SolverSpec(
        name=HeterogeneousSplittingPeriod.name,
        key=HeterogeneousSplittingPeriod.key,
        family=SolverFamily.EXTENSION,
        objective=HeterogeneousSplittingPeriod.objective,
        solve_fn=heuristic_solve_fn(HeterogeneousSplittingPeriod),
        capabilities=frozenset(
            {Capability.BICRITERIA, Capability.HETEROGENEOUS_LINKS}
        ),
        description="splitting heuristic aware of per-link bandwidths",
        aliases=(HeterogeneousSplittingPeriod.__name__, "hetero-splitting-period"),
    )
)


# --------------------------------------------------------------------------- #
# extensions — anytime local search
# --------------------------------------------------------------------------- #
def _search_bound(request: SolveRequest) -> float | None:
    """The threshold the local search guards (on the non-optimised metric)."""
    if request.objective in (Objective.MIN_LATENCY_FOR_PERIOD, Objective.MIN_LATENCY):
        return request.period_bound
    return request.latency_bound


def _meets_bound(request: SolveRequest, period: float, latency: float) -> bool:
    """Feasibility under the request's threshold (heuristics' tolerance)."""
    bound = _search_bound(request)
    if bound is None:
        return True
    metric = (
        period
        if request.objective
        in (Objective.MIN_LATENCY_FOR_PERIOD, Objective.MIN_LATENCY)
        else latency
    )
    return reached(metric, bound)


def _local_search_solve_fn(
    seed_name: str,
    seed_fn: Callable[
        [PipelineApplication, Platform, SolveRequest],
        tuple[IntervalMapping, float, float, int, tuple],
    ],
) -> Callable[..., SolveResult]:
    """Build a local-search solve_fn refining ``seed_fn``'s mapping.

    ``seed_fn`` returns ``(mapping, period, latency, n_splits, history)`` for
    the seed solution; the returned result records the seed's provenance and
    metrics in ``details`` so the differential oracle can verify the
    never-worse-than-seed invariant without re-running the seed.
    """

    def solve_fn(
        app: PipelineApplication, platform: Platform, request: SolveRequest
    ) -> SolveResult:
        if not request.has_budget:
            raise ConfigurationError(
                "local-search solvers are anytime: the request needs "
                "max_steps= or time_budget="
            )
        mapping, seed_period, seed_latency, n_splits, seed_history = seed_fn(
            app, platform, request
        )
        outcome = refine(
            app,
            platform,
            mapping,
            objective=request.objective,
            bound=_search_bound(request),
            max_steps=request.max_steps,
            time_budget=request.time_budget,
        )
        return SolveResult(
            solver="",
            family="",
            mapping=outcome.mapping,
            period=outcome.period,
            latency=outcome.latency,
            feasible=_meets_bound(request, outcome.period, outcome.latency),
            objective=request.objective,
            threshold=request.threshold,
            n_splits=n_splits,
            history=tuple(seed_history) + outcome.history,
            details={
                "seed_solver": seed_name,
                "seed_period": float(seed_period),
                "seed_latency": float(seed_latency),
                "seed_feasible": _meets_bound(request, seed_period, seed_latency),
                "steps": int(outcome.steps),
            },
        )

    return solve_fn


def _seed_from_heuristic(cls: type) -> Callable[..., tuple]:
    def seed_fn(
        app: PipelineApplication, platform: Platform, request: SolveRequest
    ) -> tuple:
        heuristic = cls()
        if request.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            res = heuristic.run(app, platform, period_bound=request.period_bound)
        else:
            res = heuristic.run(app, platform, latency_bound=request.latency_bound)
        return (
            res.mapping,
            float(res.period),
            float(res.latency),
            res.n_splits,
            res.history,
        )

    return seed_fn


def _seed_random(
    app: PipelineApplication, platform: Platform, request: SolveRequest
) -> tuple:
    mapping = random_seed_mapping(app, platform)
    ev = evaluate(app, platform, mapping)
    return mapping, float(ev.period), float(ev.latency), 0, ()


register_solver(
    SolverSpec(
        name="local-search-h1",
        key="LS-H1",
        version="2",
        family=SolverFamily.EXTENSION,
        objective=Objective.MIN_LATENCY_FOR_PERIOD,
        solve_fn=_local_search_solve_fn(
            SplittingMonoPeriod.name, _seed_from_heuristic(SplittingMonoPeriod)
        ),
        capabilities=frozenset(
            {
                Capability.ANYTIME,
                Capability.BICRITERIA,
                Capability.COMM_HOMOGENEOUS_ONLY,
            }
        ),
        description="anytime refinement of the H1 mapping: latency under a period bound",
    )
)
register_solver(
    SolverSpec(
        name="local-search-h6",
        key="LS-H6",
        version="2",
        family=SolverFamily.EXTENSION,
        objective=Objective.MIN_PERIOD_FOR_LATENCY,
        solve_fn=_local_search_solve_fn(
            SplittingBiLatency.name, _seed_from_heuristic(SplittingBiLatency)
        ),
        capabilities=frozenset(
            {
                Capability.ANYTIME,
                Capability.BICRITERIA,
                Capability.COMM_HOMOGENEOUS_ONLY,
            }
        ),
        description="anytime refinement of the H6 mapping: period under a latency bound",
    )
)
register_solver(
    SolverSpec(
        name="local-search-random",
        key="LS-R",
        version="2",
        family=SolverFamily.EXTENSION,
        objective=Objective.MIN_PERIOD,
        solve_fn=_local_search_solve_fn("random", _seed_random),
        capabilities=frozenset(
            {Capability.ANYTIME, Capability.HETEROGENEOUS_LINKS}
        ),
        description=(
            "anytime minimum-period search from a digest-seeded random mapping "
            "(optional latency bound; handles per-link bandwidths)"
        ),
    )
)
