"""Frontier solves: one run answers every threshold of a bicriteria solver.

A threshold sweep asks one solver the same question at ``k`` different
bounds.  For most of the registry that is ``k`` independent runs, yet the
bicriteria structure of the problem guarantees the answers lie on one
monotone curve.  This module computes that curve **once** per
``(instance, solver, request-minus-threshold)`` and answers individual
threshold queries in ``O(log k)``, with every extracted
:class:`~repro.solvers.base.SolveResult` *bit-identical* (through
:meth:`~repro.solvers.base.SolveResult.identity`) to the direct
per-threshold solve it replaces.

Two frontier modes, declared per solver via ``SolverSpec.frontier``:

``steps``
    The iterative splitting heuristics whose *trajectory* is
    threshold-independent — the bound appears only in the loop's stop test
    (``H1 Sp mono P``, ``H2 3-Explo mono``, ``H3 3-Explo bi``).  One
    exhaustion run records every iterate ``(period, latency, mapping)``;
    a query at threshold ``t`` replays the stop predicate over the recorded
    engine periods (binary search — the periods are non-increasing) and
    rebuilds the result from the selected iterate with the heuristic's own
    ``_make_result``, reproducing the direct run exactly.

``monotone``
    The exact DP solvers (``hom-dp-latency-for-period``,
    ``hom-dp-period-for-latency``, ``bitmask-dp-latency-for-period``): an
    infeasible verdict at bound ``B`` holds for every bound below it, so
    the whole region under the knee is answered by rewriting the bound
    echo in the stored infeasibility message.  Feasible solves accumulate
    as *anchors* (solved bounds plus their results) replayed on exact
    bound repeats; anything else falls back to a direct solve that
    extends the document.  Feasible anchors are **not** projected onto
    other bounds even where the optimal objective value is provably
    constant over a segment: which of several equal-optimal *mappings* a
    DP returns can depend on the bound it was pruned with (argmin ties on
    degenerate instances, e.g. zero-work stages), and bit-identity
    includes the mapping.

The documents are JSON-safe dictionaries, so the cache layer
(:mod:`repro.cache`) stores them as content-addressed blobs under a
threshold-free key (:func:`repro.cache.keys.frontier_key`): one warm entry
serves *any* threshold.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence

from ..core import kernels
from ..core.exceptions import ConfigurationError
from ..core.serialization import (
    mapping_from_dict,
    mapping_to_dict,
    solve_result_from_dict,
    solve_result_to_dict,
)
from .base import Objective, SolveResult

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..core.application import PipelineApplication
    from ..core.platform import Platform
    from .registry import Solver

__all__ = [
    "FRONTIER_SCHEMA",
    "frontier_eligible",
    "compute_steps_frontier",
    "extract_result",
    "frontier_solve",
]

#: current frontier-document format version (unknown versions are recomputed)
FRONTIER_SCHEMA = 1

#: the heuristics' feasibility tolerance (``_reached`` in
#: :mod:`repro.heuristics.splitting`) — replicated bit-for-bit here because
#: the steps-mode replay *is* that stop test
_REL_TOL = 1e-9

#: the bounded objectives a frontier can sweep
_BOUNDED = (Objective.MIN_LATENCY_FOR_PERIOD, Objective.MIN_PERIOD_FOR_LATENCY)


def frontier_eligible(solver: "Solver", request: Any) -> bool:
    """Whether ``request`` on ``solver`` may be served through a frontier.

    Requires a frontier-capable registered solver, the solver's own bounded
    objective, a concrete threshold, no anytime budgets, and no stray bound
    on the non-optimised criterion (the frontier key is threshold-free, so
    anything else request-specific must be absent).
    """
    if solver.frontier_mode is None or not getattr(solver, "cacheable", False):
        return False
    if request.objective not in _BOUNDED or request.objective != solver.objective:
        return False
    if request.max_steps is not None or request.time_budget is not None:
        return False
    if request.threshold is None:
        return False
    if request.objective == Objective.MIN_LATENCY_FOR_PERIOD:
        return request.latency_bound is None
    return request.period_bound is None


# --------------------------------------------------------------------------- #
# steps mode: threshold-independent trajectories
# --------------------------------------------------------------------------- #
def _steps_heuristic(solver: "Solver"):
    """The heuristic instance behind a steps-mode solver (by paper name)."""
    from ..heuristics.registry import get_heuristic

    try:
        return get_heuristic(solver.name)
    except KeyError:  # pragma: no cover - registration invariant
        raise ConfigurationError(
            f"steps-mode frontier solver {solver.name!r} has no registered "
            "heuristic class"
        )


def compute_steps_frontier(
    solver: "Solver",
    app: "PipelineApplication",
    platform: "Platform",
) -> dict[str, Any]:
    """Run a steps-mode solver to exhaustion and record every iterate.

    The returned document holds the full monotone step curve: iterate ``i``
    is the state after ``i`` splits, with the engine's own ``(period,
    latency)`` point (the floats the direct loop's stop test and history
    see) and a snapshot of the mapping.  The trajectory is finite — every
    split enrolls at least one new processor — and threshold-independent,
    so this one run answers every possible threshold.
    """
    from ..heuristics.engine import SplittingState

    heuristic = _steps_heuristic(solver)
    state = SplittingState(app, platform)
    iterates = [
        {
            "period": float(state.period),
            "latency": float(state.latency),
            "mapping": mapping_to_dict(state.mapping()),
        }
    ]
    while True:
        candidate = heuristic._step_candidate(state)
        if candidate is None:
            break
        state.apply(candidate)
        iterates.append(
            {
                "period": float(state.period),
                "latency": float(state.latency),
                "mapping": mapping_to_dict(state.mapping()),
            }
        )
    return {
        "schema": FRONTIER_SCHEMA,
        "mode": "steps",
        "solver": solver.name,
        "solver_version": solver.version,
        "objective": solver.objective,
        "iterates": iterates,
    }


def _first_reaching(iterates: list[dict], limit: float) -> int:
    """First iterate whose engine period reaches ``limit`` (else the last).

    The recorded periods are non-increasing (every applied split improves
    the bottleneck), so this is a binary search: the direct loop stops at
    the first iterate satisfying its stop test, or at exhaustion.
    """
    lo, hi = 0, len(iterates)  # invariant: first reaching index in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if iterates[mid]["period"] <= limit:
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < len(iterates) else len(iterates) - 1


def _extract_steps(
    solver: "Solver",
    app: "PipelineApplication",
    platform: "Platform",
    document: dict[str, Any],
    threshold: float,
) -> SolveResult:
    """Replay the direct run's stop test over the recorded trajectory."""
    heuristic = _steps_heuristic(solver)
    thr = float(threshold)
    # bit-for-bit the `_reached` predicate of the heuristics' solve loops
    limit = thr * (1 + _REL_TOL) + 1e-12
    iterates = document["iterates"]
    idx = _first_reaching(iterates, limit)
    mapping = mapping_from_dict(iterates[idx]["mapping"])
    history = [
        (float(it["period"]), float(it["latency"])) for it in iterates[: idx + 1]
    ]
    heuristic_result = heuristic._make_result(
        app, platform, mapping, thr, idx, history
    )
    return SolveResult.from_heuristic(heuristic_result, solver=heuristic.name)


# --------------------------------------------------------------------------- #
# monotone mode: anchored segments of the exact solvers
# --------------------------------------------------------------------------- #
def _achieved(result: SolveResult) -> float:
    """The achieved value of the bounded metric (the segment's lower knee)."""
    if result.objective == Objective.MIN_LATENCY_FOR_PERIOD:
        return float(result.period)
    return float(result.latency)


def _empty_monotone(solver: "Solver") -> dict[str, Any]:
    return {
        "schema": FRONTIER_SCHEMA,
        "mode": "monotone",
        "solver": solver.name,
        "solver_version": solver.version,
        "objective": solver.objective,
        "anchors": [],
        "infeasible": None,
    }


def _rebased_reason(reason: str, old_bound: float, new_bound: float) -> str | None:
    """Rewrite the threshold token inside an infeasibility message.

    The exact solvers embed the request bound (``format(bound, 'g')``) in
    their :class:`InfeasibleError` message; a projection to another bound
    must carry the message the direct solve would have produced.  Anything
    but exactly one occurrence of the token means the message shape is not
    the one we proved projectable — the caller falls back to a direct solve.
    """
    old_token = format(float(old_bound), "g")
    if reason.count(old_token) != 1:
        return None
    return reason.replace(old_token, format(float(new_bound), "g"))


def _project_infeasible(entry: dict[str, Any], threshold: float) -> SolveResult | None:
    result = solve_result_from_dict(entry["result"])
    reason = result.details.get("infeasible_reason")
    if not isinstance(reason, str):
        return None
    rebased = _rebased_reason(reason, entry["bound"], threshold)
    if rebased is None:
        return None
    details = dict(result.details)
    details["infeasible_reason"] = rebased
    return replace(result, threshold=float(threshold), details=details)


def _monotone_query(
    document: dict[str, Any], threshold: float
) -> SolveResult | None:
    """Answer a covered threshold out of the anchors (``None``: not covered).

    A feasible anchor answers only its *own* bound (replay of a solve the
    document already holds); the infeasible anchor at bound ``B`` covers
    every ``t <= B`` (infeasibility is monotone and the fallback result
    depends on the bound only through the message echo, which
    :func:`_rebased_reason` rewrites).  Feasible anchors are deliberately
    **not** projected onto looser bounds even where the optimal
    ``(period, latency)`` pair is provably constant: which of several
    equal-optimal *mappings* a DP returns can depend on the bound (a
    tighter bound prunes states, shifting argmin ties on degenerate
    instances such as zero-work stages), and ``identity()`` includes the
    mapping.  Anchors are kept sorted by bound, so one bisection finds the
    exact match.
    """
    thr = float(threshold)
    infeasible = document.get("infeasible")
    if infeasible is not None and thr <= infeasible["bound"]:
        return _project_infeasible(infeasible, thr)
    anchors = document["anchors"]
    lo, hi = 0, len(anchors)  # first anchor with bound >= thr
    while lo < hi:
        mid = (lo + hi) // 2
        if anchors[mid]["bound"] >= thr:
            hi = mid
        else:
            lo = mid + 1
    if lo == len(anchors) or thr != anchors[lo]["bound"]:
        return None
    result = solve_result_from_dict(anchors[lo]["result"])
    return replace(result, threshold=thr)


def _monotone_absorb(
    document: dict[str, Any], threshold: float, result: SolveResult
) -> None:
    """Fold a direct solve into the anchors document (in place)."""
    thr = float(threshold)
    if result.feasible:
        # ``achieved`` is not used for coverage (see _monotone_query) but
        # makes the cached document self-describing: each anchor records
        # where its segment of the curve actually sits.
        entry = {
            "bound": thr,
            "achieved": _achieved(result),
            "result": solve_result_to_dict(result),
        }
        anchors = document["anchors"]
        lo, hi = 0, len(anchors)
        while lo < hi:
            mid = (lo + hi) // 2
            if anchors[mid]["bound"] >= thr:
                hi = mid
            else:
                lo = mid + 1
        if lo < len(anchors) and anchors[lo]["bound"] == thr:
            anchors[lo] = entry
        else:
            anchors.insert(lo, entry)
        return
    reason = result.details.get("infeasible_reason")
    if not isinstance(reason, str) or _rebased_reason(reason, thr, thr) is None:
        return  # message shape unknown: keep the verdict out of the document
    current = document.get("infeasible")
    if current is None or thr > current["bound"]:
        document["infeasible"] = {
            "bound": thr,
            "result": solve_result_to_dict(result),
        }


# --------------------------------------------------------------------------- #
# the frontier entry points
# --------------------------------------------------------------------------- #
def _document_valid(document: Any, solver: "Solver", mode: str) -> bool:
    return (
        isinstance(document, dict)
        and document.get("schema") == FRONTIER_SCHEMA
        and document.get("mode") == mode
        and document.get("solver") == solver.name
        and document.get("solver_version") == solver.version
    )


def extract_result(
    solver: "Solver",
    app: "PipelineApplication",
    platform: "Platform",
    document: dict[str, Any],
    threshold: float,
) -> SolveResult | None:
    """Answer one threshold query out of a frontier document.

    Returns a result bit-identical (per ``identity()``) to the direct
    per-threshold solve, stamped with this process's provenance, or
    ``None`` when the document does not cover the threshold (monotone mode
    only — a steps document covers everything).
    """
    mode = solver.frontier_mode
    if mode is None or not _document_valid(document, solver, mode):
        return None
    if mode == "steps":
        raw = _extract_steps(solver, app, platform, document, threshold)
    else:
        raw = _monotone_query(document, threshold)
    if raw is None:
        return None
    return raw.stamped(
        solver=solver.name,
        family=solver.family,
        wall_time=0.0,
        backend=kernels.active_backend(),
    )


def frontier_solve(
    solver: "Solver",
    app: "PipelineApplication",
    platform: "Platform",
    thresholds: Sequence[float],
    document: dict[str, Any] | None = None,
) -> tuple[dict[str, Any], list[SolveResult], int]:
    """Answer a batch of thresholds through one frontier document.

    Returns ``(document, results, n_direct_solves)`` with ``results``
    aligned to ``thresholds``.  ``document`` may be a warm document from
    the cache (it is extended, not mutated in place by reference holders —
    pass a private copy); ``n_direct_solves`` counts the underlying full
    solver runs this call actually performed (1 for a cold steps
    trajectory, one per uncovered threshold in monotone mode).
    """
    mode = solver.frontier_mode
    if mode is None:
        raise ConfigurationError(
            f"solver {solver.name!r} is not frontier-capable"
        )
    n_solves = 0
    if document is None or not _document_valid(document, solver, mode):
        document = None
    if mode == "steps":
        if document is None:
            document = compute_steps_frontier(solver, app, platform)
            n_solves = 1
        results = {
            float(t): extract_result(solver, app, platform, document, t)
            for t in dict.fromkeys(float(t) for t in thresholds)
        }
        return document, [results[float(t)] for t in thresholds], n_solves
    # monotone: walk the unique thresholds from loose to tight so every
    # direct solve's segment is available to the queries below it
    if document is None:
        document = _empty_monotone(solver)
    answered: dict[float, SolveResult] = {}
    for thr in sorted({float(t) for t in thresholds}, reverse=True):
        result = extract_result(solver, app, platform, document, thr)
        if result is None:
            request = (
                solver.default_request(period_bound=thr)
                if solver.objective == Objective.MIN_LATENCY_FOR_PERIOD
                else solver.default_request(latency_bound=thr)
            )
            result = solver.solve(app, platform, request)
            n_solves += 1
            _monotone_absorb(document, thr, result)
        answered[thr] = result
    return document, [answered[float(t)] for t in thresholds], n_solves
