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

The frontier-capable solvers (tagged ``Capability.FRONTIER``) are the
iterative splitting heuristics whose *trajectory* is threshold-independent —
the bound appears only in the walk's stop test (``H1 Sp mono P``,
``H2 3-Explo mono``, ``H3 3-Explo bi``).  One walk down the heuristic's
uncapped trajectory-trie path (:mod:`repro.heuristics.engine`) records
every iterate ``(period, latency, mapping)``; a query at threshold ``t``
replays the stop predicate over the recorded engine periods (binary
search — the periods are non-increasing) and rebuilds the result from the
selected iterate, its mapping and its recorded point, with the
heuristic's own ``_make_result``, reproducing the direct run exactly; the
thresholds of one batch that stop at the same iterate share its decoded
mapping.  Every other solver, the exact DPs included, answers each
threshold with its own direct solve.

The documents are JSON-safe dictionaries, so the cache layer
(:mod:`repro.cache`) stores them as content-addressed blobs under a
threshold-free key (:func:`repro.cache.keys.frontier_key`): one warm entry
serves *any* threshold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..core import kernels
from ..core.exceptions import ConfigurationError
from ..core.mapping import IntervalMapping
from ..core.serialization import mapping_from_dict, mapping_to_dict
from ..heuristics.base import stop_limit
from .base import Capability, Objective, SolveResult

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..core.application import PipelineApplication
    from ..core.platform import Platform
    from .registry import Solver

__all__ = [
    "FRONTIER_SCHEMA",
    "frontier_eligible",
    "compute_steps_frontier",
    "frontier_solve",
]

#: current frontier-document format version (unknown versions are recomputed)
FRONTIER_SCHEMA = 1

#: the bounded objectives a frontier can sweep
_BOUNDED = (Objective.MIN_LATENCY_FOR_PERIOD, Objective.MIN_PERIOD_FOR_LATENCY)


def frontier_eligible(solver: "Solver", request: Any) -> bool:
    """Whether ``request`` on ``solver`` may be served through a frontier.

    Requires a frontier-capable registered solver, the solver's own bounded
    objective, a concrete threshold, no anytime budgets, and no stray bound
    on the non-optimised criterion (the frontier key is threshold-free, so
    anything else request-specific must be absent).
    """
    if Capability.FRONTIER not in solver.capabilities or not solver.cacheable:
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
# threshold-independent trajectories
# --------------------------------------------------------------------------- #
def _steps_heuristic(solver: "Solver"):
    """The heuristic instance behind a frontier solver (by paper name)."""
    from ..heuristics.registry import get_heuristic

    try:
        return get_heuristic(solver.name)
    except KeyError:  # pragma: no cover - registration invariant
        raise ConfigurationError(
            f"frontier solver {solver.name!r} has no registered "
            "heuristic class"
        )


def compute_steps_frontier(
    solver: "Solver",
    app: "PipelineApplication",
    platform: "Platform",
) -> dict[str, Any]:
    """Walk a frontier solver's trajectory to exhaustion and record every iterate.

    The returned document holds the full monotone step curve: iterate ``i``
    is the state after ``i`` splits, with the engine's own ``(period,
    latency)`` point (the floats the direct walk's stop test and history
    see) and a snapshot of the mapping.  The iterates are the nodes of the
    heuristic's trajectory trie along its uncapped path, the path every
    direct run of the heuristic stops on.  The trajectory is finite —
    every split enrolls at least one new processor — and
    threshold-independent, so this one walk answers every possible
    threshold.
    """
    node = _steps_heuristic(solver)._root(app, platform)
    iterates = []
    while node is not None:
        iterates.append(
            {
                "period": float(node.period),
                "latency": float(node.latency),
                "mapping": mapping_to_dict(IntervalMapping(node.intervals, node.processors)),
            }
        )
        node = node.child(None)
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


def _steps_answerer(
    solver: "Solver", document: dict[str, Any]
) -> Callable[[float], SolveResult]:
    """Threshold queries over a current document, each iterate built once.

    A query replays the direct run's stop test over the recorded trajectory
    and rebuilds the result from the selected iterate with the heuristic's
    own ``_make_result``, at the iterate's recorded ``(period, latency)``
    (the last entry of its history).  The iterate's decoded mapping and its
    history are memoised, so thresholds that stop at the same iterate share
    them.
    """
    heuristic = _steps_heuristic(solver)
    iterates = document["iterates"]
    backend = kernels.active_backend()
    built: dict[int, tuple] = {}

    def answer(threshold: float) -> SolveResult:
        thr = float(threshold)
        idx = _first_reaching(iterates, stop_limit(thr))
        found = built.get(idx)
        if found is None:
            mapping = mapping_from_dict(iterates[idx]["mapping"])
            history = [
                (float(it["period"]), float(it["latency"]))
                for it in iterates[: idx + 1]
            ]
            found = built[idx] = (mapping, history)
        mapping, history = found
        heuristic_result = heuristic._make_result(
            mapping, history[-1], thr, idx, history
        )
        return SolveResult.from_heuristic(
            heuristic_result, solver=heuristic.name
        ).stamped(
            solver=solver.name, family=solver.family, wall_time=0.0, backend=backend
        )

    return answer


# --------------------------------------------------------------------------- #
# the frontier entry points
# --------------------------------------------------------------------------- #
def _document_valid(document: Any, solver: "Solver") -> bool:
    return (
        isinstance(document, dict)
        and document.get("schema") == FRONTIER_SCHEMA
        and document.get("mode") == "steps"
        and document.get("solver") == solver.name
        and document.get("solver_version") == solver.version
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
    the cache (read only; a stale or foreign one is recomputed);
    ``n_direct_solves`` counts the underlying full solver runs this call
    actually performed (1 for a cold trajectory, 0 for a warm one).  Each
    distinct iterate the thresholds stop at is decoded once.
    """
    if Capability.FRONTIER not in solver.capabilities:
        raise ConfigurationError(
            f"solver {solver.name!r} is not frontier-capable"
        )
    n_solves = 0
    if document is None or not _document_valid(document, solver):
        document = compute_steps_frontier(solver, app, platform)
        n_solves = 1
    answer = _steps_answerer(solver, document)
    results = {t: answer(t) for t in dict.fromkeys(float(t) for t in thresholds)}
    return document, [results[float(t)] for t in thresholds], n_solves
