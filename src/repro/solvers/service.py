"""Batch solve service: dedupe, memoise, route, shard — one task pipeline.

Two front-ends share one private core (:func:`_solve_tasks`):
:func:`solve_many` takes an instance stream and a solver selection (the
cartesian, per-threshold shape), :func:`solve_frontier_many` takes a mixed
list of ``(instance, solver, request)`` triples.  Either way the core

1. **dedupes** identical ``(instance, solver, request)`` tasks up front —
   instance identity is the canonical digest of
   :mod:`repro.core.identity`, so two numerically identical instances
   (whatever their display names) are solved once;
2. **probes the cache** for every unique task (when a cache is given),
   so work done by a previous batch, a previous process, or another worker
   sharing the same ``--cache-dir`` is never repeated;
3. **routes** the misses with one rule: the frontier-eligible misses of
   one (instance, solver) asking two or more thresholds become one
   :func:`~repro.solvers.frontier.frontier_solve` group, everything else
   runs direct;
4. **dispatches** every unit in one pool map
   (:func:`repro.utils.parallel.parallel_map` or a persistent
   :class:`~repro.utils.parallel.WorkerPool`), shipping instances once
   per worker as :class:`~repro.utils.shm.InstanceArena` refs when pooled;
5. **back-fills** results in input order and memoises them (frontier
   documents included).

Determinism contract (the same one the experiment engine honours): the
returned solutions are byte-identical — through
:meth:`~repro.solvers.base.SolveResult.identity` — whatever the worker
count, and whether the cache was cold or warm; only the ``wall_time`` /
``cache_hit`` run-provenance stamps differ.

:func:`solve_with_cache` is the scalar sibling used by call sites that
solve one instance at a time inside their own loop (the differential
oracle, the failure-threshold probes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..cache.keys import CacheKey, frontier_key, solve_key
from ..core.identity import instance_digest
from ..core.tables import instance_tables
from ..utils.parallel import WorkerPool, parallel_map, resolve_worker_count
from ..utils.shm import InstanceArena, resolve_instance
from .base import SolveRequest, SolveResult
from .frontier import frontier_eligible, frontier_solve
from .registry import Solver, as_solver, resolve_solvers

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..cache.store import SolveCache
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "BatchStats",
    "BatchResult",
    "as_instance_pair",
    "solve_with_cache",
    "solve_many",
    "solve_frontier_many",
]


def as_instance_pair(item: Any) -> tuple["PipelineApplication", "Platform"]:
    """Coerce a work item into an ``(application, platform)`` pair.

    Accepts the experiment layer's :class:`~repro.generators.experiments.
    Instance` records (anything with ``application`` / ``platform``
    attributes, e.g. scenarios converted via ``scenario_instances``) and
    plain 2-tuples.
    """
    app = getattr(item, "application", None)
    if app is not None:
        return app, item.platform
    app, platform = item
    return app, platform


def solve_with_cache(
    solver: Any,
    app: "PipelineApplication",
    platform: "Platform",
    request: SolveRequest,
    cache: "SolveCache | None" = None,
) -> SolveResult:
    """One solver run through the cache (the scalar core of the service).

    With ``cache=None`` — or for a non-cacheable ad-hoc solver — this is
    exactly ``solver.solve(app, platform, request)``; otherwise the run is
    served from the cache when possible and memoised when not.  Either way
    the returned solution is identical (``cache_hit`` aside).
    """
    handle = as_solver(solver)
    if cache is None or not handle.cacheable or request.time_budget is not None:
        # wall-clock budgets make the result machine-dependent, so such runs
        # never enter (or get served from) the cache; max_steps stays cacheable
        return handle.solve(app, platform, request)
    key = solve_key(app, platform, handle, request)
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = handle.solve(app, platform, request)
    cache.put(key, result)
    return result


@dataclass(frozen=True)
class BatchStats:
    """How much work a :func:`solve_many` call actually had to do.

    The ``n_frontier_*`` fields stay zero on the per-threshold path of
    :func:`solve_many`: ``n_frontier_groups`` counts the (instance, solver)
    groups routed through a frontier document, ``n_frontier_extracted`` the threshold
    queries those documents answered, and ``n_solved`` then counts the
    *underlying* full solver runs — the amortisation is their ratio.
    """

    n_instances: int
    n_solvers: int
    n_tasks: int
    n_unique: int
    n_cache_hits: int
    n_solved: int
    n_frontier_groups: int = 0
    n_frontier_extracted: int = 0

    @property
    def n_deduplicated(self) -> int:
        """Tasks answered by pointing at another identical task's result."""
        return self.n_tasks - self.n_unique

    @property
    def solve_fraction(self) -> float:
        """Fraction of requested tasks that needed an actual solver run."""
        return self.n_solved / self.n_tasks if self.n_tasks else 0.0


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :func:`solve_many` call, in input order.

    ``results[i][j]`` is the :class:`~repro.solvers.base.SolveResult` of
    solver ``j`` (of :attr:`solvers`) on instance ``i`` of the input stream.
    """

    solvers: tuple[str, ...]
    results: tuple[tuple[SolveResult, ...], ...]
    stats: BatchStats

    def for_solver(self, j: int) -> tuple[SolveResult, ...]:
        """Column ``j``: one solver's results over the whole stream."""
        return tuple(row[j] for row in self.results)


def _resolve_handles(solvers: Any) -> list[Solver]:
    """Solver selection -> handles (group string, names, handles, heuristics)."""
    if solvers is None or isinstance(solvers, str):
        return resolve_solvers(solvers)
    if isinstance(solvers, Iterable):
        return [as_solver(item) for item in solvers]
    return [as_solver(solvers)]


def solve_many(
    instances: Sequence[Any],
    solvers: Any,
    *,
    period_bound: float | None = None,
    latency_bound: float | None = None,
    max_steps: int | None = None,
    time_budget: float | None = None,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
    pool: WorkerPool | None = None,
) -> BatchResult:
    """Solve every instance with every selected solver, doing minimal work.

    Parameters
    ----------
    instances:
        The stream: :class:`~repro.generators.experiments.Instance` records
        or plain ``(application, platform)`` pairs.  Repeated instances are
        detected by canonical digest and solved once.
    solvers:
        A solver selection: registry names/handles, heuristic instances, an
        iterable thereof, or a group string (``"heuristics"``, ``"exact"``,
        ...).  Each solver's request is built from the bounds below
        according to its objective, exactly like
        :meth:`~repro.solvers.registry.Solver.run`.
    period_bound / latency_bound:
        The thresholds; each solver picks the bound(s) its objective needs.
    max_steps / time_budget:
        Anytime budgets, forwarded to the solvers that need them and dropped
        by the rest (see :meth:`~repro.solvers.registry.Solver.
        default_request`).  An anytime solver in the selection with no
        budget set raises :class:`~repro.core.exceptions.ConfigurationError`
        up front.  ``time_budget`` runs bypass the cache — wall-clock
        results are not reproducible.
    workers / batch_size:
        Process-pool knobs (:func:`~repro.utils.parallel.parallel_map`) for
        the cache-missing unique tasks.  Results are byte-identical at any
        value.
    cache:
        A :class:`~repro.cache.store.SolveCache`.  ``None`` disables
        memoisation (deduplication still applies).
    pool:
        A persistent :class:`~repro.utils.parallel.WorkerPool` to ship the
        cache misses through instead of the per-call pool — the solver
        daemon holds one across requests so batches never re-pay worker
        start-up.  When given, the pool's worker count wins over
        ``workers=``; results stay byte-identical either way.

    Every solver asks one question per instance here, so no task is ever
    frontier-routed: this is the per-threshold reference path.
    """
    pairs = [as_instance_pair(item) for item in instances]
    handles = _resolve_handles(solvers)
    requests = [
        handle.default_request(
            period_bound=period_bound,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )
        for handle in handles
    ]
    tasks = []
    for pair in pairs:
        digest = instance_digest(*pair)
        tasks += [(pair, digest, handle, request) for handle, request in zip(handles, requests)]
    flat, stats = _solve_tasks(
        tasks, workers=workers, batch_size=batch_size, cache=cache, pool=pool
    )
    width = len(handles)
    return BatchResult(
        solvers=tuple(handle.name for handle in handles),
        results=tuple(
            tuple(flat[i * width : (i + 1) * width]) for i in range(len(pairs))
        ),
        stats=replace(stats, n_instances=len(pairs), n_solvers=width),
    )


def solve_frontier_many(
    tasks: Sequence[tuple[Any, Any, SolveRequest]],
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
    pool: WorkerPool | None = None,
) -> tuple[list[SolveResult], BatchStats]:
    """Solve a mixed list of ``(instance, solver, request)`` triples.

    The task-list front-end of the service, with frontier routing: tasks
    are deduplicated and probed against the solve cache like
    :func:`solve_many`'s, and every frontier-eligible miss
    (:func:`~repro.solvers.frontier.frontier_eligible`) whose instance asks
    the same solver two or more distinct thresholds is answered by one
    :func:`~repro.solvers.frontier.frontier_solve` for the whole group —
    one underlying solver run instead of one per threshold.  Everything
    else, the exact DPs included, runs direct.  Every returned result is bit-identical (through
    :meth:`~repro.solvers.base.SolveResult.identity`) to what the direct
    path produces, and both the per-threshold results and the frontier
    documents are memoised, so a warm cache serves *any* later threshold.

    Returns ``(results, stats)`` with ``results`` aligned to ``tasks``; the
    knobs are :func:`solve_many`'s.
    """
    normalised = []
    for item, solver, request in tasks:
        pair = as_instance_pair(item)
        normalised.append((pair, instance_digest(*pair), as_solver(solver), request))
    return _solve_tasks(
        normalised, workers=workers, batch_size=batch_size, cache=cache, pool=pool
    )


# --------------------------------------------------------------------------- #
# the one task pipeline behind both front-ends
# --------------------------------------------------------------------------- #
#: a normalised task: ((application, platform), instance digest, solver, request)
_Task = tuple[tuple["PipelineApplication", "Platform"], str, Solver, SolveRequest]


def _solver_identity(handle: Solver) -> Any:
    """What makes two solver handles interchangeable for dedupe and routing.

    Registered solvers are pure functions named by ``(name, version)`` —
    the cache's own identity — so two handles on one solver share work;
    an ad-hoc (non-cacheable) wrapper is only interchangeable with itself.
    """
    return (handle.name, handle.version) if handle.cacheable else id(handle)


def _solve_unit(unit: tuple[Solver, Any, Any, dict | None]) -> Any:
    """One dispatch unit (module-level, picklable): a direct solve or a group.

    ``unit`` is ``(solver, instance, question, document)``: the instance is
    a pair or an arena :class:`~repro.utils.shm.InstanceRef` (each
    rehydrated at most once per worker); the question is a
    :class:`~repro.solvers.base.SolveRequest` for a direct solve, or the
    threshold tuple of a frontier group answered from ``document`` (a warm
    frontier document, or ``None``).
    """
    handle, item, question, document = unit
    app, platform = resolve_instance(item)
    if isinstance(question, SolveRequest):
        return handle.solve(app, platform, question)
    return frontier_solve(handle, app, platform, question, document)


def _solve_tasks(
    tasks: Sequence[_Task],
    *,
    workers: int | None,
    batch_size: int | None,
    cache: "SolveCache | None",
    pool: WorkerPool | None,
) -> tuple[list[SolveResult], BatchStats]:
    """Dedupe, probe, route, dispatch and back-fill normalised tasks.

    Returns the results aligned to ``tasks``.
    """
    # -- dedupe: one slot per distinct (instance, solver, request) -------- #
    slot_of: dict[tuple, int] = {}
    unique: list[_Task] = []
    assignment: list[int] = []
    for task in tasks:
        _, digest, handle, request = task
        task_key = (digest, _solver_identity(handle), request)
        slot = slot_of.get(task_key)
        if slot is None:
            slot = slot_of[task_key] = len(unique)
            unique.append(task)
        assignment.append(slot)

    # -- probe the cache; only misses are routed -------------------------- #
    results: list[SolveResult | None] = [None] * len(unique)
    keys: list[CacheKey | None] = [None] * len(unique)
    misses: list[int] = []
    for u, (pair, _, handle, request) in enumerate(unique):
        if cache is not None and handle.cacheable and request.time_budget is None:
            keys[u] = solve_key(*pair, handle, request)
            results[u] = cache.get(keys[u])
        if results[u] is None:
            misses.append(u)

    # -- route: the eligible misses of one (instance, solver) share a unit;
    # a unit of two or more slots is a frontier group, the rest run direct
    routes: dict[Any, list[int]] = {}
    for u in misses:
        _, digest, handle, request = unique[u]
        if frontier_eligible(handle, request):
            routes.setdefault((digest, _solver_identity(handle)), []).append(u)
        else:
            routes[u] = [u]
    groups = list(routes.values())
    units = []
    frontier_keys: list[CacheKey | None] = []
    for slots in groups:
        pair, _, handle, request = unique[slots[0]]
        question: Any = request
        fkey = document = None
        if len(slots) > 1:
            question = tuple(unique[u][3].threshold for u in slots)
            if cache is not None:
                fkey = frontier_key(*pair, handle, handle.objective)
                document = cache.get_frontier(fkey)
        frontier_keys.append(fkey)
        units.append((handle, pair, question, document))

    # -- dispatch every unit in one map: arena refs when pooled; a serial
    # map shares one instance-table scope across the whole batch --------- #
    run = pool.map if pool is not None else partial(parallel_map, workers=workers)
    n_workers = pool.workers if pool is not None else resolve_worker_count(workers)
    if n_workers > 1 and len(units) > 1:
        arena = InstanceArena(unit[1] for unit in units)
        shipped = [(h, arena.ref(*pair), q, d) for h, pair, q, d in units]
        outcomes = run(
            _solve_unit, shipped, batch_size=batch_size, payload=arena.shipment()
        )
    else:
        with instance_tables():
            outcomes = run(_solve_unit, units, batch_size=batch_size)

    # -- back-fill and memoise -------------------------------------------- #
    n_solved = n_groups = n_extracted = 0
    for slots, fkey, outcome in zip(groups, frontier_keys, outcomes):
        if len(slots) == 1:
            answers = [outcome]
            n_solved += 1
        else:
            document, answers, n_runs = outcome
            n_solved += n_runs
            n_groups += 1
            n_extracted += len(slots)
            if fkey is not None and n_runs:  # a reused warm document is stored already
                cache.put_frontier(fkey, document)
        for u, result in zip(slots, answers):
            results[u] = result
            if keys[u] is not None:
                cache.put(keys[u], result)

    stats = BatchStats(
        n_instances=len({task[1] for task in tasks}),
        n_solvers=len({_solver_identity(task[2]) for task in tasks}),
        n_tasks=len(tasks),
        n_unique=len(unique),
        n_cache_hits=len(unique) - len(misses),
        n_solved=n_solved,
        n_frontier_groups=n_groups,
        n_frontier_extracted=n_extracted,
    )
    return [results[slot] for slot in assignment], stats
