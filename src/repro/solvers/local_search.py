"""Anytime best-improving local search over interval mappings.

:func:`refine` starts from any valid mapping and repeatedly applies the best
strictly-improving move among boundary shifts, processor swaps, interval
migrations, merges and splits (:mod:`repro.solvers.moves`), under a
lexicographic objective key that puts threshold violations first.  Costs are
maintained incrementally: the state caches per-interval ``(input, compute,
output)`` entries and every candidate move recomputes only the entries it
dirties, equal bit for bit to :func:`repro.core.costs.evaluate` and
:func:`repro.core.costs.evaluate_batch`: all three add eq. (2) left to right.

Candidate bookkeeping is BOEM-style (SNIPPETS.md Snippet 1): per-site
candidate lists are kept across steps and re-enumerated only for the sites a
move structurally touched — nothing after a swap, the three neighbouring
sites after a boundary shift, everything after a move that changes the
free-processor set or the interval count.  The objective key of every cached
candidate is re-aggregated each round from the current entry arrays (an
O(m) pass per candidate): with a max/sum objective any cached *value* can go
stale the moment the global bottleneck moves, so only the enumeration — not
the potential — is trusted across steps.

Determinism: the search is a pure function of ``(instance, seed mapping,
objective, bound, max_steps)``.  Ties between equally good moves break on
the move signature, enumeration order is fixed, and the only
non-deterministic knob is the optional wall-clock ``time_budget`` (callers
that need caching or replay must use ``max_steps``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.application import PipelineApplication
from ..core.exceptions import ConfigurationError
from ..core.mapping import IntervalMapping
from ..core.platform import Platform
from .base import Objective
from .moves import (
    MappingState,
    MergeIntervals,
    Move,
    ReassignProcessor,
    ShiftBoundary,
    SplitInterval,
    SwapProcessors,
    evaluate_move,
    moves_at_site,
)

__all__ = [
    "DEFAULT_STEP_BUDGET",
    "RefinementOutcome",
    "objective_key",
    "refine",
    "random_seed_mapping",
]

#: default number of improving moves when the caller gives no explicit
#: budget — the "default step budget" of the benchmark acceptance criterion
DEFAULT_STEP_BUDGET = 256


@dataclass(frozen=True)
class RefinementOutcome:
    """Result of one :func:`refine` run.

    ``steps`` counts applied (strictly improving) moves; ``history`` is the
    ``(period, latency)`` trajectory including the seed point, so its length
    is ``steps + 1``.
    """

    mapping: IntervalMapping
    period: float
    latency: float
    steps: int
    history: tuple[tuple[float, float], ...]


def objective_key(
    period: float, latency: float, objective: str, bound: float | None
) -> tuple[float, float, float]:
    """Lexicographic search key: (bound violation, optimised, other).

    Strict tuple ``<`` between keys is the improvement criterion: first
    reduce how far the bounded metric exceeds its threshold, then the
    optimised metric, then the remaining one as a tie-break.  The key
    decreases strictly at every applied move, which on the finite mapping
    space guarantees termination even without a budget.
    """
    if objective in (Objective.MIN_LATENCY_FOR_PERIOD, Objective.MIN_LATENCY):
        violation = 0.0 if bound is None else max(period - bound, 0.0)
        return (violation, latency, period)
    if objective in (Objective.MIN_PERIOD_FOR_LATENCY, Objective.MIN_PERIOD):
        violation = 0.0 if bound is None else max(latency - bound, 0.0)
        return (violation, period, latency)
    raise ConfigurationError(f"unknown objective {objective!r}")


def _rebuild_sites(state: MappingState) -> list[list[Move]]:
    return [moves_at_site(state, j) for j in range(state.n_intervals)]


def refine(
    app: PipelineApplication,
    platform: Platform,
    mapping: IntervalMapping,
    *,
    objective: str,
    bound: float | None = None,
    max_steps: int | None = None,
    time_budget: float | None = None,
) -> RefinementOutcome:
    """Best-improving local search from ``mapping`` under ``objective``.

    ``bound`` is the threshold on the non-optimised metric (required
    semantics follow :class:`repro.solvers.base.Objective`; optional for the
    mono-criterion objectives).  The search stops at a local optimum, after
    ``max_steps`` improving moves, or when ``time_budget`` seconds elapse —
    whichever comes first.  With both budgets ``None`` it runs to a local
    optimum.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    state = MappingState(app, platform, mapping)
    current_key = objective_key(state.period, state.latency, objective, bound)
    history: list[tuple[float, float]] = [(state.period, state.latency)]
    sites = _rebuild_sites(state)
    steps = 0
    while True:
        if max_steps is not None and steps >= max_steps:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        best = None
        best_rank: tuple | None = None
        for site in sites:
            for move in site:
                candidate = evaluate_move(state, move)
                key = objective_key(
                    candidate.period, candidate.latency, objective, bound
                )
                if key >= current_key:
                    continue
                rank = (key, move.signature())
                if best_rank is None or rank < best_rank:
                    best, best_rank = candidate, rank
        if best is None:
            break
        move = best.move
        state.apply(best)
        current_key = best_rank[0]
        history.append((state.period, state.latency))
        steps += 1
        # BOEM-style invalidation: re-enumerate only the sites whose
        # candidate set the applied move could have changed
        if isinstance(move, SwapProcessors):
            pass  # structure and free set untouched
        elif isinstance(move, ShiftBoundary):
            for j in range(max(move.j - 1, 0), min(move.j + 2, state.n_intervals)):
                sites[j] = moves_at_site(state, j)
        elif isinstance(move, (ReassignProcessor, MergeIntervals, SplitInterval)):
            sites = _rebuild_sites(state)
        else:  # pragma: no cover - future move types
            sites = _rebuild_sites(state)
    return RefinementOutcome(
        mapping=state.to_mapping(),
        period=state.period,
        latency=state.latency,
        steps=steps,
        history=tuple(history),
    )


def random_seed_mapping(
    app: PipelineApplication, platform: Platform
) -> IntervalMapping:
    """Deterministic pseudo-random seed mapping for ``local-search-random``.

    The RNG is seeded from the canonical instance digest, so the mapping —
    and therefore the whole solver run — is a pure function of the instance:
    identical across processes, workers, and cache replays.
    """
    from ..core.identity import instance_digest

    seed = int(instance_digest(app, platform)[:16], 16)
    rng = np.random.default_rng(seed)
    n, p = app.n_stages, platform.n_processors
    m = int(rng.integers(1, min(n, p) + 1))
    if m > 1:
        boundaries = sorted(int(x) for x in rng.choice(n - 1, size=m - 1, replace=False))
    else:
        boundaries = []
    processors = [int(x) for x in rng.choice(p, size=m, replace=False)]
    return IntervalMapping.from_boundaries(boundaries, processors, n)
