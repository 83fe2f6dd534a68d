"""Unified solver interface: one request/result shape for every solver.

The repository grows solvers in three families — the Section 4 heuristics,
the exact solvers (homogeneous DPs, bitmask DP, brute force, one-to-one) and
the Section 7 extensions (replication, heterogeneous links).  Historically
only the heuristics shared an API; this module defines the common surface the
unified registry (:mod:`repro.solvers.registry`) exposes for all of them:

* :class:`SolveRequest` — what to optimise (an :class:`Objective` constant)
  plus the period / latency thresholds, if any;
* :class:`SolveResult` — the unified outcome: mapping, analytical period and
  latency, feasibility flag, and provenance (solver name, family, wall time);
* :class:`SolverProtocol` — anything with ``solve(app, platform, request)``.

Infeasibility is reported through ``feasible=False`` (with a valid fallback
mapping attached), never through an exception, so the experiment harness can
sweep thresholds over thousands of runs without try/except at every call
site — the same contract the heuristics already honoured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

from ..core.exceptions import ConfigurationError
from ..core.mapping import IntervalMapping
from ..heuristics.base import HeuristicResult
from ..heuristics.base import Objective as _HeuristicObjective

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "Objective",
    "SolverFamily",
    "Capability",
    "SolveRequest",
    "SolveResult",
    "SolverProtocol",
]


class Objective:
    """What a solver optimises.

    The two bounded objectives are shared with the heuristics layer (same
    string constants, so heuristic and solver objectives compare equal); the
    two unconstrained ones cover the mono-criterion exact solvers, which may
    still honour an *optional* bound on the other criterion.
    """

    #: minimise latency subject to ``period <= period_bound``
    MIN_LATENCY_FOR_PERIOD = _HeuristicObjective.MIN_LATENCY_FOR_PERIOD
    #: minimise period subject to ``latency <= latency_bound``
    MIN_PERIOD_FOR_LATENCY = _HeuristicObjective.MIN_PERIOD_FOR_LATENCY
    #: minimise the period (latency bound optional)
    MIN_PERIOD = "min-period"
    #: minimise the latency (period bound optional)
    MIN_LATENCY = "min-latency"

    ALL = (MIN_LATENCY_FOR_PERIOD, MIN_PERIOD_FOR_LATENCY, MIN_PERIOD, MIN_LATENCY)

    #: objectives that *require* the named bound
    NEEDS_PERIOD_BOUND = (MIN_LATENCY_FOR_PERIOD,)
    NEEDS_LATENCY_BOUND = (MIN_PERIOD_FOR_LATENCY,)


class SolverFamily:
    """Provenance family of a registered solver."""

    HEURISTIC = "heuristic"
    EXACT = "exact"
    EXTENSION = "extension"

    ALL = (HEURISTIC, EXACT, EXTENSION)


class Capability:
    """Capability tags letting callers filter the registry.

    A tag either *restricts* the platforms a solver accepts
    (``HOMOGENEOUS_ONLY``, ``COMM_HOMOGENEOUS_ONLY``) or *describes* what the
    solver offers (``EXACT``, ``BICRITERIA``, ``ONE_TO_ONE``, ``REPLICATION``,
    ``HETEROGENEOUS_LINKS``), e.g. "all exact solvers valid for this
    platform" is ``solvers_for_platform(platform, require={Capability.EXACT})``.
    """

    #: requires identical processor speeds and identical link bandwidths
    HOMOGENEOUS_ONLY = "homogeneous_only"
    #: requires identical link bandwidths (speeds may differ)
    COMM_HOMOGENEOUS_ONLY = "communication_homogeneous_only"
    #: provably optimal within its mapping class
    EXACT = "exact"
    #: optimises one criterion under a threshold on the other
    BICRITERIA = "bicriteria"
    #: searches one-to-one mappings only (one stage per processor)
    ONE_TO_ONE = "one_to_one"
    #: may replicate intervals over several processors (deal skeleton)
    REPLICATION = "replication"
    #: aware of per-link bandwidths (fully heterogeneous platforms)
    HETEROGENEOUS_LINKS = "heterogeneous_links"
    #: anytime solver: requires a step/time budget on the request and returns
    #: the best solution found within it (more budget, same or better result)
    ANYTIME = "anytime"
    #: frontier-capable solver: its trajectory never sees the threshold, so
    #: one run to exhaustion answers every threshold of its bounded
    #: objective, each extracted result bit-identical to the direct solve
    #: (the splitting heuristics H1-H3; see :mod:`repro.solvers.frontier`)
    FRONTIER = "frontier"


@dataclass(frozen=True)
class SolveRequest:
    """What to solve: objective plus the relevant threshold(s).

    Exactly mirrors the paper's problem statements: the bounded objectives
    require their threshold, the unconstrained ones accept an optional bound
    on the non-optimised criterion (honoured by the solvers that support it,
    e.g. brute force).
    """

    objective: str
    period_bound: float | None = None
    latency_bound: float | None = None
    #: step budget for anytime solvers — maximum number of improving moves.
    #: Deterministic: the same budget always yields the same result, so
    #: budgeted requests cache like any other.
    max_steps: int | None = None
    #: wall-clock budget (seconds) for anytime solvers.  Inherently
    #: non-deterministic, so requests carrying one bypass the solve cache.
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if self.objective not in Objective.ALL:
            raise ConfigurationError(
                f"unknown objective {self.objective!r}; expected one of "
                f"{', '.join(Objective.ALL)}"
            )
        if self.objective in Objective.NEEDS_PERIOD_BOUND and self.period_bound is None:
            raise ConfigurationError(f"objective {self.objective!r} needs period_bound")
        if self.objective in Objective.NEEDS_LATENCY_BOUND and self.latency_bound is None:
            raise ConfigurationError(f"objective {self.objective!r} needs latency_bound")
        for bound_name in ("period_bound", "latency_bound"):
            bound = getattr(self, bound_name)
            if bound is not None and bound <= 0:
                raise ConfigurationError(f"{bound_name} must be positive, got {bound}")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {self.max_steps}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ConfigurationError(
                f"time_budget must be positive, got {self.time_budget}"
            )

    # ------------------------------------------------------------------ #
    # constructors for the four objectives
    # ------------------------------------------------------------------ #
    @classmethod
    def fixed_period(
        cls,
        period_bound: float,
        *,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> "SolveRequest":
        """Minimise latency subject to ``period <= period_bound``."""
        return cls(
            Objective.MIN_LATENCY_FOR_PERIOD,
            period_bound=period_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )

    @classmethod
    def fixed_latency(
        cls,
        latency_bound: float,
        *,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> "SolveRequest":
        """Minimise period subject to ``latency <= latency_bound``."""
        return cls(
            Objective.MIN_PERIOD_FOR_LATENCY,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )

    @classmethod
    def min_period(
        cls,
        latency_bound: float | None = None,
        *,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> "SolveRequest":
        """Minimise the period (latency bound optional)."""
        return cls(
            Objective.MIN_PERIOD,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )

    @classmethod
    def min_latency(
        cls,
        period_bound: float | None = None,
        *,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> "SolveRequest":
        """Minimise the latency (period bound optional)."""
        return cls(
            Objective.MIN_LATENCY,
            period_bound=period_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )

    @property
    def has_budget(self) -> bool:
        """Whether the request carries an anytime budget of either kind."""
        return self.max_steps is not None or self.time_budget is not None

    @property
    def threshold(self) -> float | None:
        """The bound tied to the objective (``None`` when unconstrained)."""
        if self.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            return self.period_bound
        if self.objective == Objective.MIN_PERIOD_FOR_LATENCY:
            return self.latency_bound
        return None

    def canonical_hash(self) -> str:
        """SHA-256 identity of the request, cached on the instance.

        Hashes the canonical JSON encoding of the three request fields —
        the same convention as :func:`repro.core.identity.instance_digest`
        — so numerically identical requests share one digest across
        processes and sessions.  Together with the instance digest and the
        solver name/version it forms the solve-cache key
        (:mod:`repro.cache`).
        """
        cached = getattr(self, "_canonical_hash", None)
        if cached is None:
            from ..core.identity import digest_document

            document: dict[str, Any] = {
                "objective": self.objective,
                "period_bound": self.period_bound,
                "latency_bound": self.latency_bound,
            }
            # Budget fields enter the digest only when set, so every
            # pre-existing (budget-less) request keeps its historical hash
            # and warm caches stay valid across this addition.
            if self.max_steps is not None:
                document["max_steps"] = self.max_steps
            if self.time_budget is not None:
                document["time_budget"] = self.time_budget
            cached = digest_document(document)
            # frozen dataclass: cache outside the declared fields
            object.__setattr__(self, "_canonical_hash", cached)
        return cached


@dataclass(frozen=True)
class SolveResult:
    """Unified outcome of any solver run.

    Attributes
    ----------
    solver / family:
        Provenance: registered solver name and family
        (``heuristic`` / ``exact`` / ``extension``).
    mapping:
        The final interval mapping — always a valid mapping, even when
        ``feasible`` is ``False`` (the harness collects failure statistics).
    period / latency:
        Analytical period and latency achieved (eqs. 1 and 2).  Extension
        solvers may evaluate them under their extended cost model (e.g. the
        deal-skeleton period of a replicated mapping).
    feasible:
        Whether the request's threshold (if any) is met.
    objective / threshold:
        Echo of the request (``threshold`` is ``None`` for the unconstrained
        objectives).
    n_splits / history:
        Iterative-solver trace: splitting steps performed and the
        ``(period, latency)`` trajectory (empty for the direct solvers).
    wall_time:
        Wall-clock seconds of the solve call (stamped by the registry).
    cache_hit:
        ``True`` when this result was served from a solve cache
        (:mod:`repro.cache`) instead of an actual solver run.  Run
        provenance, not solution data: excluded from :meth:`identity`, so a
        cold solve and its warm replay compare byte-identical.
    backend:
        Which kernels served the run (:func:`repro.core.kernels.
        active_backend`): ``compiled`` or ``numpy`` (``None`` on results
        predating the stamp).  Run provenance like ``wall_time``: both
        kernels are validated to produce identical solutions, so the stamp
        is excluded from :meth:`identity` and from cache keys — a result
        computed on one host serves a request on another.
    details:
        Solver-specific extras as JSON-safe scalars/lists (e.g. the replica
        groups of a replicated mapping).
    """

    solver: str
    family: str
    mapping: IntervalMapping
    period: float
    latency: float
    feasible: bool
    objective: str
    threshold: float | None = None
    n_splits: int = 0
    history: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    wall_time: float = 0.0
    cache_hit: bool = False
    backend: str | None = None
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def point(self) -> tuple[float, float]:
        """The (period, latency) objective point of the final mapping."""
        return (self.period, self.latency)

    @classmethod
    def from_heuristic(
        cls,
        result: HeuristicResult,
        *,
        solver: str,
        family: str = SolverFamily.HEURISTIC,
    ) -> "SolveResult":
        """Lift a :class:`HeuristicResult` into the unified result type."""
        return cls(
            solver=solver,
            family=family,
            mapping=result.mapping,
            period=result.period,
            latency=result.latency,
            feasible=result.feasible,
            objective=result.objective,
            threshold=result.threshold,
            n_splits=result.n_splits,
            history=result.history,
        )

    def stamped(
        self,
        *,
        solver: str,
        family: str,
        wall_time: float,
        backend: str | None = None,
    ) -> "SolveResult":
        """Copy with provenance filled in (used by the registry wrapper)."""
        return replace(
            self,
            solver=solver,
            family=family,
            wall_time=wall_time,
            backend=backend if backend is not None else self.backend,
        )

    #: provenance fields that describe the actual run and therefore differ
    #: between byte-identical solves (serial vs pooled, machine to machine,
    #: cold solve vs warm cache replay, compiled kernels vs numpy)
    NONDETERMINISTIC_FIELDS = ("wall_time", "cache_hit", "backend")

    def identity(self) -> dict[str, Any]:
        """Byte-comparable view: every solution field, no run provenance.

        ``wall_time`` measures the actual run, ``cache_hit`` records how
        the result was obtained and ``backend`` which kernels computed it,
        so two byte-identical solves (serial versus
        process pool, cold versus warm cache, or across machines)
        legitimately differ on them.  Every comparison asserting the
        engine's determinism contract
        must go through this single exclusion point instead of hand-picking
        fields: two results describe the same solution iff their ``identity()``
        dictionaries are equal, and new fields added to :class:`SolveResult`
        are compared automatically unless explicitly listed in
        :attr:`NONDETERMINISTIC_FIELDS`.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in self.NONDETERMINISTIC_FIELDS
        }


@runtime_checkable
class SolverProtocol(Protocol):
    """Structural type of a solver: a named ``solve`` entry point."""

    name: str

    def solve(
        self,
        app: "PipelineApplication",
        platform: "Platform",
        request: SolveRequest,
    ) -> SolveResult:  # pragma: no cover - protocol signature only
        ...
