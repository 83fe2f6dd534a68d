"""Global solver registry: every solver addressable by one name lookup.

The registry is the single dispatch surface of the repository: the CLI
(``repro solve --solver NAME|all|exact|heuristics|extensions``), the
experiment drivers and the benchmarks all resolve solvers here, so adding a
solver to :mod:`repro.solvers.adapters` makes it reachable everywhere at
once — the same move PR 1 made for cost evaluation with ``evaluate_batch``.

Solvers are registered as :class:`SolverSpec` records (name, key, family,
objective, capability tags, solve function) and handed out wrapped in a
:class:`Solver` handle that

* stamps every result with provenance (solver name, family, wall time);
* offers the heuristic-style ``run(app, platform, period_bound=...,
  latency_bound=...)`` convenience used by the experiment runner, so
  registered solvers and plain heuristics are interchangeable there;
* pickles by name, so the parallel experiment engine can ship it to worker
  processes and every solution field stays byte-identical to a serial run
  (only the ``wall_time`` stamp measures the actual run).

Lookups accept the canonical name, the short key, or any registered alias,
all case/punctuation-insensitively; unknown names raise a :class:`KeyError`
with did-you-mean suggestions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core import kernels
from ..core.exceptions import ConfigurationError
from ..heuristics.base import PipelineHeuristic
from ..utils.validation import suggest_names
from .base import Capability, Objective, SolveRequest, SolveResult, SolverFamily

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "SolverSpec",
    "Solver",
    "GROUP_SELECTORS",
    "register_solver",
    "get_solver",
    "solver_names",
    "solver_specs",
    "resolve_solvers",
    "solvers_for_platform",
    "as_solver",
    "suggest_names",
]

#: group selectors accepted by :func:`resolve_solvers` (singular aliases too)
_GROUPS = {
    "all": None,
    "heuristics": SolverFamily.HEURISTIC,
    "heuristic": SolverFamily.HEURISTIC,
    "exact": SolverFamily.EXACT,
    "extensions": SolverFamily.EXTENSION,
    "extension": SolverFamily.EXTENSION,
}

#: the group selectors, for CLI help text and selection checks
GROUP_SELECTORS = tuple(_GROUPS)


@dataclass(frozen=True)
class SolverSpec:
    """Registration record of one solver.

    ``solve_fn(app, platform, request) -> SolveResult`` does the actual work;
    provenance fields of its result are overwritten by the registry wrapper,
    so adapters never need to repeat name/family.

    ``capabilities`` are the solver's :class:`~repro.solvers.base.Capability`
    tags, its one declaration of platform classes and solve modes: e.g.
    ``Capability.FRONTIER`` alone routes a solver's threshold groups
    through :mod:`repro.solvers.frontier`.

    ``version`` is the solver's cache-invalidation tag: the solve cache
    (:mod:`repro.cache`) keys results by ``(instance, solver name, solver
    version, request)``, so a behavioural change — a bug fix, different
    tie-breaking, a new cost model — must bump the version to retire the
    solver's cached results without touching the rest of a shared store.
    """

    name: str
    key: str
    family: str
    objective: str
    solve_fn: Callable[..., SolveResult]
    capabilities: frozenset[str] = frozenset()
    description: str = ""
    aliases: tuple[str, ...] = ()
    version: str = "1"

    def __post_init__(self) -> None:
        if self.family not in SolverFamily.ALL:
            raise ConfigurationError(f"unknown solver family {self.family!r}")
        if self.objective not in Objective.ALL:
            raise ConfigurationError(f"unknown solver objective {self.objective!r}")


class Solver:
    """Registry handle of a solver: uniform ``solve`` with provenance stamping."""

    #: registered solvers are pure functions of (instance, request) fully
    #: identified by (name, version), so their results may be memoised; the
    #: ad-hoc wrapper below opts out (one name covers many configurations)
    cacheable = True

    def __init__(self, spec: SolverSpec) -> None:
        self.spec = spec

    # -- identity ------------------------------------------------------- #
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def objective(self) -> str:
        return self.spec.objective

    @property
    def capabilities(self) -> frozenset[str]:
        return self.spec.capabilities

    @property
    def version(self) -> str:
        """Cache-invalidation tag of the solver (see :class:`SolverSpec`)."""
        return self.spec.version

    @property
    def description(self) -> str:
        return self.spec.description

    @property
    def needs_budget(self) -> bool:
        """Whether the solver is anytime and requires a step/time budget."""
        return Capability.ANYTIME in self.spec.capabilities

    def __repr__(self) -> str:
        return (
            f"Solver(name={self.name!r}, key={self.key!r}, family={self.family!r})"
        )

    # -- platform compatibility ----------------------------------------- #
    def supports(self, platform: "Platform") -> tuple[bool, str | None]:
        """Whether the solver accepts ``platform`` (and why not, if not).

        Uses the same platform predicates as the solvers themselves
        (``Platform.is_fully_homogeneous`` / ``is_communication_homogeneous``),
        so the registry's skip decision can never disagree with a solver's
        own platform check.
        """
        caps = self.spec.capabilities
        if Capability.HOMOGENEOUS_ONLY in caps and not platform.is_fully_homogeneous:
            return False, "requires identical processor speeds and link bandwidths"
        if Capability.COMM_HOMOGENEOUS_ONLY in caps:
            if not platform.is_communication_homogeneous:
                return False, "requires identical link bandwidths"
        return True, None

    # -- solving --------------------------------------------------------- #
    def default_request(
        self,
        *,
        period_bound: float | None = None,
        latency_bound: float | None = None,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> SolveRequest:
        """Build the request matching this solver's objective from raw bounds.

        Anytime solvers require one of the budget arguments; for every other
        solver the budgets are dropped, so budget-oblivious solvers keep
        their historical request hashes (and warm cache entries) even when a
        caller passes blanket budgets to a whole batch.
        """
        if self.needs_budget:
            if max_steps is None and time_budget is None:
                raise ConfigurationError(
                    f"{self.name} is an anytime solver and needs "
                    f"max_steps= or time_budget="
                )
        else:
            max_steps = None
            time_budget = None
        budgets = {"max_steps": max_steps, "time_budget": time_budget}
        if self.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            if period_bound is None:
                raise ConfigurationError(f"{self.name} needs period_bound=")
            return SolveRequest.fixed_period(period_bound, **budgets)
        if self.objective == Objective.MIN_PERIOD_FOR_LATENCY:
            if latency_bound is None:
                raise ConfigurationError(f"{self.name} needs latency_bound=")
            return SolveRequest.fixed_latency(latency_bound, **budgets)
        if self.objective == Objective.MIN_PERIOD:
            return SolveRequest.min_period(latency_bound, **budgets)
        return SolveRequest.min_latency(period_bound, **budgets)

    def solve(
        self,
        app: "PipelineApplication",
        platform: "Platform",
        request: SolveRequest,
    ) -> SolveResult:
        """Run the solver on an instance and stamp provenance on the result."""
        if request.objective != self.objective:
            raise ConfigurationError(
                f"solver {self.name!r} optimises {self.objective!r}, "
                f"got a request for {request.objective!r}"
            )
        start = time.perf_counter()
        result = self.spec.solve_fn(app, platform, request)
        elapsed = time.perf_counter() - start
        return result.stamped(
            solver=self.name,
            family=self.family,
            wall_time=elapsed,
            backend=kernels.active_backend(),
        )

    def run(
        self,
        app: "PipelineApplication",
        platform: "Platform",
        *,
        period_bound: float | None = None,
        latency_bound: float | None = None,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> SolveResult:
        """Heuristic-style entry point (used by the experiment runner).

        The bounds are interpreted according to the solver's objective, so a
        registered solver drops into any call site written for
        :class:`~repro.heuristics.base.PipelineHeuristic`.  Budgets follow
        the :meth:`default_request` rules (required for anytime solvers,
        dropped otherwise).
        """
        request = self.default_request(
            period_bound=period_bound,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )
        return self.solve(app, platform, request)

    # -- pickling: by name, re-resolved in the worker process ------------- #
    def __reduce__(self):
        return (get_solver, (self.name,))


class _AdhocHeuristicSolver(Solver):
    """Wrapper for heuristic *instances* that are not in the registry.

    The ablation studies build one-off heuristic variants (custom processor
    orders, isolated selection rules); :func:`as_solver` wraps them so the
    generic runner treats them like registered solvers.  Pickles by value —
    the wrapped instance carries its own configuration.  Not cacheable: two
    differently-configured variants share one display name, so a name-keyed
    cache entry could be served to the wrong configuration.
    """

    cacheable = False

    def __init__(self, heuristic: PipelineHeuristic) -> None:
        from ..extensions.heterogeneous_links import HeterogeneousSplittingPeriod
        from .adapters import heuristic_solve_fn

        self._heuristic = heuristic
        # mirror the registered heuristics: the Section 4 engine models
        # communication-homogeneous platforms only, except the
        # heterogeneous-links extension family
        if isinstance(heuristic, HeterogeneousSplittingPeriod):
            capabilities = frozenset(
                {Capability.BICRITERIA, Capability.HETEROGENEOUS_LINKS}
            )
        else:
            capabilities = frozenset(
                {Capability.BICRITERIA, Capability.COMM_HOMOGENEOUS_ONLY}
            )
        super().__init__(
            SolverSpec(
                name=heuristic.name,
                key=heuristic.key,
                family=SolverFamily.HEURISTIC,
                objective=heuristic.objective,
                solve_fn=heuristic_solve_fn(heuristic),
                capabilities=capabilities,
                description=f"ad-hoc wrapper around {type(heuristic).__name__}",
            )
        )

    def __reduce__(self):
        return (_AdhocHeuristicSolver, (self._heuristic,))


# --------------------------------------------------------------------------- #
# the registry proper
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, SolverSpec] = {}
_LOOKUP: dict[str, str] = {}  # normalised alias -> canonical name


def _normalise(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def register_solver(spec: SolverSpec) -> SolverSpec:
    """Register a solver (name, key and aliases must not collide)."""
    handles = (spec.name, spec.key, *spec.aliases)
    for handle in handles:
        norm = _normalise(handle)
        if norm in _LOOKUP and _LOOKUP[norm] != spec.name:
            raise ConfigurationError(
                f"solver handle {handle!r} already registered for {_LOOKUP[norm]!r}"
            )
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"solver {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    for handle in handles:
        _LOOKUP[_normalise(handle)] = spec.name
    return spec


def get_solver(name: str) -> Solver:
    """Look up a solver by name, key or alias.

    >>> get_solver("H1").name
    'Sp mono P'
    >>> get_solver("hom-dp-period").family
    'exact'
    """
    norm = _normalise(name)
    if norm not in _LOOKUP:
        handles = [s.name for s in _REGISTRY.values()] + [
            s.key for s in _REGISTRY.values()
        ]
        suggestions = suggest_names(name, handles)
        hint = f" — did you mean {', '.join(map(repr, suggestions))}?" if suggestions else ""
        raise KeyError(
            f"unknown solver {name!r}{hint} "
            f"(known solvers: {', '.join(sorted(handles))})"
        )
    return Solver(_REGISTRY[_LOOKUP[norm]])


def solver_specs(family: str | None = None) -> list[SolverSpec]:
    """Registered specs, in registration order (optionally one family)."""
    specs = list(_REGISTRY.values())
    if family is not None:
        specs = [s for s in specs if s.family == family]
    return specs


def solver_names(family: str | None = None) -> list[str]:
    """Canonical names of the registered solvers, in registration order."""
    return [spec.name for spec in solver_specs(family)]


def resolve_solvers(
    selection: str | Iterable[str] | Sequence[str] | None,
) -> list[Solver]:
    """Resolve a selection into solver handles.

    ``selection`` may be ``None`` / ``"all"`` (every registered solver), a
    group name (``"heuristics"``, ``"exact"``, ``"extensions"``), a single
    solver name, or an iterable of names.
    """
    if selection is None:
        return [Solver(spec) for spec in solver_specs()]
    if isinstance(selection, str):
        group = selection.strip().lower()
        if group in _GROUPS:
            return [Solver(spec) for spec in solver_specs(_GROUPS[group])]
        return [get_solver(selection)]
    return [
        item if isinstance(item, Solver) else get_solver(item) for item in selection
    ]


def solvers_for_platform(
    platform: "Platform",
    selection: str | Iterable[str] | None = "all",
    require: Iterable[str] = (),
    request: "SolveRequest | None" = None,
) -> list[Solver]:
    """The selected solvers that accept ``platform`` and carry ``require`` tags.

    The workhorse of capability-based dispatch: e.g. every exact solver valid
    on a given platform is
    ``solvers_for_platform(platform, require={Capability.EXACT})``.

    When ``request`` is given, anytime solvers are skipped unless it carries
    a step/time budget — they cannot run without one, so returning them
    would make the caller's next ``solve`` call raise.
    """
    required = frozenset(require)
    chosen = []
    for solver in resolve_solvers(selection):
        if not required.issubset(solver.capabilities):
            continue
        if solver.needs_budget and (request is None or not request.has_budget):
            continue
        ok, _ = solver.supports(platform)
        if ok:
            chosen.append(solver)
    return chosen


def as_solver(obj: "Solver | PipelineHeuristic | str") -> Solver:
    """Coerce a name, heuristic instance or solver handle into a handle."""
    if isinstance(obj, Solver):
        return obj
    if isinstance(obj, str):
        return get_solver(obj)
    if isinstance(obj, PipelineHeuristic):
        return _AdhocHeuristicSolver(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a solver")
