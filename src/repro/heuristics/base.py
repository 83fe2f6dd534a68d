"""Common interface of the bi-criteria mapping heuristics (Section 4).

Two families of heuristics are defined by the paper:

* *fixed period* — the period threshold is given, the heuristic tries to reach
  it while keeping the latency as small as possible (``H1 Sp-mono-P``,
  ``H2 3-Explo-mono``, ``H3 3-Explo-bi``, ``H4 Sp-bi-P``);
* *fixed latency* — the latency threshold is given, the heuristic minimises
  the period without exceeding it (``H5 Sp-mono-L``, ``H6 Sp-bi-L``).

Every heuristic returns a :class:`HeuristicResult`; infeasibility (the
threshold cannot be met) is reported through the ``feasible`` flag rather than
an exception, because the experiment harness of Section 5 collects failure
statistics over thousands of runs (Table 1).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.costs import evaluate
from ..core.exceptions import ConfigurationError
from ..core.mapping import IntervalMapping
from ..core.platform import Platform
from ..core.tables import instance_tables

__all__ = [
    "Objective",
    "HeuristicResult",
    "PipelineHeuristic",
    "FixedPeriodHeuristic",
    "FixedLatencyHeuristic",
]


class Objective:
    """String constants describing what a heuristic optimises."""

    MIN_LATENCY_FOR_PERIOD = "min-latency-for-fixed-period"
    MIN_PERIOD_FOR_LATENCY = "min-period-for-fixed-latency"


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of a heuristic run.

    Attributes
    ----------
    heuristic:
        Short name of the heuristic (paper notation, e.g. ``"Sp mono P"``).
    mapping:
        The final interval mapping (always a valid mapping, even on failure).
    period / latency:
        Analytical period and latency of ``mapping`` (eqs. 1 and 2).
    feasible:
        Whether the threshold (``period_bound`` or ``latency_bound``) is met.
    threshold:
        The bound that was enforced.
    objective:
        One of the :class:`Objective` constants.
    n_splits:
        Number of splitting steps performed (enrolled processors minus one).
    history:
        ``(period, latency)`` after the initial mapping and after every split,
        useful for tracing and for the ablation study.
    """

    heuristic: str
    mapping: IntervalMapping
    period: float
    latency: float
    feasible: bool
    threshold: float
    objective: str
    n_splits: int = 0
    history: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    @property
    def point(self) -> tuple[float, float]:
        """The (period, latency) objective point of the final mapping."""
        return (self.period, self.latency)


class PipelineHeuristic(abc.ABC):
    """Base class of every mapping heuristic.

    Subclasses set :attr:`name` (paper notation), :attr:`key` (the ``H1``
    .. ``H6`` identifier used by Table 1) and :attr:`objective`, and implement
    :meth:`_solve`.
    """

    #: Paper notation, e.g. ``"Sp mono P"``.
    name: ClassVar[str] = "abstract"
    #: Table 1 identifier, e.g. ``"H1"``.
    key: ClassVar[str] = "H?"
    #: Which bound the heuristic takes (see :class:`Objective`).
    objective: ClassVar[str] = Objective.MIN_LATENCY_FOR_PERIOD

    def run(
        self,
        app: PipelineApplication,
        platform: Platform,
        *,
        period_bound: float | None = None,
        latency_bound: float | None = None,
    ) -> HeuristicResult:
        """Run the heuristic with the appropriate bound.

        Exactly one of ``period_bound`` / ``latency_bound`` must be provided,
        matching the heuristic's :attr:`objective`.  The run opens (or joins)
        an :func:`~repro.core.tables.instance_tables` scope, so repeated
        passes — H4's bisection — rank each split once.
        """
        if self.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            if period_bound is None or latency_bound is not None:
                raise ConfigurationError(
                    f"{self.name} minimises latency for a fixed period: "
                    "pass period_bound= (and not latency_bound=)"
                )
            if period_bound <= 0:
                raise ConfigurationError("period_bound must be positive")
            bound = period_bound
        else:
            if latency_bound is None or period_bound is not None:
                raise ConfigurationError(
                    f"{self.name} minimises period for a fixed latency: "
                    "pass latency_bound= (and not period_bound=)"
                )
            if latency_bound <= 0:
                raise ConfigurationError("latency_bound must be positive")
            bound = latency_bound
        with instance_tables():
            return self._solve(app, platform, float(bound))

    @abc.abstractmethod
    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        """Heuristic-specific solving logic (bound interpretation per objective)."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _make_result(
        self,
        app: PipelineApplication,
        platform: Platform,
        mapping: IntervalMapping,
        bound: float,
        n_splits: int,
        history: list[tuple[float, float]],
    ) -> HeuristicResult:
        ev = evaluate(app, platform, mapping)
        if self.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            feasible = ev.period <= bound * (1 + 1e-9) + 1e-12
        else:
            feasible = ev.latency <= bound * (1 + 1e-9) + 1e-12
        return HeuristicResult(
            heuristic=self.name,
            mapping=mapping,
            period=float(ev.period),
            latency=float(ev.latency),
            feasible=bool(feasible),
            threshold=float(bound),
            objective=self.objective,
            n_splits=n_splits,
            history=tuple(history),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, key={self.key!r})"


class FixedPeriodHeuristic(PipelineHeuristic):
    """Convenience base class for the fixed-period family."""

    objective: ClassVar[str] = Objective.MIN_LATENCY_FOR_PERIOD


class FixedLatencyHeuristic(PipelineHeuristic):
    """Convenience base class for the fixed-latency family."""

    objective: ClassVar[str] = Objective.MIN_PERIOD_FOR_LATENCY
