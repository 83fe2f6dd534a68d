"""3-Exploration heuristics: ``H2 3-Explo-mono`` and ``H3 3-Explo-bi``.

At each step the interval of the bottleneck processor is split into *three*
parts; two of them are handed to the next **pair** of fastest unused
processors while the third stays on the bottleneck processor.  All cut-pair
positions and all ``3!`` part-to-processor assignments are explored:

* **3-Explo mono** (H2, fixed period) keeps the candidate minimising
  ``max(period(j), period(j'), period(j''))``;
* **3-Explo bi** (H3, fixed period) keeps the candidate minimising
  ``max_{i in {j, j', j''}} Δlatency / Δperiod(i)``.

The 3-exploration heuristics only ever perform genuine three-way splits: when
fewer than two unused processors remain, when the bottleneck interval has
fewer than three stages, or when no three-way split improves on the current
bottleneck (e.g. because the next pair of processors contains a slow one),
they stop.  This matches the paper's observations — with few processors the
3-exploration heuristics stall early and exhibit the largest failure
thresholds of Table 1, while with ``p = 100`` they become competitive because
fast processor pairs remain available much longer.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.platform import Platform
from .base import FixedPeriodHeuristic, HeuristicResult, reached
from .engine import SelectionRule, SplitCandidate, SplittingState

__all__ = ["ThreeExploMono", "ThreeExploBi"]


class _ThreeExploration(FixedPeriodHeuristic):
    """Common loop of the 3-exploration heuristics."""

    rule: ClassVar[str] = SelectionRule.MONO

    def _step_candidate(self, state: SplittingState) -> SplitCandidate | None:
        j = state.bottleneck_index
        unused = state.next_unused(2)
        if len(unused) < 2:
            return None
        return state.best_three_way_split(
            j, unused, rule=self.rule, require_improvement=True
        )

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        state = SplittingState(app, platform)
        history = [state.point()]
        n_splits = 0
        while not reached(state.period, bound):
            candidate = self._step_candidate(state)
            if candidate is None:
                break
            state.apply(candidate)
            n_splits += 1
            history.append(state.point())
        return self._make_result(app, platform, state.mapping(), bound, n_splits, history)


class ThreeExploMono(_ThreeExploration):
    """``H2 3-Explo mono`` — mono-criterion 3-way exploration, fixed period."""

    name: ClassVar[str] = "3-Explo mono"
    key: ClassVar[str] = "H2"
    rule: ClassVar[str] = SelectionRule.MONO


class ThreeExploBi(_ThreeExploration):
    """``H3 3-Explo bi`` — bi-criteria 3-way exploration, fixed period."""

    name: ClassVar[str] = "3-Explo bi"
    key: ClassVar[str] = "H3"
    rule: ClassVar[str] = SelectionRule.RATIO
