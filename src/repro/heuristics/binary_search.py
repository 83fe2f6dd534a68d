"""``H4 Sp-bi-P``: bi-criteria splitting with a binary search on the latency.

The heuristic fixes an *authorised latency* — the optimal latency of Lemma 1
multiplied by an allowed increase — and runs a splitting pass in which every
candidate split must keep the global latency within the authorised value;
candidates are selected by the bi-criteria rule ``min max_i Δlatency /
Δperiod(i)``.  If the pass reaches the prescribed period the authorised
latency is reduced, otherwise it is increased, following a classical binary
search; the best (smallest-latency) feasible solution found across the search
is returned.

The paper does not specify the upper bound of the search; we use the latency
obtained by an unconstrained pass (infinite authorised latency), which is
feasible whenever any pass can be.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.platform import Platform
from .base import FixedPeriodHeuristic, HeuristicResult, reached
from .engine import SelectionRule, SplittingState

__all__ = ["SplittingBiPeriod"]


class SplittingBiPeriod(FixedPeriodHeuristic):
    """``H4 Sp bi P`` — bi-criteria splitting + binary search on the latency."""

    name: ClassVar[str] = "Sp bi P"
    key: ClassVar[str] = "H4"

    #: number of bisection steps on the authorised latency
    n_search_iterations: ClassVar[int] = 25
    #: stop the bisection once the latency window is this small (relative)
    search_rel_tol: ClassVar[float] = 1e-4

    def _splitting_pass(
        self,
        app: PipelineApplication,
        platform: Platform,
        period_bound: float,
        authorized_latency: float | None,
    ) -> tuple[SplittingState, int, list[tuple[float, float]]]:
        """One splitting pass under a latency cap (``None`` = unconstrained)."""
        state = SplittingState(app, platform)
        history = [state.point()]
        n_splits = 0
        while not reached(state.period, period_bound):
            unused = state.next_unused(1)
            if not unused:
                break
            j = state.bottleneck_index
            candidate = state.best_two_way_split(
                j,
                unused[0],
                rule=SelectionRule.RATIO,
                latency_cap=authorized_latency,
                require_improvement=True,
            )
            if candidate is None:
                break
            state.apply(candidate)
            n_splits += 1
            history.append(state.point())
        return state, n_splits, history

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        # Unconstrained pass: establishes feasibility and the upper bound of
        # the binary search on the authorised latency.
        state, n_splits, history = self._splitting_pass(app, platform, bound, None)
        if not reached(state.period, bound):
            # the prescribed period cannot be reached even without a latency cap
            return self._make_result(
                app, platform, state.mapping(), bound, n_splits, history
            )

        best_state, best_splits, best_history = state, n_splits, history
        lo = SplittingState(app, platform).latency  # optimal latency (Lemma 1)
        hi = state.latency
        for _ in range(self.n_search_iterations):
            if hi - lo <= self.search_rel_tol * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            trial_state, trial_splits, trial_history = self._splitting_pass(
                app, platform, bound, mid
            )
            if reached(trial_state.period, bound):
                hi = mid
                if trial_state.latency < best_state.latency - 1e-12:
                    best_state, best_splits, best_history = (
                        trial_state,
                        trial_splits,
                        trial_history,
                    )
            else:
                lo = mid
        return self._make_result(
            app, platform, best_state.mapping(), bound, best_splits, best_history
        )
