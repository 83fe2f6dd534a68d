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

Every pass is a walk down the instance's bi-criteria trajectory trie
(:meth:`~repro.heuristics.engine.TrajectoryNode.walk`): the passes of one run, and
the runs at other thresholds in the same scope, share every state they
have in common, so each distinct split is applied once.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.platform import Platform
from .base import FixedPeriodHeuristic, HeuristicResult, reached, stop_limit
from .engine import SelectionRule, trajectory

__all__ = ["SplittingBiPeriod"]


class SplittingBiPeriod(FixedPeriodHeuristic):
    """``H4 Sp bi P`` — bi-criteria splitting + binary search on the latency."""

    name: ClassVar[str] = "Sp bi P"
    key: ClassVar[str] = "H4"

    #: number of bisection steps on the authorised latency
    n_search_iterations: ClassVar[int] = 25
    #: stop the bisection once the latency window is this small (relative)
    search_rel_tol: ClassVar[float] = 1e-4

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        root = trajectory(app, platform, SelectionRule.RATIO)
        # Unconstrained pass: establishes feasibility and the upper bound of
        # the binary search on the authorised latency.
        best = root.walk(bound)
        if not reached(best.period, bound):
            # the prescribed period cannot be reached even without a latency cap
            return self._node_result(best, bound)

        lo = root.latency  # optimal latency (Lemma 1)
        hi = best.latency
        for _ in range(self.n_search_iterations):
            if hi - lo <= self.search_rel_tol * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            # a pass that keeps every split within the authorised latency
            trial = root.walk(bound, stop_limit(mid))
            if reached(trial.period, bound):
                hi = mid
                if trial.latency < best.latency - 1e-12:
                    best = trial
            else:
                lo = mid
        return self._node_result(best, bound)
