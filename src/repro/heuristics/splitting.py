"""Splitting heuristics: ``H1 Sp-mono-P``, ``H5 Sp-mono-L`` and ``H6 Sp-bi-L``.

All three repeatedly split the interval of the current bottleneck processor,
handing part of it to the next fastest unused processor:

* **Sp mono P** (H1, fixed period): among all cuts/orientations, apply the one
  minimising ``max(period(j), period(j'))`` provided it improves on the
  current bottleneck; stop as soon as the prescribed period is reached or no
  improving split exists.
* **Sp mono L** (H5, fixed latency): same selection rule, but splits are only
  allowed while the global latency stays within the prescribed bound, and
  splitting continues as long as the period keeps improving.
* **Sp bi L** (H6, fixed latency): same loop as H5 but the split is selected
  by the bi-criteria rule ``min max_i Δlatency / Δperiod(i)``.

Each run is a walk down the instance's trajectory trie
(:func:`~repro.heuristics.engine.trajectory`): H1 walks the mono trie
uncapped, which is exactly H5's path at an unbounded latency, so H1 and
H5 share nodes, and runs at other bounds in the same scope share every
state they have in common.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.platform import Platform
from .base import (
    FixedLatencyHeuristic,
    FixedPeriodHeuristic,
    HeuristicResult,
    reached,
    stop_limit,
)
from .engine import SelectionRule, TrajectoryNode, trajectory

__all__ = ["SplittingMonoPeriod", "SplittingMonoLatency", "SplittingBiLatency"]


class FixedPeriodWalk(FixedPeriodHeuristic):
    """A fixed-period heuristic that splits until the period is reached.

    The run walks the instance's trajectory trie under :attr:`rule` and
    :attr:`width` without a latency cap and stops as soon as the period
    meets the bound or the walk stalls.  The selection never sees the bound
    — it only decides when the walk *stops* — which makes the trajectory
    threshold-independent and the heuristic frontier-capable
    (:mod:`repro.solvers.frontier` walks the same trie to exhaustion).
    """

    rule: ClassVar[str] = SelectionRule.MONO
    #: parts per split: 2 (splitting) or 3 (3-exploration)
    width: ClassVar[int] = 2

    def _root(self, app: PipelineApplication, platform: Platform) -> TrajectoryNode:
        """The root of the trie the heuristic walks."""
        return trajectory(app, platform, self.rule, self.width)

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        node = self._root(app, platform).walk(bound)
        return self._node_result(node, bound)


class SplittingMonoPeriod(FixedPeriodWalk):
    """``H1 Sp mono P`` — mono-criterion splitting for a fixed period."""

    name: ClassVar[str] = "Sp mono P"
    key: ClassVar[str] = "H1"


class _FixedLatencySplitting(FixedLatencyHeuristic):
    """Common loop of the fixed-latency splitting heuristics (H5 / H6).

    The loop is a walk down the instance's trajectory trie under
    :attr:`rule`, with the bound as the latency cap of every split.
    """

    rule: ClassVar[str] = SelectionRule.MONO

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        node = trajectory(app, platform, self.rule)
        # If even the latency-optimal initial mapping exceeds the bound, the
        # run is infeasible; the walk below can only keep latency <= bound.
        if reached(node.latency, bound):
            node = node.walk(limit=stop_limit(bound))
        return self._node_result(node, bound)


class SplittingMonoLatency(_FixedLatencySplitting):
    """``H5 Sp mono L`` — mono-criterion splitting for a fixed latency."""

    name: ClassVar[str] = "Sp mono L"
    key: ClassVar[str] = "H5"
    rule: ClassVar[str] = SelectionRule.MONO


class SplittingBiLatency(_FixedLatencySplitting):
    """``H6 Sp bi L`` — bi-criteria splitting for a fixed latency."""

    name: ClassVar[str] = "Sp bi L"
    key: ClassVar[str] = "H6"
    rule: ClassVar[str] = SelectionRule.RATIO
