"""The six polynomial bi-criteria heuristics of Section 4 of the paper."""

from .base import (
    FixedLatencyHeuristic,
    FixedPeriodHeuristic,
    HeuristicResult,
    Objective,
    PipelineHeuristic,
)
from .baselines import ChainsPartitionBaseline, RandomMappingBaseline
from .binary_search import SplittingBiPeriod
from .engine import SelectionRule, TrajectoryNode, trajectory
from .exploration import ThreeExploBi, ThreeExploMono
from .registry import (
    HEURISTIC_CLASSES,
    all_heuristics,
    fixed_latency_heuristics,
    fixed_period_heuristics,
    get_heuristic,
    heuristic_names,
    resolve_heuristics,
)
from .splitting import SplittingBiLatency, SplittingMonoLatency, SplittingMonoPeriod

__all__ = [
    "Objective",
    "HeuristicResult",
    "ChainsPartitionBaseline",
    "RandomMappingBaseline",
    "PipelineHeuristic",
    "FixedPeriodHeuristic",
    "FixedLatencyHeuristic",
    "SelectionRule",
    "TrajectoryNode",
    "trajectory",
    "SplittingMonoPeriod",
    "SplittingMonoLatency",
    "SplittingBiLatency",
    "ThreeExploMono",
    "ThreeExploBi",
    "SplittingBiPeriod",
    "HEURISTIC_CLASSES",
    "all_heuristics",
    "fixed_period_heuristics",
    "fixed_latency_heuristics",
    "get_heuristic",
    "heuristic_names",
    "resolve_heuristics",
]
