"""Core data model of the reproduction: applications, platforms, mappings, costs.

This sub-package implements Section 2 of the paper (the applicative framework,
the target platform and the bi-criteria cost model) and small multi-objective
utilities used by the experiment harness.
"""

from .application import PipelineApplication, Stage
from .costs import (
    BatchEvaluation,
    MappingEvaluation,
    evaluate,
    evaluate_batch,
    interval_compute_time,
    interval_cycle_time,
    interval_time_components,
    latency,
    optimal_latency,
    optimal_latency_mapping,
    period,
    period_lower_bound,
)
from .exceptions import (
    ConfigurationError,
    InfeasibleError,
    InvalidApplicationError,
    InvalidMappingError,
    InvalidPlatformError,
    ReproError,
    SimulationError,
)
from .identity import (
    application_payload,
    canonical_document_payload,
    canonical_instance_document,
    digest_document,
    instance_digest,
    platform_payload,
)
from .mapping import Interval, IntervalMapping
from .pareto import (
    BicriteriaPoint,
    best_by_weighted_sum,
    dominates,
    hypervolume_2d,
    ideal_point,
    nadir_point,
    pareto_front,
    weighted_sum,
)
from .platform import Platform, PlatformClass, Processor
from .serialization import (
    application_from_dict,
    application_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_json,
    mapping_from_dict,
    mapping_to_dict,
    platform_from_dict,
    platform_to_dict,
    save_json,
)

__all__ = [
    # serialization
    "application_to_dict",
    "application_from_dict",
    "platform_to_dict",
    "platform_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "save_json",
    "load_json",
    # identity
    "application_payload",
    "canonical_document_payload",
    "canonical_instance_document",
    "digest_document",
    "instance_digest",
    "platform_payload",
    # application
    "PipelineApplication",
    "Stage",
    # platform
    "Platform",
    "PlatformClass",
    "Processor",
    # mapping
    "Interval",
    "IntervalMapping",
    # costs
    "BatchEvaluation",
    "MappingEvaluation",
    "evaluate",
    "evaluate_batch",
    "interval_compute_time",
    "interval_cycle_time",
    "interval_time_components",
    "latency",
    "optimal_latency",
    "optimal_latency_mapping",
    "period",
    "period_lower_bound",
    # pareto
    "BicriteriaPoint",
    "best_by_weighted_sum",
    "dominates",
    "hypervolume_2d",
    "ideal_point",
    "nadir_point",
    "pareto_front",
    "weighted_sum",
    # exceptions
    "ReproError",
    "InvalidApplicationError",
    "InvalidPlatformError",
    "InvalidMappingError",
    "InfeasibleError",
    "ConfigurationError",
    "SimulationError",
]
