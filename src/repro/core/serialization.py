"""JSON-friendly serialisation of the core objects.

Instances (applications + platforms), mappings and heuristic results need to
be stored and exchanged: experiment campaigns are long, and users want to
re-evaluate a mapping produced yesterday on today's cost model.  This module
provides ``to_dict`` / ``from_dict`` converters producing plain dictionaries
of built-in types (safe to dump with :mod:`json`) plus thin file helpers.

Only data is serialised — never behaviour — so loading a document cannot
execute anything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .application import PipelineApplication
from .exceptions import ReproError
from .mapping import IntervalMapping
from .platform import Platform

__all__ = [
    "application_to_dict",
    "application_from_dict",
    "platform_to_dict",
    "platform_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "solve_result_to_dict",
    "solve_result_from_dict",
    "save_json",
    "load_json",
]


class SerializationError(ReproError, ValueError):
    """Raised when a document cannot be converted back into an object."""


def _require(document: Mapping[str, Any], key: str, kind: str) -> Any:
    if key not in document:
        raise SerializationError(f"{kind} document is missing the {key!r} field")
    return document[key]


# --------------------------------------------------------------------------- #
# applications
# --------------------------------------------------------------------------- #
def application_to_dict(app: PipelineApplication) -> dict[str, Any]:
    """Convert an application to a JSON-serialisable dictionary."""
    return {
        "type": "pipeline-application",
        "name": app.name,
        "works": [float(w) for w in app.works],
        "comm_sizes": [float(d) for d in app.comm_sizes],
    }


def application_from_dict(document: Mapping[str, Any]) -> PipelineApplication:
    """Rebuild an application from :func:`application_to_dict` output."""
    works = _require(document, "works", "application")
    comm_sizes = _require(document, "comm_sizes", "application")
    return PipelineApplication(
        works, comm_sizes, name=str(document.get("name", "pipeline"))
    )


# --------------------------------------------------------------------------- #
# platforms
# --------------------------------------------------------------------------- #
def platform_to_dict(platform: Platform) -> dict[str, Any]:
    """Convert a platform to a JSON-serialisable dictionary.

    Communication-homogeneous platforms store the scalar bandwidth; fully
    heterogeneous ones store the full matrix.
    """
    document: dict[str, Any] = {
        "type": "platform",
        "name": platform.name,
        "speeds": [float(s) for s in platform.speeds],
        "input_bandwidth": float(platform.input_bandwidth),
        "output_bandwidth": float(platform.output_bandwidth),
    }
    if platform.is_communication_homogeneous:
        document["bandwidth"] = float(platform.uniform_bandwidth)
    else:
        matrix = platform.bandwidth_matrix()
        matrix = np.where(np.isinf(matrix), 0.0, matrix)
        document["bandwidth_matrix"] = [[float(x) for x in row] for row in matrix]
    return document


def platform_from_dict(document: Mapping[str, Any]) -> Platform:
    """Rebuild a platform from :func:`platform_to_dict` output."""
    speeds = _require(document, "speeds", "platform")
    kwargs = dict(
        input_bandwidth=document.get("input_bandwidth"),
        output_bandwidth=document.get("output_bandwidth"),
        name=str(document.get("name", "platform")),
    )
    if "bandwidth" in document:
        return Platform(speeds, float(document["bandwidth"]), **kwargs)
    if "bandwidth_matrix" in document:
        matrix = np.asarray(document["bandwidth_matrix"], dtype=float)
        return Platform(speeds, matrix, **kwargs)
    raise SerializationError(
        "platform document needs either 'bandwidth' or 'bandwidth_matrix'"
    )


# --------------------------------------------------------------------------- #
# mappings and whole instances
# --------------------------------------------------------------------------- #
def mapping_to_dict(mapping: IntervalMapping) -> dict[str, Any]:
    """Convert an interval mapping to a JSON-serialisable dictionary."""
    return {
        "type": "interval-mapping",
        "intervals": [[iv.start, iv.end] for iv in mapping.intervals],
        "processors": list(mapping.processors),
    }


def mapping_from_dict(document: Mapping[str, Any]) -> IntervalMapping:
    """Rebuild an interval mapping from :func:`mapping_to_dict` output."""
    intervals = _require(document, "intervals", "mapping")
    processors = _require(document, "processors", "mapping")
    return IntervalMapping(
        [(int(start), int(end)) for start, end in intervals],
        [int(u) for u in processors],
    )


def instance_to_dict(
    app: PipelineApplication,
    platform: Platform,
    mapping: IntervalMapping | None = None,
) -> dict[str, Any]:
    """Bundle an application, a platform and (optionally) a mapping."""
    document: dict[str, Any] = {
        "type": "pipeline-instance",
        "application": application_to_dict(app),
        "platform": platform_to_dict(platform),
    }
    if mapping is not None:
        document["mapping"] = mapping_to_dict(mapping)
    return document


def instance_from_dict(
    document: Mapping[str, Any],
) -> tuple[PipelineApplication, Platform, IntervalMapping | None]:
    """Rebuild an instance bundle created by :func:`instance_to_dict`."""
    app = application_from_dict(_require(document, "application", "instance"))
    platform = platform_from_dict(_require(document, "platform", "instance"))
    mapping = None
    if document.get("mapping") is not None:
        mapping = mapping_from_dict(document["mapping"])
        mapping.validate(app, platform)
    return app, platform, mapping


# --------------------------------------------------------------------------- #
# solver results
# --------------------------------------------------------------------------- #
def solve_result_to_dict(result) -> dict[str, Any]:
    """Convert a :class:`~repro.solvers.base.SolveResult` to a plain dictionary.

    The mapping it carries goes through :func:`mapping_to_dict`; every other
    field is a built-in scalar/list, so the document is JSON-safe and the
    dump/load round trip is byte-stable (including infeasible results).
    """
    return {
        "type": "solve-result",
        "solver": str(result.solver),
        "family": str(result.family),
        "mapping": mapping_to_dict(result.mapping),
        "period": float(result.period),
        "latency": float(result.latency),
        "feasible": bool(result.feasible),
        "objective": str(result.objective),
        "threshold": None if result.threshold is None else float(result.threshold),
        "n_splits": int(result.n_splits),
        "history": [[float(p), float(l)] for p, l in result.history],
        "wall_time": float(result.wall_time),
        "cache_hit": bool(result.cache_hit),
        "backend": None if result.backend is None else str(result.backend),
        "details": dict(result.details),
    }


def solve_result_from_dict(document: Mapping[str, Any]):
    """Rebuild a :class:`~repro.solvers.base.SolveResult` from its document."""
    # imported lazily: core must stay importable without the solver layer
    from ..solvers.base import SolveResult

    mapping = mapping_from_dict(_require(document, "mapping", "solve-result"))
    threshold = document.get("threshold")
    return SolveResult(
        solver=str(_require(document, "solver", "solve-result")),
        family=str(_require(document, "family", "solve-result")),
        mapping=mapping,
        period=float(_require(document, "period", "solve-result")),
        latency=float(_require(document, "latency", "solve-result")),
        feasible=bool(_require(document, "feasible", "solve-result")),
        objective=str(_require(document, "objective", "solve-result")),
        threshold=None if threshold is None else float(threshold),
        n_splits=int(document.get("n_splits", 0)),
        history=tuple(
            (float(p), float(l)) for p, l in document.get("history", [])
        ),
        wall_time=float(document.get("wall_time", 0.0)),
        cache_hit=bool(document.get("cache_hit", False)),
        # absent in documents predating the kernel provenance stamp
        backend=document.get("backend"),
        details=dict(document.get("details", {})),
    )


# --------------------------------------------------------------------------- #
# file helpers
# --------------------------------------------------------------------------- #
def save_json(document: Mapping[str, Any], path: str | Path) -> Path:
    """Write a document produced by the converters above to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON document written by :func:`save_json`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
