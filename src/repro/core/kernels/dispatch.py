"""Backend state and kernel dispatch: the single ``backend=`` knob.

One process-wide *active backend* (``numpy`` unless ``REPRO_BACKEND`` says
otherwise) governs every hot-path kernel; callers override it per call with
``backend=`` or per region with :func:`use_backend`.  The pool engine
(:mod:`repro.utils.parallel`) mirrors the parent's active backend into its
workers, so pooled runs always compute with the same kernels as serial
runs.

Backends:

``numpy``
    The broadcast/reduce reference kernels — the oracle every other
    backend is validated against.
``scalar``
    The original Python loops (the historical ``vectorized=False``),
    kept as the independently-auditable baseline.
``compiled``
    the built-in C library (:mod:`repro.core.kernels.compiled`),
    bit-identical to ``numpy`` by validation; silently served by the numpy
    kernels when no engine is available (see
    :func:`compiled_unavailable_reason`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..exceptions import ConfigurationError
from . import reference

__all__ = [
    "BACKENDS",
    "ELEMENTWISE_COMPILED_MIN",
    "elementwise_compiled_min",
    "set_elementwise_compiled_min",
    "active_backend",
    "set_active_backend",
    "use_backend",
    "resolve_backend",
    "compiled_engine",
    "compiled_unavailable_reason",
    "backend_info",
    "min_period_tables",
    "min_latency_tables",
    "batch_terms",
    "interval_components",
]

#: the selectable kernel backends, in documentation order
BACKENDS = ("numpy", "scalar", "compiled")

#: smallest elementwise batch (intervals) worth routing to a compiled
#: engine: below this the per-call marshalling overhead exceeds the loop
#: itself and the bit-identical numpy kernels are faster.  The DP table
#: kernels have no such floor — they win at every size the solvers use.
#:
#: The default is set from measurement, not guesswork: on the reference
#: container the compiled ``batch_terms`` breaks even with numpy at ~2k
#: intervals and holds a robust >= 1.25x win from ~4k upward (the crossover
#: curve is re-measured and recorded in ``BENCH_kernels.json`` by
#: ``benchmarks/bench_kernel_speedup.py --calibrate``).  Override per host
#: with ``REPRO_ELEMENTWISE_COMPILED_MIN`` or
#: :func:`set_elementwise_compiled_min`.
_ELEMENTWISE_COMPILED_MIN_DEFAULT = 4096


def _initial_elementwise_min() -> int:
    raw = os.environ.get("REPRO_ELEMENTWISE_COMPILED_MIN", "").strip()
    if not raw:
        return _ELEMENTWISE_COMPILED_MIN_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_ELEMENTWISE_COMPILED_MIN must be an integer, got {raw!r}"
        )
    if value < 1:
        raise ConfigurationError(
            f"REPRO_ELEMENTWISE_COMPILED_MIN must be >= 1, got {value}"
        )
    return value


ELEMENTWISE_COMPILED_MIN = _initial_elementwise_min()


def elementwise_compiled_min() -> int:
    """The currently active elementwise compiled-dispatch floor."""
    return ELEMENTWISE_COMPILED_MIN


def set_elementwise_compiled_min(value: int) -> int:
    """Set the dispatch floor (e.g. from a calibration run); returns the old.

    The floor only affects *which* bit-identical kernel serves a call, never
    the results, so re-tuning it per host is always safe.
    """
    global ELEMENTWISE_COMPILED_MIN
    value = int(value)
    if value < 1:
        raise ConfigurationError(
            f"elementwise compiled floor must be >= 1, got {value}"
        )
    previous = ELEMENTWISE_COMPILED_MIN
    ELEMENTWISE_COMPILED_MIN = value
    return previous


def _validated(name: str) -> str:
    name = str(name).strip().lower()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def _initial_backend() -> str:
    raw = os.environ.get("REPRO_BACKEND", "").strip()
    return _validated(raw) if raw else "numpy"


_ACTIVE = _initial_backend()


def active_backend() -> str:
    """The process-wide backend serving ``backend=None`` calls."""
    return _ACTIVE


def set_active_backend(name: str) -> str:
    """Set the active backend; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _validated(name)
    return previous


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Scoped backend override (``None`` leaves the active backend alone)."""
    if name is None:
        yield _ACTIVE
        return
    previous = set_active_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_active_backend(previous)


def resolve_backend(backend: str | None) -> str:
    """A concrete backend name: the argument, or the active backend."""
    return _ACTIVE if backend is None else _validated(backend)


def compiled_engine() -> str | None:
    """Concrete engine behind ``compiled`` (``cc``/``None``)."""
    from . import compiled

    return compiled.engine_name()


def compiled_unavailable_reason() -> str | None:
    """Why ``compiled`` falls back to numpy in this process (else ``None``)."""
    from . import compiled

    return compiled.unavailable_reason()


def backend_info() -> dict:
    """Diagnostic snapshot: active backend plus the compiled-engine verdict."""
    return {
        "active": active_backend(),
        "backends": list(BACKENDS),
        "compiled_engine": compiled_engine(),
        "compiled_unavailable_reason": compiled_unavailable_reason(),
    }


def _compiled_functions() -> dict | None:
    from . import compiled

    return compiled.engine_functions()


# --------------------------------------------------------------------------- #
# kernel dispatch
# --------------------------------------------------------------------------- #
def min_period_tables(
    cycle: np.ndarray, n: int, p: int, *, backend: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck-partition DP tables under the selected backend."""
    resolved = resolve_backend(backend)
    if resolved == "scalar":
        return reference.min_period_tables_scalar(cycle, n, p)
    if resolved == "compiled":
        funcs = _compiled_functions()
        if funcs is not None:
            return funcs["min_period_tables"](cycle, int(n), int(p))
    return reference.min_period_tables_numpy(cycle, n, p)


def min_latency_tables(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
    *,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Period-constrained additive DP tables under the selected backend."""
    resolved = resolve_backend(backend)
    if resolved == "scalar":
        return reference.min_latency_tables_scalar(cycle, term, period_bound, n, p)
    if resolved == "compiled":
        funcs = _compiled_functions()
        if funcs is not None:
            return funcs["min_latency_tables"](
                cycle, term, float(period_bound), int(n), int(p)
            )
    return reference.min_latency_tables_numpy(cycle, term, period_bound, n, p)


def batch_terms(
    comm: np.ndarray,
    prefix: np.ndarray,
    speeds: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    procs: np.ndarray,
    offsets: np.ndarray,
    n_stages: int,
    homogeneous: bool,
    bandwidth: float,
    input_bandwidth: float,
    output_bandwidth: float,
    bmat: np.ndarray | None,
    *,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise evaluate_batch terms under the selected backend.

    The ``scalar`` backend never reaches this point
    (:func:`repro.core.costs.evaluate_batch` serves it with the per-mapping
    scalar evaluator), so anything non-compiled routes to numpy.
    """
    resolved = resolve_backend(backend)
    if resolved == "compiled" and np.size(starts) >= ELEMENTWISE_COMPILED_MIN:
        funcs = _compiled_functions()
        if funcs is not None:
            return funcs["batch_terms"](
                comm, prefix, speeds, starts, ends, procs, offsets,
                int(n_stages), bool(homogeneous), float(bandwidth),
                float(input_bandwidth), float(output_bandwidth), bmat,
            )
    return reference.batch_terms_numpy(
        comm, prefix, speeds, starts, ends, procs, offsets,
        n_stages, homogeneous, bandwidth, input_bandwidth, output_bandwidth,
        bmat,
    )


def interval_components(
    prefix: np.ndarray,
    comm: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    speeds: np.ndarray,
    n_stages: int,
    bandwidth: float,
    input_bandwidth: float,
    output_bandwidth: float,
    *,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise splitting-engine components under the selected backend."""
    resolved = resolve_backend(backend)
    if resolved == "compiled" and np.size(starts) >= ELEMENTWISE_COMPILED_MIN:
        funcs = _compiled_functions()
        if funcs is not None:
            return funcs["interval_components"](
                prefix, comm, starts, ends, speeds, int(n_stages),
                float(bandwidth), float(input_bandwidth), float(output_bandwidth),
            )
    return reference.interval_components_numpy(
        prefix, comm, starts, ends, speeds, n_stages,
        bandwidth, input_bandwidth, output_bandwidth,
    )
