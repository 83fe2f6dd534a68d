"""Hot-path kernels behind a single ``backend`` knob.

``repro.core.kernels`` owns the inner loops of the homogeneous DP solvers
and the batch cost evaluator, each available in three interchangeable
backends — ``numpy`` (the reference oracle), ``scalar`` (the original
Python loops), and ``compiled`` (a ctypes-loaded C library,
validated bit-for-bit against the reference at load time and falling back
to numpy when no engine is available).

The package-level API is re-exported from :mod:`.dispatch`; see that
module for the backend-state model.
"""

from .dispatch import (
    BACKENDS,
    ELEMENTWISE_COMPILED_MIN,
    active_backend,
    backend_info,
    batch_terms,
    compiled_engine,
    compiled_unavailable_reason,
    elementwise_compiled_min,
    interval_components,
    min_latency_tables,
    min_period_tables,
    resolve_backend,
    set_active_backend,
    set_elementwise_compiled_min,
    use_backend,
)

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
