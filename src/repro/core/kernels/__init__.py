"""Hot-path kernels, each served by the best implementation this host has.

``repro.core.kernels`` owns the inner loops of the homogeneous DP solvers
and the batch cost evaluator.  Each kernel runs on the compiled C engine
(:mod:`repro.core.kernels.compiled`) whenever that engine built and passed
its load-time bit-for-bit validation against the numpy reference, and on
the numpy reference kernels otherwise.  The choice is made from what the
process can observe — never from a user-set option.

The package-level API is re-exported from :mod:`.dispatch`; see that
module for the selection rule.
"""

from .dispatch import (
    ELEMENTWISE_COMPILED_MIN,
    active_backend,
    batch_terms,
    compiled_engine,
    compiled_unavailable_reason,
    min_latency_tables,
    min_period_tables,
)

__all__ = [
    "ELEMENTWISE_COMPILED_MIN",
    "active_backend",
    "compiled_engine",
    "compiled_unavailable_reason",
    "min_period_tables",
    "min_latency_tables",
    "batch_terms",
]
