"""Kernel dispatch: the compiled engine when it validated, numpy otherwise.

The selection rule is fixed and observable, not configured:

* the DP-table kernels (:func:`min_period_tables`,
  :func:`min_latency_tables`) run on the compiled C engine
  (:mod:`repro.core.kernels.compiled`) whenever it built and reproduced
  the numpy reference bit for bit at load time;
* :func:`batch_terms` does the same from :data:`ELEMENTWISE_COMPILED_MIN`
  intervals up;
* everything else — small elementwise batches, hosts without a C
  compiler, processes with ``REPRO_KERNELS_DISABLE`` set — runs on the
  numpy reference kernels (:mod:`repro.core.kernels.reference`).

Both implementations are bit-identical, so the choice changes speed only,
never a result.  Forked pool workers inherit the parent's verdict; a
worker that starts before the parent decided re-runs the same
deterministic selection.
"""

from __future__ import annotations

import numpy as np

from . import compiled, reference

__all__ = [
    "ELEMENTWISE_COMPILED_MIN",
    "active_backend",
    "compiled_engine",
    "compiled_unavailable_reason",
    "min_period_tables",
    "min_latency_tables",
    "batch_terms",
]

#: smallest elementwise batch (intervals) worth routing to the compiled
#: engine: below this the per-call marshalling overhead exceeds the loop
#: itself and the bit-identical numpy kernel is faster.  The DP table
#: kernels have no such floor — they win at every size the solvers use.
#: Measured, not guessed: the compiled ``batch_terms`` breaks even with
#: numpy at ~2k intervals and holds a >= 1.25x win from ~4k upward (the
#: crossover curve is re-measured into ``BENCH_kernels.json`` by
#: ``benchmarks/bench_kernel_speedup.py``).
ELEMENTWISE_COMPILED_MIN = 4096


def active_backend() -> str:
    """``compiled`` when the C engine serves the kernels, else ``numpy``.

    Stamped on every :class:`~repro.solvers.base.SolveResult` as
    provenance; both implementations produce identical results.
    """
    return "numpy" if compiled.engine_functions() is None else "compiled"


def compiled_engine() -> str | None:
    """The concrete compiled engine in use (``cc``), or ``None``."""
    return compiled.engine_name()


def compiled_unavailable_reason() -> str | None:
    """Why the kernels run on numpy in this process (``None`` when compiled)."""
    return compiled.unavailable_reason()


def min_period_tables(
    cycle: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck-partition DP tables."""
    funcs = compiled.engine_functions()
    if funcs is not None:
        return funcs["min_period_tables"](cycle, int(n), int(p))
    return reference.min_period_tables_numpy(cycle, n, p)


def min_latency_tables(
    cycle: np.ndarray,
    term: np.ndarray,
    period_bound: float,
    n: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Period-constrained additive DP tables."""
    funcs = compiled.engine_functions()
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise :func:`~repro.core.costs.evaluate_batch` terms."""
    if np.size(starts) >= ELEMENTWISE_COMPILED_MIN:
        funcs = compiled.engine_functions()
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
