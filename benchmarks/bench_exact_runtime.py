"""Runtime of the exact solvers: scalar versus vectorized homogeneous DP tables.

The homogeneous DPs of :mod:`repro.exact.homogeneous_dp` build their tables
with the NumPy broadcast/reduce kernels of :mod:`repro.core.kernels.reference`
(or the compiled engine, gated separately by ``bench_kernel_speedup.py``).
The original scalar Python loops stay beside them as the reference
implementation.  This benchmark times both table builders directly on the
acceptance case (n=64 stages, p=16 processors), asserts that they return
identical optima, and records the speedup in
``benchmarks/results/exact_runtime.txt``.

A registry-dispatch timing rides along: the same DP fetched through the
unified solver registry (``get_solver("hom-dp-period")``) must not add
measurable overhead over the direct call.
"""

from __future__ import annotations

import time

import numpy as np

from bench_utils import write_report
from repro.core.application import PipelineApplication
from repro.core.kernels import reference
from repro.core.platform import Platform
from repro.exact.homogeneous_dp import (
    _cycle_matrix,
    _latency_term_matrix,
    homogeneous_min_period,
)
from repro.solvers import get_solver

#: acceptance case of the vectorization work: n=64 stages, p=16 processors
N_STAGES = 64
N_PROCESSORS = 16
_ROUNDS = 3

_LINES: list[str] = []


def _instance() -> tuple[PipelineApplication, Platform]:
    rng = np.random.default_rng(20070628)
    works = rng.uniform(1.0, 20.0, N_STAGES)
    comms = rng.uniform(1.0, 10.0, N_STAGES + 1)
    app = PipelineApplication(works, comms, name=f"bench-exact-n{N_STAGES}")
    platform = Platform.communication_homogeneous(
        [4.0] * N_PROCESSORS, bandwidth=10.0, name=f"bench-exact-p{N_PROCESSORS}"
    )
    return app, platform


def _best_of(fn, rounds: int = _ROUNDS) -> tuple[float, object]:
    """Best-of-N wall time (robust to scheduler noise) and the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_homogeneous_min_period_vectorized_speedup():
    """Vectorized min-period tables: same tables, >= 5x faster at n=64, p=16."""
    app, platform = _instance()
    cycle = _cycle_matrix(app, platform)
    n, p = N_STAGES, N_PROCESSORS
    t_scalar, scalar = _best_of(
        lambda: reference.min_period_tables_scalar(cycle, n, p)
    )
    t_vector, vector = _best_of(
        lambda: reference.min_period_tables_numpy(cycle, n, p)
    )

    assert np.array_equal(scalar[0], vector[0]), "scalar and vectorized dp tables differ"
    assert np.array_equal(scalar[1], vector[1]), "scalar and vectorized parent tables differ"

    speedup = t_scalar / t_vector if t_vector > 0 else float("inf")
    _LINES.append(
        f"min_period_tables(n={N_STAGES}, p={N_PROCESSORS}): "
        f"scalar {t_scalar * 1e3:.2f} ms vs vectorized {t_vector * 1e3:.2f} ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"vectorized DP only {speedup:.2f}x faster"


def test_homogeneous_min_latency_for_period_vectorized_speedup():
    """Vectorized period-constrained tables: same optimum, >= 5x faster."""
    app, platform = _instance()
    _, optimum = homogeneous_min_period(app, platform)
    bound = optimum * 1.25
    cycle = _cycle_matrix(app, platform)
    term = _latency_term_matrix(app, platform)
    n, p = N_STAGES, N_PROCESSORS

    t_scalar, scalar = _best_of(
        lambda: reference.min_latency_tables_scalar(cycle, term, bound, n, p)
    )
    t_vector, vector = _best_of(
        lambda: reference.min_latency_tables_numpy(cycle, term, bound, n, p)
    )

    scalar_best = float(scalar[0][1:, n].min())
    vector_best = float(vector[0][1:, n].min())
    assert abs(scalar_best - vector_best) <= 1e-9 * max(1.0, scalar_best)

    speedup = t_scalar / t_vector if t_vector > 0 else float("inf")
    _LINES.append(
        f"min_latency_tables(n={N_STAGES}, p={N_PROCESSORS}, "
        f"P={bound:.3g}): scalar {t_scalar * 1e3:.2f} ms vs vectorized "
        f"{t_vector * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"vectorized DP only {speedup:.2f}x faster"


def test_registry_dispatch_overhead():
    """The registry must return the direct result; its overhead is recorded.

    No timing assertion here: the ratio compares two sub-millisecond runs, so
    a single scheduler stall on a shared CI runner could flip it with no code
    defect.  The dispatch cost (a dict lookup plus one dataclass copy) is
    recorded in the report for human review instead.
    """
    app, platform = _instance()
    solver = get_solver("hom-dp-period")

    t_direct, direct = _best_of(lambda: homogeneous_min_period(app, platform))
    t_registry, result = _best_of(lambda: solver.run(app, platform))

    assert result.solver == "hom-dp-period"
    assert result.family == "exact"
    assert result.wall_time > 0.0
    assert abs(result.period - direct[1]) <= 1e-9 * max(1.0, direct[1])

    overhead = t_registry / t_direct if t_direct > 0 else float("inf")
    _LINES.append(
        f"registry dispatch (hom-dp-period): direct {t_direct * 1e3:.2f} ms vs "
        f"via get_solver {t_registry * 1e3:.2f} ms -> {overhead:.2f}x"
    )


def teardown_module(module) -> None:  # noqa: D103 - pytest hook
    if _LINES:
        write_report("exact_runtime", "\n".join(_LINES))
