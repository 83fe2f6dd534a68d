"""Helpers shared by the workload modules: statistics, probes, provenance.

Everything here runs inside the workload process, after ``repro`` is
importable.  The probes time single public calls of one layer on the
workload's own instances; they feed the per-layer metrics of traced runs.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable, Sequence

import numpy as np
from repro import __version__
from repro.core import kernels
from repro.core.identity import instance_digest
from repro.core.serialization import instance_from_dict, instance_to_dict
from repro.heuristics.base import Objective
from repro.solvers.registry import get_solver
from repro.utils.parallel import parallel_map

from bench_reference import REFERENCE_PASS_S, reference_s


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """A generator that depends only on the workload seed and ``path``."""
    return np.random.default_rng([seed, *path])


# --------------------------------------------------------------------------- #
# host-speed calibration (see README, "Calibration")
# --------------------------------------------------------------------------- #
class Calibrated:
    """Per-op times scaled by the host's speed at the moment each op ran.

    :meth:`timed` runs one op between two :func:`reference_s` samples and
    keeps ``op seconds / mean reference seconds * REFERENCE_PASS_S``.  On a
    shared host whose speed drifts by tens of percent between runs, this
    ratio follows the program's own cost, not the host's speed.
    """

    def __init__(self, cpus: Sequence[int] | None = None, passes: int = 1) -> None:
        self.cpus = cpus
        self.passes = passes
        #: per op key: calibrated seconds, in run order
        self.scaled: dict[Any, list[float]] = {}
        #: (op key, raw seconds, reference seconds before, after) per op
        self.raw: list[tuple[Any, float, float, float]] = []

    def timed(self, key: Any, op: Callable[[], float]) -> float:
        """Run ``op()`` (which returns its own elapsed seconds) calibrated."""
        before = reference_s(self.cpus, self.passes)
        elapsed = op()
        after = reference_s(self.cpus, self.passes)
        self.raw.append((key, elapsed, before, after))
        self.scaled.setdefault(key, []).append(
            elapsed / ((before + after) / 2) * REFERENCE_PASS_S
        )
        return elapsed

    def medians(self, keys: Sequence[Any]) -> list[float]:
        """Median calibrated seconds of each op key, in ``keys`` order."""
        return [statistics.median(self.scaled[key]) for key in keys]

    def raw_medians(self, keys: Sequence[Any]) -> list[float]:
        """Median uncalibrated seconds of each op key (for the record)."""
        by_key: dict[Any, list[float]] = {}
        for key, elapsed, _, _ in self.raw:
            by_key.setdefault(key, []).append(elapsed)
        return [statistics.median(by_key[key]) for key in keys]

    def reference_median_s(self) -> float:
        """Median of every reference sample taken (for the record)."""
        return statistics.median(x for _, _, before, after in self.raw for x in (before, after))


def overhead_pct(calib: Calibrated, n_ops: int) -> float:
    """Tracing overhead in %: calibrated time of ops ``("traced", i)`` over
    that of ops ``("untraced", i)``, for ``i`` below ``n_ops``, minus 1."""
    untraced = sum(calib.medians([("untraced", i) for i in range(n_ops)]))
    traced = sum(calib.medians([("traced", i) for i in range(n_ops)]))
    return (traced / untraced - 1) * 100.0


# --------------------------------------------------------------------------- #
# generic layer probes (traced runs only)
# --------------------------------------------------------------------------- #
def probe_core(pairs: Sequence[tuple[Any, Any]], tracer) -> dict[str, float]:
    """``core.identity.digest_us`` on fresh objects, ``core.platform_class_us``.

    Every instance is rebuilt from its wire document first, as the daemon
    does for each request, so no digest is memoised on the timed objects.
    """
    fresh = [instance_from_dict(instance_to_dict(app, plat))[:2] for app, plat in pairs]
    digest_s = []
    for app, plat in fresh:
        with tracer.span("core.instance_digest"):
            start = time.perf_counter()
            instance_digest(app, plat)
            digest_s.append(time.perf_counter() - start)
    class_s = []
    for _, plat in fresh:
        with tracer.span("core.platform_class"):
            start = time.perf_counter()
            for _ in range(20):
                plat.platform_class
            class_s.append((time.perf_counter() - start) / 20)
    return {
        "core.identity.digest_us": statistics.median(digest_s) * 1e6,
        "core.platform_class_us": statistics.median(class_s) * 1e6,
    }


def probe_heuristics(
    pairs: Sequence[tuple[Any, Any]],
    period_bound: float,
    latency_bound: float,
    tracer,
) -> dict[str, float]:
    """``heuristics.H<k>_ms``: mean ``Solver.solve`` time of H1..H6.

    Each heuristic is asked at whichever of the two bounds its objective
    takes.
    """
    out = {}
    for k in range(1, 7):
        handle = get_solver(f"H{k}")
        if handle.objective == Objective.MIN_LATENCY_FOR_PERIOD:
            request = handle.default_request(period_bound=period_bound)
        else:
            request = handle.default_request(latency_bound=latency_bound)
        elapsed = []
        for app, plat in pairs:
            with tracer.span(f"heuristics.H{k}"):
                start = time.perf_counter()
                handle.solve(app, plat, request)
                elapsed.append(time.perf_counter() - start)
        out[f"heuristics.H{k}_ms"] = statistics.fmean(elapsed) * 1e3
    return out


def probe_pool_startup(tracer, workers: int = 2) -> float:
    """``utils.parallel.startup_s``: a one-chunk-per-worker ``parallel_map``.

    The mapped work is trivial, so the time is pool start, dispatch and
    teardown.
    """
    samples = []
    for _ in range(5):
        with tracer.span("utils.parallel_map"):
            start = time.perf_counter()
            parallel_map(abs, list(range(workers)), workers=workers, batch_size=1)
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bounded_kwargs(handle, bound: float) -> dict[str, float]:
    """The keyword (``period_bound`` or ``latency_bound``) a solver takes."""
    if handle.objective == Objective.MIN_LATENCY_FOR_PERIOD:
        return {"period_bound": bound}
    return {"latency_bound": bound}


def program_provenance() -> dict[str, Any]:
    """Versions and kernel verdict of the program as this process loaded it."""
    return {
        "repro_version": __version__,
        "numpy": np.__version__,
        "kernel_backend": kernels.active_backend(),
        "compiled_engine": kernels.compiled_engine(),
        "compiled_unavailable_reason": kernels.compiled_unavailable_reason(),
    }
