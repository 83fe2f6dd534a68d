"""Compiled-engine selection: the ``cc`` C library, else none.

This module decides once per process whether the C engine serves the
kernels (:mod:`repro.core.kernels.dispatch` asks it on every call).

* The one engine is ``cc`` (the embedded C library built with the system
  compiler).  Any non-empty ``REPRO_KERNELS_DISABLE`` switches it off, as
  if the host had no compiler; CI's disabled leg sets
  ``REPRO_KERNELS_DISABLE=all`` to prove the numpy fallback end to end.
* The engine is **validated before adoption**: its three kernels run on a
  small fixed instance and must reproduce the numpy reference
  (:mod:`repro.core.kernels.reference`) bit for bit.  A mismatching or
  crashing engine is rejected with a recorded reason, exactly like a
  missing one.
* When the engine is rejected the numpy kernels serve every call and
  :func:`unavailable_reason` explains why — graceful fallback, never an
  error.

The decision is cached per process; forked pool workers inherit it, and a
fresh worker re-runs the same deterministic selection.
"""

from __future__ import annotations

import os

import numpy as np

from . import reference

__all__ = ["engine_name", "engine_functions", "unavailable_reason", "reset"]

#: selection cache: None = not yet decided
_STATE: dict | None = None


def _disabled() -> bool:
    """Whether ``REPRO_KERNELS_DISABLE`` is set (to any non-empty value)."""
    return bool(os.environ.get("REPRO_KERNELS_DISABLE", "").strip())


def _validate(funcs: dict) -> None:
    """Reject an engine whose kernels do not reproduce the reference bits."""
    rng = np.random.default_rng(20070628)
    n, p = 9, 4
    lower = np.tril_indices(n, k=-1)

    cycle = rng.uniform(0.5, 3.0, (n, n))
    cycle[lower] = np.inf
    term = rng.uniform(0.1, 2.0, (n, n))
    term[lower] = np.inf

    for name, args in (
        ("min_period_tables", (cycle, n, p)),
        ("min_latency_tables", (cycle, term, 2.25, n, p)),
    ):
        got_dp, got_par = funcs[name](*args)
        ref_fn = getattr(reference, f"{name}_numpy")
        want_dp, want_par = ref_fn(*args)
        if not (
            np.array_equal(got_dp, want_dp) and np.array_equal(got_par, want_par)
        ):
            raise RuntimeError(f"{name} disagrees with the numpy reference")

    comm = rng.uniform(0.0, 2.0, n + 1)
    comm[1] = 0.0  # exercise the zero-communication guard
    prefix = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 2.0, n))))
    speeds = rng.uniform(1.0, 4.0, p)
    starts = np.array([0, 3, 6, 0, 4], dtype=np.int64)
    ends = np.array([2, 5, 8, 3, 8], dtype=np.int64)
    procs = np.array([0, 1, 2, 3, 0], dtype=np.int64)
    offsets = np.array([0, 3, 5], dtype=np.int64)
    bmat = rng.uniform(1.0, 5.0, (p, p))
    bmat = (bmat + bmat.T) / 2.0
    np.fill_diagonal(bmat, np.inf)

    for homogeneous, b, mat in ((True, 7.5, None), (False, 0.0, bmat)):
        got = funcs["batch_terms"](
            comm, prefix, speeds, starts, ends, procs, offsets,
            n, homogeneous, b, 4.0, 6.0, mat,
        )
        want = reference.batch_terms_numpy(
            comm, prefix, speeds, starts, ends, procs, offsets,
            n, homogeneous, b, 4.0, 6.0, mat,
        )
        if not all(np.array_equal(g, w) for g, w in zip(got, want)):
            raise RuntimeError("batch_terms disagrees with the numpy reference")


def _select() -> dict:
    """Load and validate the C engine; record why it was rejected."""
    if _disabled():
        reason = "cc: disabled via REPRO_KERNELS_DISABLE"
        return {"name": None, "functions": None, "reason": reason}
    from . import _cc

    try:
        funcs = _cc.load()
        _validate(funcs)
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        reason = f"cc: {type(exc).__name__}: {exc}"
        return {"name": None, "functions": None, "reason": reason}
    return {"name": "cc", "functions": funcs, "reason": None}


def _state() -> dict:
    global _STATE
    if _STATE is None:
        _STATE = _select()
    return _STATE


def engine_name() -> str | None:
    """The engine serving the kernels (``None`` = numpy fallback)."""
    return _state()["name"]


def engine_functions() -> dict | None:
    """The selected engine's kernel callables, or ``None`` without an engine."""
    return _state()["functions"]


def unavailable_reason() -> str | None:
    """Why no compiled engine is active (``None`` when one is)."""
    return _state()["reason"]


def reset() -> None:
    """Forget the cached selection (tests flip ``REPRO_KERNELS_DISABLE``).

    Warm pool workers hold the old verdict and environment, so the shared
    pools are retired too: the next pooled map forks workers that inherit
    the current ones.
    """
    from ...utils.parallel import retire_shared_pools

    global _STATE
    _STATE = None
    retire_shared_pools()
