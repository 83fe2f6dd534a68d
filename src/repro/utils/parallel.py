"""Process-based parallel mapping shared by the experiment drivers.

The figure sweeps, the failure-threshold table and the ablations all reduce to
"map a pure function over a list of independent work items" (instances,
(heuristic, threshold) pairs, ...).  :func:`parallel_map` implements exactly
that with a :class:`concurrent.futures.ProcessPoolExecutor` process pool:

* **determinism** — results are returned in input order and each item is
  computed by the same pure function regardless of the worker that picks it
  up, so a run with ``workers=N`` is byte-identical to a serial run;
* **chunking** — items are shipped to workers in contiguous chunks of
  ``batch_size`` to amortise the pickling overhead (the instance streams are
  small, the per-item work is the expensive part);
* **ship-once transport** — the mapped function travels to each worker
  exactly once through the pool initializer (not once per chunk), the
  parent's active kernel backend (:mod:`repro.core.kernels`) is mirrored
  into every worker, and an optional ``payload`` (e.g. the
  :class:`repro.utils.shm.InstanceShipment` of an instance arena) is
  installed per worker the same way — inherited through ``fork``, so its
  bytes are never pickled;
* **graceful degradation** — ``workers=None``/``0``/``1`` or a single-item
  input fall back to a plain serial loop, so callers never need a special
  case;
* **worker death is an error** — a worker killed mid-map (OOM killer, a
  crash in a compiled kernel) raises
  :class:`~concurrent.futures.process.BrokenProcessPool` instead of hanging.

:class:`WorkerPool` is the persistent variant for the solver daemon; its
chunks carry their own function, so functions mapped through it must be
picklable: module-level functions, or :func:`functools.partial`
applications of module-level functions.  Its payload is pickled with every
chunk too, and installed only when it differs from the worker's current
one.  Every object of the core data model (applications, platforms,
mappings, heuristic results) pickles cleanly.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import repeat
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

__all__ = [
    "DEFAULT_WORKERS",
    "available_cpus",
    "resolve_worker_count",
    "chunk_items",
    "default_batch_size",
    "parallel_map",
    "WorkerPool",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: the single source of the ``--workers`` default: serial execution.  Every
#: CLI command forwarding to the pool reads this constant for its argparse
#: default and help text, so the documented default can never drift between
#: commands (``-1`` still means "all CPUs" at parse time).
DEFAULT_WORKERS = 1

#: largest chunk shipped to a worker in one message
_MAX_BATCH = 256

#: the cheapest safe start method: fork (workers inherit the parent's state
#: instead of unpickling it) where it exists
try:
    _CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _CONTEXT = multiprocessing.get_context()


def available_cpus() -> int:
    """Number of CPUs usable by the experiment engine (at least 1).

    Respects the process CPU affinity mask where the platform exposes one
    (``taskset``/cgroup-restricted jobs see their actual allowance, not the
    machine's core count); falls back to :func:`multiprocessing.cpu_count`.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - affinity query refused
            pass
    try:
        return max(1, multiprocessing.cpu_count())
    except NotImplementedError:  # pragma: no cover - exotic platforms
        return 1


def resolve_worker_count(workers: int | None) -> int:
    """Normalise a ``workers`` knob into a concrete process count.

    ``None``, ``0`` and ``1`` mean serial execution; ``-1`` means "all
    available CPUs"; any other positive value is used as-is (callers may ask
    for more workers than CPUs, e.g. to test determinism on small machines).
    """
    if workers is None or workers == 0:
        return 1
    if workers == -1:
        return available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= -1, got {workers}")
    return int(workers)


def default_batch_size(n_items: int, workers: int) -> int:
    """Chunk size splitting ``n_items`` into ~4 waves per worker.

    Small enough to keep every worker busy until the end of the stream, large
    enough to amortise the per-chunk pickling cost; clamped to
    ``[1, _MAX_BATCH]``.
    """
    if n_items <= 0:
        return 1
    waves = 4 * max(1, workers)
    return max(1, min(_MAX_BATCH, (n_items + waves - 1) // waves))


def chunk_items(items: Sequence[_T], batch_size: int) -> list[Sequence[_T]]:
    """Split ``items`` into contiguous chunks of at most ``batch_size``."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]


class WorkerPayload(Protocol):
    """Anything installable once per worker via :func:`_install`."""

    def install(self) -> None:  # pragma: no cover - protocol
        ...


#: per-worker state, set only by :func:`_install`: the mapped function and
#: the installed payload (payloads are content-shaped — a shipment's catalog
#: maps content digests to canonical payloads — so comparing them by
#: equality is sound)
_WORKER_FN: Callable | None = None
_WORKER_PAYLOAD: object | None = None


def _install(
    fn: Callable[[_T], _R], backend: str | None, payload: WorkerPayload | None
) -> None:
    """Install a worker's state: mapped function, kernel backend, payload.

    :func:`parallel_map` runs this once per worker as the pool initializer,
    so the function is inherited through ``fork`` and never pickled;
    :class:`WorkerPool` runs it before every chunk, whose task carries its
    own state.  The parent's backend is mirrored so pooled runs compute with
    the same kernels as serial ones, and the payload is re-installed only
    when it differs from the one already installed.
    """
    global _WORKER_FN, _WORKER_PAYLOAD
    _WORKER_FN = fn
    if backend is not None:
        from ..core import kernels

        if kernels.active_backend() != backend:
            kernels.set_active_backend(backend)
    if payload is not None and payload != _WORKER_PAYLOAD:
        payload.install()
        _WORKER_PAYLOAD = payload


def _apply_chunk(chunk: Sequence[_T], state: tuple | None = None) -> list[_R]:
    """Worker entry point: apply the installed function to one chunk.

    ``state`` is the ``(fn, backend, payload)`` a :class:`WorkerPool` chunk
    carries; a :func:`parallel_map` worker got it from its initializer.
    """
    if state is not None:
        _install(*state)
    return [_WORKER_FN(item) for item in chunk]


def _plan(
    items: list[_T], workers: int, batch_size: int | None
) -> list[Sequence[_T]] | None:
    """The chunks to ship, or ``None`` when the map runs serially.

    Serial when there is one worker or at most one item; otherwise chunks
    of ``batch_size`` (default: :func:`default_batch_size`).  A map of one
    chunk still goes to a worker, so the daemon's pool keeps a task that
    crashes its worker out of the daemon's own process.
    """
    if workers <= 1 or len(items) <= 1:
        return None
    size = default_batch_size(len(items), workers) if batch_size is None else batch_size
    return chunk_items(items, int(size))


def _serial(
    fn: Callable[[_T], _R], items: list[_T], payload: WorkerPayload | None
) -> list[_R]:
    if payload is not None:
        payload.install()
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    payload: WorkerPayload | None = None,
) -> list[_R]:
    """Map a pure function over items, optionally across processes.

    Returns ``[fn(item) for item in items]`` in input order.  With
    ``workers > 1`` the items are dispatched to a process pool in contiguous
    chunks; because each item is computed independently and the chunk results
    are re-assembled in order, the output is byte-identical to the serial
    path no matter how many workers run or how the stream is chunked.

    ``payload`` is installed once per worker through the pool initializer
    (and once in-process on the serial path), letting callers publish bulky
    shared state — e.g. a :class:`repro.utils.shm.InstanceShipment` — out of
    band of the task stream.  A worker that dies mid-map raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    item_list = list(items)
    n_workers = resolve_worker_count(workers)
    chunks = _plan(item_list, n_workers, batch_size)
    if chunks is None:
        return _serial(fn, item_list, payload)
    from ..core import kernels

    with ProcessPoolExecutor(
        min(n_workers, len(chunks)),
        mp_context=_CONTEXT,
        initializer=_install,
        initargs=(fn, kernels.active_backend(), payload),
    ) as executor:
        return [y for ys in executor.map(_apply_chunk, chunks) for y in ys]


# --------------------------------------------------------------------------- #
# persistent pool: amortise worker start-up across many map calls
# --------------------------------------------------------------------------- #
class WorkerPool:
    """A long-lived process pool with :func:`parallel_map` semantics per call.

    :func:`parallel_map` forks a fresh pool for every call — the right trade
    for one-shot CLI runs, but a needless per-request tax for a long-lived
    server.  ``WorkerPool`` keeps the processes alive across calls (the
    solver daemon creates one at start-up and reuses it for every batch) and
    exposes the same contract: results in input order, byte-identical to a
    serial loop at any worker count, chunked to amortise pickling.  Every
    worker is forked in the constructor.  Each chunk carries its own
    ``(fn, backend, payload)``, since one pool serves many functions.

    A map whose worker died raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.  The next
    :meth:`map` finds the pool broken — by that death, or by a worker
    that died while the pool sat idle — shuts it down and forks fresh
    workers.

    With ``workers <= 1`` no processes are created and :meth:`map` is a
    serial loop, so callers need no special case.  Use as a context manager
    or call :meth:`close` to reap the workers.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_worker_count(workers)
        self.closed = False
        self._executor: ProcessPoolExecutor | None = None
        if self.workers > 1:
            self._start()

    def _start(self) -> None:
        """Fork every worker now (one no-op each), not on first use."""
        self._executor = ProcessPoolExecutor(self.workers, mp_context=_CONTEXT)
        for future in [self._executor.submit(int) for _ in range(self.workers)]:
            future.result()

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Iterable[_T],
        *,
        batch_size: int | None = None,
        payload: WorkerPayload | None = None,
    ) -> list[_R]:
        """``[fn(item) for item in items]`` through the persistent workers."""
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        item_list = list(items)
        chunks = _plan(item_list, self.workers, batch_size)
        if chunks is None:
            return _serial(fn, item_list, payload)
        from ..core import kernels

        state = (fn, kernels.active_backend(), payload)
        try:
            results = self._executor.map(_apply_chunk, chunks, repeat(state))
        except BrokenProcessPool:  # a worker died since the last map
            self._executor.shutdown(wait=True)
            self._start()
            results = self._executor.map(_apply_chunk, chunks, repeat(state))
        return [y for ys in results for y in ys]

    def close(self) -> None:
        """Reap the worker processes (idempotent)."""
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "live"
        return f"WorkerPool(workers={self.workers}, {state})"
