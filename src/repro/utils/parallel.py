"""Process-based parallel mapping shared by the experiment drivers.

The figure sweeps, the failure-threshold table and the ablations all reduce to
"map a pure function over a list of independent work items" (instances,
(heuristic, threshold) pairs, ...).  :func:`parallel_map` implements exactly
that on a :class:`WorkerPool` of
:class:`concurrent.futures.ProcessPoolExecutor` workers:

* **determinism** — results are returned in input order and each item is
  computed by the same pure function regardless of the worker that picks it
  up, so a run with ``workers=N`` is byte-identical to a serial run;
* **chunking** — items are shipped to workers in contiguous chunks of
  ``batch_size`` to amortise the pickling overhead (the instance streams are
  small, the per-item work is the expensive part);
* **warm workers** — one process-wide :class:`WorkerPool` per worker count
  is forked on the first pooled map and reused by every later one, so a
  process that maps again and again (the fuzzer: two maps per batch, batch
  after batch) forks once;
* **ship-once state** — the mapped function and an optional ``payload``
  (e.g. the :class:`repro.utils.shm.InstanceShipment` of an instance arena)
  are pickled once per map in the parent; every chunk carries those bytes,
  and a worker unpickles and installs them only when they differ from what
  it already holds.  The mapped function must therefore be picklable on the
  pooled path — a module-level function or a :func:`functools.partial` of
  one — and an unpicklable one fails in the parent, before any chunk is
  sent.  Every object of the core data model (applications, platforms,
  mappings, heuristic results) pickles cleanly;
* **no stale state** — a forked child never reuses its parent's pools, and
  :func:`retire_shared_pools` makes the next map fork fresh workers; it is
  called when a solver is registered (solvers pickle by name) and when the
  kernel verdict is reset;
* **graceful degradation** — ``workers=None``/``0``/``1`` or a single-item
  input fall back to a plain serial loop, so callers never need a special
  case (the serial path maps closures too);
* **worker death is an error** — a worker killed mid-map (OOM killer, a
  crash in a compiled kernel) raises
  :class:`~concurrent.futures.process.BrokenProcessPool` instead of
  hanging, and the next map forks fresh workers; a worker whose parent
  died exits on its own.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
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
    "retire_shared_pools",
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

#: seconds between a worker's checks that its parent is still alive
_ORPHAN_POLL_S = 0.2

#: the cheapest safe start method: fork (workers start from the parent's
#: imported modules instead of re-importing them) where it exists
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
    """Anything a worker installs before it applies the mapped function."""

    def install(self) -> None:  # pragma: no cover - protocol
        ...


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
#: per-worker state, set only by :func:`_apply_chunk`: the pickled function
#: and payload last received, and the function they unpickled to
_WORKER_FN_BYTES: bytes | None = None
_WORKER_PAYLOAD_BYTES: bytes | None = None
_WORKER_FN: Callable | None = None


def _apply_chunk(
    chunk: Sequence[_T], fn_bytes: bytes, payload_bytes: bytes | None
) -> list[_R]:
    """Worker entry point: apply the map's function to one chunk.

    The function and the payload are unpickled (and the payload installed)
    only when their bytes differ from the ones this worker already holds, so
    an equal shipment is installed — and its instances rehydrated — once
    per worker however many chunks and maps carry it.
    """
    global _WORKER_FN, _WORKER_FN_BYTES, _WORKER_PAYLOAD_BYTES
    if payload_bytes is not None and payload_bytes != _WORKER_PAYLOAD_BYTES:
        pickle.loads(payload_bytes).install()
        _WORKER_PAYLOAD_BYTES = payload_bytes
    if fn_bytes != _WORKER_FN_BYTES:
        _WORKER_FN = pickle.loads(fn_bytes)
        _WORKER_FN_BYTES = fn_bytes
    return [_WORKER_FN(item) for item in chunk]


def _exit_with_parent(parent_pid: int) -> None:
    """Worker initializer: exit once the process that forked us is gone.

    A SIGKILLed parent never shuts its pool down, and an idle worker blocks
    on a queue whose write end it shares, so without this it would wait
    forever.  A daemon thread polls :func:`os.getppid` (re-parenting changes
    it) and ends the worker.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_ORPHAN_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="orphan-guard", daemon=True).start()


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
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


def _pickled(what: str, obj: object) -> bytes:
    """``pickle.dumps(obj)``, or a :class:`pickle.PicklingError` naming it."""
    try:
        return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - pickle raises several types
        name = getattr(obj, "__qualname__", None) or repr(obj)
        raise pickle.PicklingError(
            f"cannot ship the mapped {what} {name} to pool workers ({exc}); "
            "map a module-level function or a functools.partial of one"
        ) from exc


class WorkerPool:
    """A long-lived process pool with :func:`parallel_map` semantics per call.

    The processes stay alive across calls: :func:`parallel_map` keeps one
    pool per worker count for the whole process, and the solver daemon
    holds its own.  The contract is the same on every call: results in input
    order, byte-identical to a serial loop at any worker count, chunked to
    amortise pickling.  Every worker is forked in the constructor.  One pool
    serves many functions, so each chunk carries the map's pickled
    ``(fn, payload)``, pickled once per map.  Maps from several threads may
    share a pool.

    A map whose worker died raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.  The next
    :meth:`map` finds the pool broken — by that death, or by a worker
    that died while the pool sat idle — shuts it down and forks fresh
    workers.  A worker whose parent process died exits within a fraction
    of a second.

    With ``workers <= 1`` no processes are created and :meth:`map` is a
    serial loop, so callers need no special case.  Use as a context manager
    or call :meth:`close` to reap the workers.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_worker_count(workers)
        self.closed = False
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()  # guards re-forking a broken executor
        if self.workers > 1:
            self._start()

    def _start(self) -> None:
        """Fork every worker now (one no-op each), not on first use."""
        self._executor = ProcessPoolExecutor(
            self.workers,
            mp_context=_CONTEXT,
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        )
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
        state = (
            _pickled("function", fn),
            None if payload is None else _pickled("payload", payload),
        )
        executor = self._executor
        try:
            results = executor.map(_apply_chunk, chunks, *map(repeat, state))
        except BrokenProcessPool:  # a worker died since the last map
            with self._lock:
                if self._executor is executor:  # not yet re-forked by another map
                    executor.shutdown(wait=True)
                    self._start()
                executor = self._executor
            results = executor.map(_apply_chunk, chunks, *map(repeat, state))
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


# --------------------------------------------------------------------------- #
# the process-wide pools behind parallel_map
# --------------------------------------------------------------------------- #
#: one shared pool per worker count, created on first pooled use; creating
#: and retiring them takes the lock
_SHARED: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()
#: pool tables a forked child inherited from its ancestors: kept referenced,
#: never used, so no executor of another process is collected here
_INHERITED: list[dict[int, WorkerPool]] = []


def _forget_shared_pools() -> None:
    """In a forked child: start with no pools and a fresh (unheld) lock."""
    global _SHARED, _SHARED_LOCK
    _INHERITED.append(_SHARED)
    _SHARED = {}
    _SHARED_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_shared_pools)


def _shared_pool(workers: int) -> WorkerPool:
    with _SHARED_LOCK:
        pool = _SHARED.get(workers)
        if pool is None:
            pool = _SHARED[workers] = WorkerPool(workers)
        return pool


def retire_shared_pools() -> None:
    """Make the next pooled :func:`parallel_map` fork fresh workers.

    For state the workers took from the parent when they forked and cannot
    learn later: a solver registered afterwards resolves by name in fresh
    workers only.  A retired pool finishes the maps already running on it;
    its workers are reaped once the last of them lets go of it.
    """
    with _SHARED_LOCK:
        _SHARED.clear()


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
    ``workers > 1`` the items are dispatched in contiguous chunks to this
    process's shared :class:`WorkerPool` of that many workers (forked on
    first use); because each item is computed independently and the chunk
    results are re-assembled in order, the output is byte-identical to the
    serial path no matter how many workers run or how the stream is chunked.

    ``payload`` is installed in each worker before the function runs (and
    once in-process on the serial path), letting callers publish bulky
    shared state — e.g. a :class:`repro.utils.shm.InstanceShipment` — out of
    band of the task stream.  A worker that dies mid-map raises
    :class:`~concurrent.futures.process.BrokenProcessPool`; the next map
    forks fresh workers.
    """
    item_list = list(items)
    n_workers = resolve_worker_count(workers)
    if n_workers <= 1 or len(item_list) <= 1:
        return _serial(fn, item_list, payload)
    return _shared_pool(n_workers).map(
        fn, item_list, batch_size=batch_size, payload=payload
    )
