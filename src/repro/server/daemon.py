"""The solver daemon: one warm process serving many short-lived clients.

One :class:`SolverDaemon` owns exactly one of each expensive resource —

* a thread-safe :class:`~repro.cache.store.SolveCache` (optionally
  disk-backed) that stays warm across requests and connections,
* a persistent :class:`~repro.utils.parallel.WorkerPool` whose processes
  outlive individual solves,
* a :class:`~repro.server.coalescer.SolveCoalescer` that single-flights
  identical in-air misses and micro-batches distinct ones,
* a :class:`~repro.server.protocol.InstanceTable` of decoded wire
  instances, so a repeated instance is neither decoded nor hashed again,

and serves newline-delimited JSON (see :mod:`.protocol`) over a unix
socket.  A task whose result is in the cache's memory tier is answered on
the event loop itself and never queues; only misses (and disk-backed hits,
whose file I/O stays off the loop) reach the coalescer.  Each flushed batch
is one :func:`repro.solvers.service.solve_frontier_many` call on an
executor thread, so the event loop keeps accepting, answering hits and
coalescing while solves run.

Shutdown is a graceful drain: on SIGTERM (or :meth:`SolverDaemon.
request_drain`) the listening socket closes, in-flight operations run to
completion and stream their results, idle connections are then closed, and
the process exits 0.

:class:`DaemonThread` hosts a daemon inside the current process (own
thread, own event loop) for tests and benchmarks that need a live server
without ``fork``/``exec``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from ..cache.keys import solve_key
from ..cache.store import SolveCache
from ..core import kernels
from ..core.exceptions import ReproError
from ..solvers.base import SolveResult
from ..solvers.registry import get_solver
from ..solvers.service import solve_frontier_many
from ..utils.parallel import WorkerPool
from .coalescer import PendingSolve, SolveCoalescer
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    InstanceTable,
    ProtocolError,
    SolveTaskSpec,
    decode_line,
    encode_line,
)

__all__ = ["DaemonConfig", "SolverDaemon", "DaemonThread", "run_daemon"]


@dataclass(frozen=True)
class DaemonConfig:
    """Everything a daemon needs to come up.

    ``max_batch`` caps each micro-batch (see
    :class:`~repro.server.coalescer.SolveCoalescer`); ``workers`` and
    ``batch_size`` are the familiar :func:`~repro.solvers.service.solve_many`
    knobs, applied through the persistent pool.
    """

    socket_path: str | Path
    workers: int | None = None
    batch_size: int | None = None
    cache_maxsize: int = 4096
    cache_dir: str | Path | None = None
    max_batch: int = 128

    def __post_init__(self) -> None:
        if not str(self.socket_path):
            raise ValueError("socket_path must be a non-empty path")


class SolverDaemon:
    """The long-lived server; create, :meth:`start`, then :meth:`serve`."""

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.cache = SolveCache(
            maxsize=config.cache_maxsize, directory=config.cache_dir
        )
        self.coalescer = SolveCoalescer(
            self._execute_batch, max_batch=config.max_batch
        )
        # decoded wire instances (event-loop only): a repeated instance
        # skips decoding and re-hashing
        self.instances = InstanceTable()
        self._pool: WorkerPool | None = None
        # one solver thread: batches execute sequentially (the machine's
        # parallelism lives in the worker pool), and the event loop stays
        # free to accept, coalesce and stream while a batch computes
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_requested = asyncio.Event()
        self._ops: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self.draining = False
        self.started_at: float | None = None
        # request accounting (event-loop only: no locks needed)
        self.n_connections = 0
        self.n_requests = 0
        self.n_tasks = 0
        self.n_solved = 0
        self.n_cache_hits = 0
        self.n_errors = 0
        # frontier accounting: (instance, solver) groups answered by one
        # frontier solve, and the threshold queries they covered
        self.n_frontier_groups = 0
        self.n_frontier_thresholds = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the socket, start the coalescer, warm the pool."""
        self._loop = asyncio.get_running_loop()
        self._pool = WorkerPool(self.config.workers)
        self.coalescer.start()
        path = Path(self.config.socket_path)
        if path.exists():  # stale socket from a crashed predecessor
            path.unlink()
        path.parent.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(path), limit=MAX_LINE_BYTES
        )
        self.started_at = time.monotonic()

    def request_drain(self) -> None:
        """Ask the daemon to drain and stop (signal-handler safe)."""
        self._stop_requested.set()

    async def serve(self) -> None:
        """Serve until a drain is requested, then drain; returns when done."""
        if self._server is None:
            await self.start()
        await self._stop_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, refuse new connections."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # in-flight operations (including ones still arriving on already-
        # open connections) run to completion and stream their results
        while self._ops:
            await asyncio.gather(*tuple(self._ops), return_exceptions=True)
        # now quiescent: close remaining (idle) connections so their
        # read loops see EOF and exit
        for writer in tuple(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        await self.coalescer.stop()
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
        with contextlib.suppress(OSError):
            Path(self.config.socket_path).unlink()

    # ------------------------------------------------------------------ #
    # connections and operations
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.n_connections += 1
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        try:
            await self._write(
                writer,
                write_lock,
                {
                    "kind": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "server": "repro-daemon",
                    "pid": os.getpid(),
                },
            )
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line exceeded MAX_LINE_BYTES: unrecoverable framing
                    await self._write(
                        writer,
                        write_lock,
                        {
                            "kind": "error",
                            "id": None,
                            "error": f"line exceeds {MAX_LINE_BYTES} bytes",
                        },
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    document = decode_line(line)
                except ProtocolError as exc:
                    self.n_errors += 1
                    await self._write(
                        writer,
                        write_lock,
                        {"kind": "error", "id": None, "error": str(exc)},
                    )
                    continue
                op_task = asyncio.get_running_loop().create_task(
                    self._handle_op(document, writer, write_lock)
                )
                self._ops.add(op_task)
                op_task.add_done_callback(self._ops.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        document: dict[str, Any],
    ) -> None:
        """Serialise one response line (operations share the connection)."""
        async with lock:
            writer.write(encode_line(document))
            await writer.drain()

    async def _handle_op(
        self,
        document: dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        request_id = document.get("id")
        op = document.get("op")
        self.n_requests += 1
        try:
            if op == "ping":
                await self._write(
                    writer, lock, {"kind": "pong", "id": request_id}
                )
            elif op == "stats":
                await self._write(
                    writer,
                    lock,
                    {"kind": "stats", "id": request_id, "stats": self.stats()},
                )
            elif op == "solve":
                await self._op_solve(document, writer, lock, request_id)
            elif op == "batch":
                await self._op_batch(document, writer, lock, request_id)
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except ConnectionError:
            pass  # client went away mid-stream; nothing left to tell it
        except Exception as exc:  # noqa: BLE001 - a request must ALWAYS get
            # an answer: an uncaught per-op exception would leave the client
            # blocked on a line that never comes
            self.n_errors += 1
            with contextlib.suppress(ConnectionError):
                await self._write(
                    writer,
                    lock,
                    {"kind": "error", "id": request_id, "error": str(exc)},
                )

    async def _op_solve(
        self,
        document: dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        request_id: Any,
    ) -> None:
        spec = SolveTaskSpec.from_dict(document.get("task"), self.instances)
        self.n_tasks += 1
        result, disposition = await self._submit(spec)
        await self._write(
            writer,
            lock,
            {
                "kind": "result",
                "id": request_id,
                "index": 0,
                "disposition": disposition,
                "result": _result_document(result),
            },
        )

    async def _op_batch(
        self,
        document: dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        request_id: Any,
    ) -> None:
        raw_tasks = document.get("tasks")
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise ProtocolError("batch op needs a non-empty 'tasks' list")
        specs = [SolveTaskSpec.from_dict(raw, self.instances) for raw in raw_tasks]
        self.n_tasks += len(specs)

        dispositions: dict[str, int] = {"solved": 0, "cache": 0, "coalesced": 0}
        n_errors = 0

        async def _one(index: int, spec: SolveTaskSpec) -> None:
            nonlocal n_errors
            try:
                result, disposition = await self._submit(spec)
            except (ReproError, ValueError, BrokenProcessPool) as exc:
                n_errors += 1
                self.n_errors += 1
                await self._write(
                    writer,
                    lock,
                    {
                        "kind": "error",
                        "id": request_id,
                        "index": index,
                        "error": str(exc),
                    },
                )
                return
            dispositions[disposition] += 1
            await self._write(
                writer,
                lock,
                {
                    "kind": "result",
                    "id": request_id,
                    "index": index,
                    "disposition": disposition,
                    "result": _result_document(result),
                },
            )

        # results stream back as they complete, each tagged with its index
        await asyncio.gather(
            *(_one(index, spec) for index, spec in enumerate(specs))
        )
        await self._write(
            writer,
            lock,
            {
                "kind": "done",
                "id": request_id,
                "n_tasks": len(specs),
                "n_errors": n_errors,
                "dispositions": dispositions,
            },
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    async def _submit(self, spec: SolveTaskSpec) -> tuple[SolveResult, str]:
        """Answer one task; returns (result, disposition).

        A result already in the cache's memory tier is answered right here
        on the event loop, so a hit never waits behind a running batch.
        Everything else — misses, disk-backed hits (file I/O stays off the
        loop) and ``time_budget`` runs (never cached) — goes through the
        coalescer.
        """
        try:
            handle = get_solver(spec.solver)
        except KeyError as exc:  # registry lookup, not a wire problem per se
            raise ProtocolError(str(exc.args[0]))
        request = handle.default_request(
            period_bound=spec.period_bound,
            latency_bound=spec.latency_bound,
            max_steps=spec.max_steps,
            time_budget=spec.time_budget,
        )
        key = solve_key(spec.application, spec.platform, handle, request)
        if request.time_budget is None:
            hit = self.cache.get_memory(key)
            if hit is not None:
                self.n_cache_hits += 1
                return hit, "cache"
        result, coalesced = await self.coalescer.submit(
            handle, spec.application, spec.platform, request, key.digest
        )
        if coalesced:
            return result, "coalesced"
        return result, "cache" if result.cache_hit else "solved"

    async def _execute_batch(self, batch: list[PendingSolve]) -> None:
        """Coalescer callback: run one flushed batch through the service.

        The whole batch is one :func:`solve_frontier_many` call — one
        dedupe/cache probe/route/shard pass over the persistent pool, with
        same-instance threshold spreads answered by one frontier solve.  If
        that call raises, the batch's tasks re-run one by one, so only the
        failing request gets an error — unless a pool worker died: a lone
        task runs in this process, so re-running the one that killed its
        worker could kill the daemon; the whole batch fails instead.
        """
        try:
            await self._solve(batch)
        except BrokenProcessPool:
            raise  # the coalescer hands it to every waiter of the batch
        except Exception:  # noqa: BLE001 - isolate the failing task(s)
            if len(batch) == 1:
                raise  # the coalescer hands it to the waiter
            for task in batch:
                try:
                    await self._solve([task])
                except Exception as exc:  # noqa: BLE001 - this task's error
                    if not task.future.done():
                        task.future.set_exception(exc)

    async def _solve(self, tasks: list[PendingSolve]) -> None:
        """Solve ``tasks`` on the executor thread and resolve their futures."""
        results, stats = await asyncio.get_running_loop().run_in_executor(
            self._executor,
            partial(
                solve_frontier_many,
                [
                    ((task.application, task.platform), task.handle, task.request)
                    for task in tasks
                ],
                batch_size=self.config.batch_size,
                cache=self.cache,
                pool=self._pool,
            ),
        )
        self.n_solved += stats.n_solved
        self.n_cache_hits += stats.n_cache_hits
        self.n_frontier_groups += stats.n_frontier_groups
        self.n_frontier_thresholds += stats.n_frontier_extracted
        for task, result in zip(tasks, results):
            if not task.future.done():
                task.future.set_result(result)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: one JSON-safe snapshot of the daemon."""
        uptime = (
            time.monotonic() - self.started_at
            if self.started_at is not None
            else 0.0
        )
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": uptime,
            "draining": self.draining,
            "backend": kernels.active_backend(),
            "workers": self._pool.workers if self._pool is not None else 0,
            "connections": len(self._connections),
            "requests": {
                "n_connections": self.n_connections,
                "n_requests": self.n_requests,
                "n_tasks": self.n_tasks,
                "n_solved": self.n_solved,
                "n_cache_hits": self.n_cache_hits,
                "n_errors": self.n_errors,
            },
            "coalescer": self.coalescer.stats(),
            "frontier": {
                "n_groups": self.n_frontier_groups,
                "n_thresholds": self.n_frontier_thresholds,
            },
            "cache": self.cache.stats_snapshot(),
            "cache_entries": len(self.cache),
        }


def _result_document(result: SolveResult) -> dict[str, Any]:
    """The wire form of a result, stripped of run provenance.

    ``wall_time``/``cache_hit``/``backend`` describe *how* this process
    obtained the result, not the result itself; dropping them keeps the
    response byte-identical across cold/warm/coalesced paths (the smoke
    test ``cmp``s two passes) and matches
    :meth:`SolveResult.identity`.
    """
    from ..core.serialization import solve_result_to_dict

    document = solve_result_to_dict(result)
    for field in SolveResult.NONDETERMINISTIC_FIELDS:
        document.pop(field, None)
    return document


def run_daemon(config: DaemonConfig) -> int:
    """Run a daemon in the current process until SIGTERM/SIGINT; returns 0.

    The signal triggers a graceful drain — in-flight solves complete and
    stream to their clients, new connections are refused — and the call
    returns 0 so service managers record a clean exit.
    """

    async def _main() -> None:
        daemon = SolverDaemon(config)
        await daemon.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, daemon.request_drain)
        await daemon.serve()

    asyncio.run(_main())
    return 0


class DaemonThread:
    """A live daemon inside this process, on its own thread and event loop.

    The tests and the latency benchmark need a real server (socket,
    coalescer, executor — everything) without forking one; use as a
    context manager::

        with DaemonThread(DaemonConfig(socket_path=...)) as host:
            client = ServiceClient(host.socket_path)
            ...

    ``host.daemon`` is the live :class:`SolverDaemon` — handy for
    asserting on its counters after the fact (read them once the host has
    stopped, or accept benign races).
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.daemon = SolverDaemon(config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    @property
    def socket_path(self) -> str:
        return str(self.config.socket_path)

    def start(self) -> "DaemonThread":
        if self._thread is not None:
            raise RuntimeError("DaemonThread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-daemon", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError("daemon failed to start") from self._failure
        if not self._ready.is_set():
            raise RuntimeError("daemon did not come up within 30s")
        return self

    def _run(self) -> None:
        async def _main() -> None:
            try:
                await self.daemon.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.daemon.serve()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # pragma: no cover - surfaced via stop()
            if self._failure is None:
                self._failure = exc

    def stop(self) -> None:
        """Drain the daemon and join its thread (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):  # loop may already be done
                self._loop.call_soon_threadsafe(self.daemon.request_drain)
        thread.join(timeout=60.0)
        if thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("daemon thread did not stop within 60s")

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
