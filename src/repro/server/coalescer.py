"""Single-flight coalescing and batch-while-busy micro-batching.

Two ideas, one data structure:

* **single-flight** — every pending solve is keyed by its content-addressed
  cache-key digest (instance × solver × version × request).  A request
  whose digest is already in flight does not enqueue new work; it awaits
  the existing future, so *N* concurrent clients asking for one digest cost
  exactly one solver run (the solve cache covers repeats over time, the
  in-flight map covers repeats in the air);
* **micro-batching** — distinct pending solves are not executed one by
  one.  There is no timer: an idle coalescer flushes an arrival at once,
  and everything that arrives while a batch executes (or in the same
  event-loop beat, such as the tasks of one ``batch`` op) waits and is
  flushed as the next batch, at most ``max_batch`` tasks at a time.  The
  daemon pushes each batch through
  :func:`repro.solvers.service.solve_frontier_many` so the shared-memory arena,
  the worker pool and the dedupe/cache probe amortise across clients.

The coalescer is a pure asyncio object: it never touches sockets or
solvers itself.  The daemon supplies ``execute`` — an async callable that
receives each flushed batch and must resolve every task's future.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable

from ..cache.keys import solve_key

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..core.application import PipelineApplication
    from ..core.platform import Platform
    from ..solvers.base import SolveRequest, SolveResult
    from ..solvers.registry import Solver

__all__ = ["PendingSolve", "SolveCoalescer"]


@dataclass
class PendingSolve:
    """One enqueued solver run awaiting execution."""

    handle: "Solver"
    application: "PipelineApplication"
    platform: "Platform"
    request: "SolveRequest"
    digest: str
    future: "asyncio.Future[SolveResult]" = field(repr=False)


class SolveCoalescer:
    """The daemon's admission queue: single-flight map + batch-while-busy.

    Parameters
    ----------
    execute:
        ``async execute(batch: list[PendingSolve]) -> None``.  Must resolve
        (``set_result``/``set_exception``) every future in the batch; any
        exception it raises is propagated onto the still-unresolved ones,
        so a waiter can never hang on a crashed batch.
    max_batch:
        The most tasks one flush takes; a larger backlog stays queued for
        the next flush.
    """

    def __init__(
        self,
        execute: Callable[[list[PendingSolve]], Awaitable[None]],
        *,
        max_batch: int = 128,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._execute = execute
        self.max_batch = int(max_batch)
        self._pending: list[PendingSolve] = []
        self._inflight: dict[str, "asyncio.Future[SolveResult]"] = {}
        self._arrival = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._stopping = False
        #: tasks enqueued (post single-flight dedupe)
        self.n_enqueued = 0
        #: submissions answered by an already in-flight digest
        self.n_coalesced = 0
        #: histogram {batch size: count} of every flushed batch
        self.batch_sizes: Counter[int] = Counter()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the flush loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="solve-coalescer"
            )

    async def stop(self) -> None:
        """Flush the queue and stop the loop once it is empty."""
        self._stopping = True
        self._arrival.set()
        if self._task is not None:
            await self._task
            self._task = None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    @property
    def n_in_flight(self) -> int:
        """Distinct digests currently pending or executing."""
        return len(self._inflight)

    async def submit(
        self,
        handle: "Solver",
        app: "PipelineApplication",
        platform: "Platform",
        request: "SolveRequest",
    ) -> tuple["SolveResult", bool]:
        """Enqueue (or join) one solve; returns ``(result, coalesced)``.

        ``coalesced`` is ``True`` when the call joined an already in-flight
        identical task instead of enqueuing work of its own.
        """
        if self._stopping:
            raise RuntimeError("coalescer is stopping; no new submissions")
        digest = solve_key(app, platform, handle, request).digest
        existing = self._inflight.get(digest)
        if existing is not None:
            self.n_coalesced += 1
            # shield: a disconnected waiter must not cancel the shared future
            return await asyncio.shield(existing), True
        future: "asyncio.Future[SolveResult]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[digest] = future
        self._pending.append(
            PendingSolve(handle, app, platform, request, digest, future)
        )
        self.n_enqueued += 1
        self._arrival.set()
        return await asyncio.shield(future), False

    # ------------------------------------------------------------------ #
    # flush loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while self._pending or not self._stopping:
            if not self._pending:
                self._arrival.clear()
                await self._arrival.wait()
                continue
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self.batch_sizes[len(batch)] += 1
            try:
                await self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - propagated to waiters
                for task in batch:
                    if not task.future.done():
                        task.future.set_exception(exc)
            finally:
                for task in batch:
                    self._inflight.pop(task.digest, None)
                    if not task.future.done():  # executor forgot one: fail loud
                        task.future.set_exception(
                            RuntimeError(
                                f"batch executor resolved no result for "
                                f"{task.digest[:12]}…"
                            )
                        )

    def stats(self) -> dict[str, Any]:
        """JSON-safe counters for the ``/stats`` payload."""
        sizes = {str(size): count for size, count in sorted(self.batch_sizes.items())}
        return {
            "n_enqueued": self.n_enqueued,
            "n_coalesced": self.n_coalesced,
            "in_flight": self.n_in_flight,
            "n_batches": sum(self.batch_sizes.values()),
            "max_batch_size": max(self.batch_sizes, default=0),
            "batch_sizes": sizes,
        }
