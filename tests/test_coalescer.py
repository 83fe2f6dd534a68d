"""The coalescer's batching rule, driven deterministically.

Pure asyncio: no sockets, no solvers, no clocks.  The ``execute`` callback
blocks each batch on an :class:`asyncio.Event`, so a test decides exactly
what is running while the next submissions arrive.  The rule under test:
an idle coalescer flushes an arrival at once; whatever arrives while a
batch runs becomes the next batch, at most ``max_batch`` tasks at a time;
identical digests in the air (pending or running) share one future.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.keys import solve_key
from repro.server.coalescer import PendingSolve, SolveCoalescer
from repro.solvers.registry import get_solver

#: event-loop beats a flush may take to start; no test ever sleeps
_BEATS = 5


class GatedExecutor:
    """``execute`` that records each batch and holds it until opened."""

    def __init__(self, *, opened: bool = False) -> None:
        self.batches: list[list[str]] = []
        self.gate = asyncio.Event()
        if opened:
            self.gate.set()

    async def __call__(self, batch: list[PendingSolve]) -> None:
        self.batches.append([task.digest for task in batch])
        await self.gate.wait()
        for task in batch:
            task.future.set_result(task.digest)


async def _beats(n: int = _BEATS) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


@pytest.fixture
def submitter(small_app, small_platform):
    """``submit(coalescer, bound)``: one H1 solve keyed by its period bound."""
    handle = get_solver("H1")

    def _submit(coalescer: SolveCoalescer, bound: float):
        request = handle.default_request(period_bound=bound)
        digest = solve_key(small_app, small_platform, handle, request).digest
        return asyncio.ensure_future(
            coalescer.submit(handle, small_app, small_platform, request, digest)
        )

    return _submit


def test_lone_submit_on_idle_coalescer_flushes_at_once(submitter):
    async def scenario():
        execute = GatedExecutor(opened=True)
        coalescer = SolveCoalescer(execute)
        coalescer.start()
        submit = submitter(coalescer, 10.0)
        await _beats()  # loop beats only: no timer is allowed to fire
        assert submit.done()
        result, coalesced = submit.result()
        assert coalesced is False
        assert execute.batches == [[result]]
        assert dict(coalescer.batch_sizes) == {1: 1}
        assert coalescer.n_in_flight == 0
        await coalescer.stop()

    asyncio.run(scenario())


def test_distinct_submits_while_busy_form_one_batch(submitter):
    n = 6

    async def scenario():
        execute = GatedExecutor()
        coalescer = SolveCoalescer(execute)
        coalescer.start()
        first = submitter(coalescer, 1.0)
        await _beats()
        assert len(execute.batches) == 1  # the solver is busy with `first`
        rest = [submitter(coalescer, 2.0 + i) for i in range(n)]
        await _beats()
        assert len(execute.batches) == 1  # they wait: nothing is idle
        assert coalescer.n_in_flight == 1 + n
        execute.gate.set()
        await asyncio.gather(first, *rest)
        assert [len(batch) for batch in execute.batches] == [1, n]
        assert execute.batches[1] == [task.result()[0] for task in rest]
        assert dict(coalescer.batch_sizes) == {1: 1, n: 1}
        await coalescer.stop()

    asyncio.run(scenario())


def test_identical_submits_while_busy_single_flight(submitter):
    n = 5

    async def scenario():
        execute = GatedExecutor()
        coalescer = SolveCoalescer(execute)
        coalescer.start()
        first = submitter(coalescer, 1.0)
        await _beats()
        same = [submitter(coalescer, 2.0) for _ in range(n)]
        # a running digest is in flight too: it coalesces as well
        running = submitter(coalescer, 1.0)
        await _beats()
        assert coalescer.n_enqueued == 2
        assert coalescer.n_coalesced == (n - 1) + 1
        assert coalescer.n_in_flight == 2
        execute.gate.set()
        answers = await asyncio.gather(*same)
        assert await first == (execute.batches[0][0], False)
        assert await running == (execute.batches[0][0], True)
        assert len({result for result, _ in answers}) == 1
        assert sorted(coalesced for _, coalesced in answers) == (
            [False] + [True] * (n - 1)
        )
        assert [len(batch) for batch in execute.batches] == [1, 1]
        await coalescer.stop()

    asyncio.run(scenario())


def test_max_batch_splits_an_oversized_backlog(submitter):
    async def scenario():
        execute = GatedExecutor()
        coalescer = SolveCoalescer(execute, max_batch=3)
        coalescer.start()
        first = submitter(coalescer, 1.0)
        await _beats()
        backlog = [submitter(coalescer, 2.0 + i) for i in range(7)]
        await _beats()
        execute.gate.set()
        await asyncio.gather(first, *backlog)
        assert [len(batch) for batch in execute.batches] == [1, 3, 3, 1]
        # first come, first flushed
        flushed = [digest for batch in execute.batches[1:] for digest in batch]
        assert flushed == [task.result()[0] for task in backlog]
        assert dict(coalescer.batch_sizes) == {1: 2, 3: 2}
        await coalescer.stop()

    asyncio.run(scenario())


def test_a_lone_oversized_burst_is_split_too(submitter):
    """Tasks submitted in one beat (one ``batch`` op) are capped as well."""

    async def scenario():
        execute = GatedExecutor(opened=True)
        coalescer = SolveCoalescer(execute, max_batch=4)
        coalescer.start()
        burst = [submitter(coalescer, 1.0 + i) for i in range(10)]
        await asyncio.gather(*burst)
        assert [len(batch) for batch in execute.batches] == [4, 4, 2]
        await coalescer.stop()

    asyncio.run(scenario())


def test_stop_flushes_what_is_pending(submitter):
    async def scenario():
        execute = GatedExecutor()
        coalescer = SolveCoalescer(execute)
        coalescer.start()
        first = submitter(coalescer, 1.0)
        await _beats()
        pending = [submitter(coalescer, 2.0 + i) for i in range(3)]
        await _beats()
        stopping = asyncio.ensure_future(coalescer.stop())
        await _beats()
        assert not stopping.done()  # still owes the pending batch
        with pytest.raises(RuntimeError, match="stopping"):
            await submitter(coalescer, 9.0)
        execute.gate.set()
        await stopping
        assert all(task.done() for task in [first, *pending])
        assert [len(batch) for batch in execute.batches] == [1, 3]
        assert coalescer.n_in_flight == 0

    asyncio.run(scenario())


def test_stop_on_an_idle_coalescer_returns():
    async def scenario():
        coalescer = SolveCoalescer(GatedExecutor(opened=True))
        coalescer.start()
        await _beats()
        await asyncio.wait_for(coalescer.stop(), timeout=5.0)
        assert coalescer.batch_sizes == {}

    asyncio.run(scenario())


def test_a_failed_batch_fails_every_waiter(submitter):
    async def execute(batch):
        raise ValueError("boom")

    async def scenario():
        coalescer = SolveCoalescer(execute)
        coalescer.start()
        burst = [submitter(coalescer, 1.0 + i) for i in range(3)]
        outcomes = await asyncio.gather(*burst, return_exceptions=True)
        assert all(isinstance(o, ValueError) for o in outcomes)
        assert coalescer.n_in_flight == 0
        await coalescer.stop()

    asyncio.run(scenario())


def test_max_batch_must_be_positive():
    with pytest.raises(ValueError, match="max_batch"):
        SolveCoalescer(GatedExecutor(), max_batch=0)
