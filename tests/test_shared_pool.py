"""The warm workers behind :func:`repro.utils.parallel.parallel_map`.

Every pooled ``parallel_map`` runs on one process-wide
:class:`~repro.utils.parallel.WorkerPool` per worker count, forked on first
use.  Contracts under test:

* consecutive maps run on the same worker processes;
* a forked child never reuses its parent's pool;
* state the workers took at fork time is never served stale: a solver
  registered after the pool forked resolves inside a pooled ``solve_many``;
* maps from two threads at once both return the serial answer;
* the map's ``(fn, payload)`` ships as bytes with every chunk, and a worker
  installs a shipment once: each digest rehydrates at most once per worker
  per distinct shipment, across maps and across mapped functions.

Worker death and orphaned workers are covered by
``tests/test_worker_faults.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.core.identity import instance_digest
from repro.generators.experiments import experiment_config, generate_instances
from repro.solvers import registry
from repro.solvers.base import Objective, SolverFamily
from repro.solvers.registry import SolverSpec, get_solver, register_solver
from repro.solvers.service import solve_many
from repro.utils import parallel, shm
from repro.utils.parallel import parallel_map, retire_shared_pools
from repro.utils.shm import InstanceArena, InstanceRef, resolve_instance

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)

LATE = "late-registered-h1"


def _pid(_item) -> int:
    return os.getpid()


def _square(x: int) -> int:
    return x * x


def _late_solve(app, platform, request):
    return get_solver("H1").spec.solve_fn(app, platform, request)


def _resolve(ref: InstanceRef):
    """Pool task: the ref's digest, this worker's resolver state and counts."""
    pair = resolve_instance(ref)
    return os.getpid(), id(shm._STATE), instance_digest(*pair), shm.worker_attach_counts()


def _resolve_again(ref: InstanceRef):
    """A second mapped function over the same shipment."""
    return _resolve(ref)


def _pairs(n: int, seed: int = 23):
    config = experiment_config("E2", 6, 5, n_instances=n)
    return [(i.application, i.platform) for i in generate_instances(config, seed=seed)]


def _pool_pids() -> set[int]:
    return set(parallel._SHARED[2]._executor._processes)


class TestWarmWorkers:
    def test_consecutive_maps_share_the_workers(self):
        first = parallel_map(_pid, range(16), workers=2, batch_size=1)
        pool = parallel._SHARED[2]
        second = parallel_map(_pid, range(16), workers=2, batch_size=1)
        assert parallel._SHARED[2] is pool
        assert os.getpid() not in first
        assert set(first) | set(second) <= _pool_pids()

    def test_forked_child_forks_its_own_pool(self):
        parent = set(parallel_map(_pid, range(16), workers=2, batch_size=1))
        read_fd, write_fd = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            verdict = b"no verdict"
            try:
                pids = set(parallel_map(_pid, range(16), workers=2, batch_size=1))
                ok = pids.isdisjoint(parent) and os.getpid() not in pids
                verdict = b"own" if ok else repr(pids).encode()
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                verdict = repr(exc).encode()
            finally:
                os.write(write_fd, verdict)
                os._exit(0)  # its workers follow it out (orphan guard)
        os.close(write_fd)
        # one read, not read-to-EOF: the child's workers hold the write end too
        verdict = os.read(read_fd, 4096)
        os.close(read_fd)
        os.waitpid(child, 0)
        assert verdict == b"own"
        assert set(parallel_map(_pid, range(16), workers=2, batch_size=1)) <= _pool_pids()

    def test_maps_from_two_threads_at_once(self):
        results: dict[int, list[int]] = {}

        def run(start: int) -> None:
            results[start] = parallel_map(
                _square, range(start, start + 300), workers=2, batch_size=3
            )

        threads = [threading.Thread(target=run, args=(start,)) for start in (0, 10_000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        for start, got in results.items():
            assert got == [x * x for x in range(start, start + 300)]
        assert len(results) == 2


@pytest.fixture
def late_solver(monkeypatch):
    """Register :data:`LATE` on a private registry copy, after the pool forked."""
    parallel_map(_pid, range(4), workers=2)  # the pool is warm now
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_LOOKUP", dict(registry._LOOKUP))
    register_solver(
        SolverSpec(
            name=LATE,
            key=LATE,
            family=SolverFamily.HEURISTIC,
            objective=Objective.MIN_LATENCY_FOR_PERIOD,
            solve_fn=_late_solve,
        )
    )
    yield
    retire_shared_pools()  # no worker keeps the private registry


def test_solver_registered_after_the_fork_resolves_in_workers(late_solver):
    pairs = _pairs(4)
    pooled = solve_many(pairs, [LATE], period_bound=9.0, workers=2, batch_size=1)
    serial = solve_many(pairs, [LATE], period_bound=9.0)
    assert [row[0].identity() for row in pooled.results] == [
        row[0].identity() for row in serial.results
    ]


def test_each_shipment_installs_once_per_worker():
    """Two maps and two functions over one shipment never re-install it;
    a different shipment is installed fresh, and counts stay at 1."""
    first, second = _pairs(3), _pairs(3, seed=24)
    arena, other = InstanceArena(first), InstanceArena(second)
    refs = [arena.ref(*pair) for pair in first] * 8
    runs = [
        parallel_map(fn, refs, workers=2, batch_size=3, payload=arena.shipment())
        for fn in (_resolve, _resolve, _resolve_again)
    ]
    third = parallel_map(
        _resolve,
        [other.ref(*pair) for pair in second] * 8,
        workers=2,
        batch_size=3,
        payload=other.shipment(),
    )

    expected = [instance_digest(*pair) for pair in first] * 8
    states: dict[int, set[int]] = {}
    for run in runs:
        assert [digest for _, _, digest, _ in run] == expected
        for pid, state, _, counts in run:
            assert pid != os.getpid()
            assert counts and all(count == 1 for count in counts.values())
            states.setdefault(pid, set()).add(state)
    assert all(len(ids) == 1 for ids in states.values())  # never re-installed

    assert [digest for _, _, digest, _ in third] == [
        instance_digest(*pair) for pair in second
    ] * 8
    fresh = {instance_digest(*pair) for pair in second}
    for pid, state, _, counts in third:
        assert state not in states.get(pid, set())
        assert set(counts) <= fresh
        assert all(count == 1 for count in counts.values())
