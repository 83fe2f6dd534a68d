"""The zero-pickle instance transport (:mod:`repro.utils.shm`) and the
ship-once pool plumbing (:mod:`repro.utils.parallel`).

Contracts under test:

* the arena publishes each **unique** instance once (dedup by canonical
  digest) and workers rehydrate each digest **at most once per process**,
  no matter how many tasks reference it — asserted from inside real pool
  workers via :func:`repro.utils.shm.worker_attach_counts`;
* rehydrated instances are exact: the canonical JSON payloads round-trip
  the float values bit for bit, so pooled reports stay byte-identical to
  serial ones;
* the transport degrades gracefully: no ``/dev/shm`` (``REPRO_DISABLE_SHM``)
  means inline bytes through the initializer — still once per worker;
* the mapped function travels through the pool **initializer**, never
  inside task tuples (the historical once-per-chunk pickling);
* ``available_cpus`` respects the scheduler affinity mask, so cgroup- or
  ``taskset``-restricted jobs size their pools by their actual allowance.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.core.identity import instance_digest
from repro.generators.experiments import experiment_config, generate_instances
from repro.solvers.service import solve_many
from repro.utils import parallel, shm
from repro.utils.parallel import available_cpus, parallel_map
from repro.utils.shm import InstanceArena, InstanceRef, resolve_instance


def _instances(n: int = 4):
    config = experiment_config("E2", 6, 5, n_instances=n)
    return generate_instances(config, seed=23)


def _pairs(instances):
    return [(inst.application, inst.platform) for inst in instances]


def _resolve_and_snapshot(ref: InstanceRef):
    """Pool task: resolve one ref, report this worker's rehydration counts."""
    app, platform = resolve_instance(ref)
    return os.getpid(), app.n_stages, dict(shm.worker_attach_counts())


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return False
    return True


# ----------------------------------------------------------------------------- #
# the arena
# ----------------------------------------------------------------------------- #
class TestInstanceArena:
    def test_publishes_each_unique_instance_once(self):
        instances = _instances(3)
        pairs = _pairs(instances)
        with InstanceArena(pairs * 5) as arena:  # repeated stream, 3 unique
            assert arena.n_instances == 3
            for app, platform in pairs:
                assert arena.ref(app, platform) == InstanceRef(
                    instance_digest(app, platform)
                )

    def test_ref_of_unpublished_instance_raises(self):
        first, second = _instances(2)
        with InstanceArena([(first.application, first.platform)]) as arena:
            with pytest.raises(KeyError):
                arena.ref(second.application, second.platform)

    def test_refs_pickle_small(self):
        """The point of the transport: tasks carry digests, not instances."""
        config = experiment_config("E2", 24, 8, n_instances=1)
        inst = generate_instances(config, seed=23)[0]
        pair = (inst.application, inst.platform)
        with InstanceArena([pair]) as arena:
            ref = arena.ref(*pair)
            assert len(pickle.dumps(ref)) < len(pickle.dumps(pair)) / 10

    def test_rehydration_is_exact(self):
        """Round-tripped instances have the same canonical digest."""
        for inst in _instances(4):
            pair = (inst.application, inst.platform)
            with InstanceArena([pair]) as arena:
                arena.shipment().install()
                app, platform = resolve_instance(arena.ref(*pair))
            assert instance_digest(app, platform) == instance_digest(*pair)
            assert app.name == inst.application.name
            assert platform.name == inst.platform.name

    def test_inline_fallback_without_shared_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        instances = _instances(2)
        with InstanceArena(_pairs(instances)) as arena:
            assert not arena.uses_shared_memory
            shipment = arena.shipment()
            assert shipment.segment is None and shipment.inline is not None
            shipment.install()
            for inst in instances:
                pair = (inst.application, inst.platform)
                app, platform = resolve_instance(arena.ref(*pair))
                assert instance_digest(app, platform) == instance_digest(*pair)


# ----------------------------------------------------------------------------- #
# segment lifetime: no stale /dev/shm files, however the parent dies
# ----------------------------------------------------------------------------- #
_ARENA_SCRIPT = """\
import sys
from repro.generators.experiments import experiment_config, generate_instances
from repro.utils.shm import InstanceArena

config = experiment_config("E2", 4, 3, n_instances=1)
inst = generate_instances(config, seed=5)[0]
arena = InstanceArena([(inst.application, inst.platform)])
assert arena.uses_shared_memory
print(arena.shipment().segment, flush=True)
if "--hang" in sys.argv:
    import time
    time.sleep(120)
# otherwise: exit WITHOUT close() — the atexit guard must unlink the segment
"""


@pytest.mark.skipif(not shm.shm_supported(), reason="needs /dev/shm")
class TestSegmentLifetime:
    def _spawn(self, *extra: str) -> tuple[subprocess.Popen, str]:
        process = subprocess.Popen(
            [sys.executable, "-c", _ARENA_SCRIPT, *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        segment = process.stdout.readline().strip()
        assert segment, "the child never published a segment"
        return process, os.path.join("/dev/shm", segment)

    @staticmethod
    def _wait_gone(path: str, timeout: float = 15.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not os.path.exists(path):
                return True
            time.sleep(0.1)
        return not os.path.exists(path)

    def test_killed_parent_leaves_no_stale_segment(self):
        """SIGKILL skips atexit and __del__ both; the resource tracker —
        a separate process that outlives the parent — unlinks the segment
        the parent registered at creation."""
        process, path = self._spawn("--hang")
        try:
            assert os.path.exists(path)
            process.kill()
            process.wait(timeout=30)
            assert self._wait_gone(path), f"stale segment {path} after SIGKILL"
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()

    def test_exit_without_close_leaves_no_stale_segment(self):
        """A parent that simply returns without close() triggers the atexit
        guard, which unlinks (and deregisters) the segment — so the
        resource tracker has nothing to complain about either."""
        process, path = self._spawn()
        _, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr
        assert self._wait_gone(path), f"stale segment {path} after clean exit"
        assert "leaked shared_memory" not in stderr

    def test_atexit_guard_skips_closed_arenas(self):
        """close() discards the arena from the guard's live set."""
        pairs = _pairs(_instances(1))
        arena = InstanceArena(pairs)
        assert arena in shm._LIVE_ARENAS
        arena.close()
        assert arena not in shm._LIVE_ARENAS
        shm._close_live_arenas()  # no-op on the closed arena


# ----------------------------------------------------------------------------- #
# ship-at-most-once, asserted from inside pool workers
# ----------------------------------------------------------------------------- #
@pytest.mark.skipif(not _has_fork(), reason="needs the fork start method")
class TestShipOnce:
    @pytest.mark.parametrize("disable_shm", [False, True])
    def test_workers_rehydrate_each_digest_at_most_once(
        self, monkeypatch, disable_shm
    ):
        """24 tasks over 3 instances: every worker count stays at 1.

        One worker may drain every chunk before the other starts, so the
        check is on what matters: each snapshot comes from a pool worker
        (not the parent), and no worker rehydrated a digest twice.
        """
        if disable_shm:
            monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        pairs = _pairs(_instances(3))
        with InstanceArena(pairs) as arena:
            assert arena.uses_shared_memory is not disable_shm
            refs = [arena.ref(*pair) for pair in pairs] * 8
            snapshots = parallel_map(
                _resolve_and_snapshot,
                refs,
                workers=2,
                batch_size=3,
                payload=arena.shipment(),
            )
        assert len(snapshots) == len(refs)
        for pid, _, counts in snapshots:
            assert pid != os.getpid()  # the pool actually ran
            assert counts  # instrumentation is live in the workers
            assert all(count == 1 for count in counts.values())

    def test_mapped_function_never_rides_in_task_tuples(self):
        """An unpicklable closure maps fine: it travels by initializer.

        Under the historical transport every chunk carried ``(fn, items)``
        and pickling the closure would raise; the initializer path inherits
        it through ``fork`` without ever serialising it.
        """
        offset = 17
        results = parallel_map(
            lambda x: x + offset, list(range(40)), workers=2, batch_size=4
        )
        assert results == [x + offset for x in range(40)]


# ----------------------------------------------------------------------------- #
# end-to-end identity across pooling and backends
# ----------------------------------------------------------------------------- #
def _identity_bytes(batch) -> list[bytes]:
    return [
        pickle.dumps(result.identity()) for row in batch.results for result in row
    ]


class TestTransportIdentity:
    SOLVERS = ("H1", "H4", "bitmask-dp-latency-for-period")

    def test_pooled_equals_serial(self):
        instances = _instances(5) * 2  # repeats exercise dedupe + memoisation
        serial = solve_many(instances, self.SOLVERS, period_bound=9.0)
        pooled = solve_many(
            instances, self.SOLVERS, period_bound=9.0, workers=2, batch_size=2
        )
        assert _identity_bytes(pooled) == _identity_bytes(serial)

    def test_identity_holds_with_and_without_compiled_engines(self, monkeypatch):
        """Serial == pooled == compiled-less, byte for byte."""
        from repro.core.kernels import compiled

        instances = _instances(4)
        reference = _identity_bytes(
            solve_many(instances, self.SOLVERS, period_bound=9.0)
        )
        with_engine = solve_many(
            instances,
            self.SOLVERS,
            period_bound=9.0,
            workers=2,
            backend="compiled",
        )
        assert _identity_bytes(with_engine) == reference
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "all")
        compiled.reset()
        try:
            assert compiled.engine_functions() is None
            without_engine = solve_many(
                instances,
                self.SOLVERS,
                period_bound=9.0,
                workers=2,
                backend="compiled",
                )
        finally:
            monkeypatch.delenv("REPRO_KERNELS_DISABLE")
            compiled.reset()
        assert _identity_bytes(without_engine) == reference


# ----------------------------------------------------------------------------- #
# pool sizing respects the affinity mask
# ----------------------------------------------------------------------------- #
class TestAvailableCpus:
    def test_respects_affinity_mask(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
        assert available_cpus() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 6)
        assert parallel.available_cpus() == 6

    def test_at_least_one(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        assert available_cpus() == 1
