"""The ship-once instance transport (:mod:`repro.utils.shm`) and the
pool plumbing it rides on (:mod:`repro.utils.parallel`).

Contracts under test:

* the arena publishes each **unique** instance once (dedup by canonical
  digest) and workers rehydrate each digest **at most once per process**,
  no matter how many tasks reference it — asserted from inside real pool
  workers (of :func:`~repro.utils.parallel.parallel_map` and of a
  persistent :class:`~repro.utils.parallel.WorkerPool`) via
  :func:`repro.utils.shm.worker_attach_counts`;
* rehydrated instances are exact: the canonical JSON payloads round-trip
  the float values bit for bit, so pooled reports stay byte-identical to
  serial ones;
* the mapped function is pickled in the parent, once per map: an
  unpicklable one fails there, naming the function, while the serial path
  still maps closures;
* ``available_cpus`` respects the scheduler affinity mask, so cgroup- or
  ``taskset``-restricted jobs size their pools by their actual allowance.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.core.identity import instance_digest
from repro.generators.experiments import experiment_config, generate_instances
from repro.solvers.service import solve_many
from repro.utils import parallel, shm
from repro.utils.parallel import WorkerPool, available_cpus, parallel_map
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


def _resolve_in_pool(ref: InstanceRef):
    """Pool task: resolve one ref; report the pair's digest, this worker's
    resolver state (a re-install replaces it) and its rehydration counts."""
    pair = resolve_instance(ref)
    return (
        os.getpid(),
        id(shm._STATE),
        instance_digest(*pair),
        dict(shm.worker_attach_counts()),
    )


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
        arena = InstanceArena(pairs * 5)  # repeated stream, 3 unique
        assert arena.n_instances == 3
        for app, platform in pairs:
            assert arena.ref(app, platform) == InstanceRef(
                instance_digest(app, platform)
            )

    def test_size_is_the_total_payload_bytes(self):
        from repro.core.identity import application_payload, platform_payload

        pairs = _pairs(_instances(3))
        shipment = InstanceArena(pairs * 2).shipment()
        assert shipment.size == sum(
            len(application_payload(app)) + len(platform_payload(platform))
            for app, platform in pairs
        )

    def test_ref_of_unpublished_instance_raises(self):
        first, second = _instances(2)
        arena = InstanceArena([(first.application, first.platform)])
        with pytest.raises(KeyError):
            arena.ref(second.application, second.platform)

    def test_refs_pickle_small(self):
        """The point of the transport: tasks carry digests, not instances."""
        config = experiment_config("E2", 24, 8, n_instances=1)
        inst = generate_instances(config, seed=23)[0]
        pair = (inst.application, inst.platform)
        ref = InstanceArena([pair]).ref(*pair)
        assert len(pickle.dumps(ref)) < len(pickle.dumps(pair)) / 10

    def test_resolve_passes_non_refs_through(self):
        pair = _pairs(_instances(1))[0]
        assert resolve_instance(pair) is pair

    def test_resolve_of_digest_missing_from_shipment_raises(self):
        first, second = _pairs(_instances(2))
        InstanceArena([first]).shipment().install()
        with pytest.raises(KeyError, match="not in the shipment catalog"):
            resolve_instance(InstanceRef(instance_digest(*second)))

    def test_rehydration_is_exact(self):
        """Round-tripped instances have the same canonical digest."""
        for inst in _instances(4):
            pair = (inst.application, inst.platform)
            arena = InstanceArena([pair])
            arena.shipment().install()
            app, platform = resolve_instance(arena.ref(*pair))
            assert instance_digest(app, platform) == instance_digest(*pair)
            assert app.name == inst.application.name
            assert platform.name == inst.platform.name


# ----------------------------------------------------------------------------- #
# ship-at-most-once, asserted from inside pool workers
# ----------------------------------------------------------------------------- #
@pytest.mark.skipif(not _has_fork(), reason="needs the fork start method")
class TestShipOnce:
    def test_workers_rehydrate_each_digest_at_most_once(self):
        """24 tasks over 3 instances: every worker count stays at 1.

        One worker may drain every chunk before the other starts, so the
        check is on what matters: each snapshot comes from a pool worker
        (not the parent), and no worker rehydrated a digest twice.
        """
        pairs = _pairs(_instances(3))
        arena = InstanceArena(pairs)
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

    def test_persistent_pool_keeps_an_equal_shipment_across_maps(self):
        """The daemon's path: a :class:`WorkerPool` pickles the shipment with
        every chunk, and a worker re-installs it only when it differs.

        Two maps carrying one arena's shipment leave every worker's count at
        exactly 1 per digest, under one resolver state per worker; a third
        map with a different shipment re-installs it and resolves correctly.
        """
        first, second = _pairs(_instances(3)), _pairs(_instances(6)[3:])
        arena = InstanceArena(first)
        refs = [arena.ref(*pair) for pair in first] * 8
        with WorkerPool(workers=2) as pool:
            runs = [
                pool.map(_resolve_in_pool, refs, batch_size=3, payload=arena.shipment())
                for _ in range(2)
            ]
            other = InstanceArena(second)
            third = pool.map(
                _resolve_in_pool,
                [other.ref(*pair) for pair in second] * 4,
                batch_size=3,
                payload=other.shipment(),
            )

        expected = [instance_digest(*pair) for pair in first] * 8
        states: dict[int, set[int]] = {}
        for run in runs:
            assert [digest for _, _, digest, _ in run] == expected
            for pid, state, _, counts in run:
                assert pid != os.getpid()  # the pool actually ran
                assert counts and all(count == 1 for count in counts.values())
                states.setdefault(pid, set()).add(state)
        assert all(len(ids) == 1 for ids in states.values())  # never re-installed

        fresh = {instance_digest(*pair) for pair in second}
        assert [digest for _, _, digest, _ in third] == [
            instance_digest(*pair) for pair in second
        ] * 4
        for pid, state, _, counts in third:
            assert state not in states.get(pid, set())
            assert set(counts) <= fresh
            assert all(count == 1 for count in counts.values())

    def test_unpicklable_function_fails_in_the_parent_naming_it(self):
        """A pooled map pickles its function in the parent, once per map:
        a closure fails there, before any chunk is sent, and the error
        names it."""
        offset = 17
        with pytest.raises(pickle.PicklingError, match="<lambda>"):
            parallel_map(lambda x: x + offset, list(range(40)), workers=2, batch_size=4)

    def test_serial_path_maps_closures(self):
        """Nothing is pickled on the serial path: closures map fine there."""
        offset = 17
        for workers in (None, 1):
            assert parallel_map(
                lambda x: x + offset, list(range(40)), workers=workers
            ) == [x + offset for x in range(40)]
        assert parallel_map(lambda x: x + offset, [3], workers=2) == [20]


# ----------------------------------------------------------------------------- #
# end-to-end identity across pooling and kernels
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

    def test_identity_holds_with_and_without_compiled_engines(self):
        """Serial == pooled == compiled-less, byte for byte."""
        from repro.core.kernels import compiled
        from tests.kernel_engine import engine_disabled

        instances = _instances(4)
        reference = _identity_bytes(
            solve_many(instances, self.SOLVERS, period_bound=9.0)
        )
        with_engine = solve_many(
            instances, self.SOLVERS, period_bound=9.0, workers=2
        )
        assert _identity_bytes(with_engine) == reference
        with engine_disabled():
            assert compiled.engine_functions() is None
            without_engine = solve_many(
                instances, self.SOLVERS, period_bound=9.0, workers=2
            )
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
