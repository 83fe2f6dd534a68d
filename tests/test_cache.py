"""The solve cache: keys, LRU semantics, disk store, invalidation, stats.

The cache's contract is behavioural transparency: a result served from the
cache must have the same :meth:`~repro.solvers.base.SolveResult.identity`
as the solver run it memoised (``cache_hit`` / ``wall_time`` aside), keys
must separate every component that can change a result (instance, solver
name, solver *version*, request), and a damaged or foreign store must read
as cold, never as wrong.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.cache import (
    CacheKey,
    DiskCacheStore,
    InMemoryLRUCache,
    SolveCache,
    frontier_key,
    prune_cache_dir,
    solve_key,
)
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics import get_heuristic
from repro.solvers.base import SolveRequest
from repro.solvers.registry import get_solver
from repro.solvers.service import solve_with_cache


@pytest.fixture(scope="module")
def instance():
    config = experiment_config("E2", 6, 5, n_instances=1)
    return generate_instances(config, seed=7)[0]


@pytest.fixture(scope="module")
def solved(instance):
    solver = get_solver("H1")
    request = SolveRequest.fixed_period(9.0)
    key = solve_key(instance.application, instance.platform, solver, request)
    result = solver.solve(instance.application, instance.platform, request)
    return key, result


class TestCacheKey:
    def test_every_component_reaches_the_digest(self, instance, solved):
        key, _ = solved
        assert key.solver_version == "1"
        for field, other in (
            ("instance_hash", "0" * 64),
            ("solver_name", "someone-else"),
            ("solver_version", "2"),
            ("request_digest", "f" * 64),
        ):
            changed = dataclasses.replace(key, **{field: other})
            assert changed.digest != key.digest

    def test_key_is_reproducible(self, instance, solved):
        key, _ = solved
        again = solve_key(
            instance.application,
            instance.platform,
            get_solver("H1"),
            SolveRequest.fixed_period(9.0),
        )
        assert again == key and again.digest == key.digest


class TestInMemoryLRU:
    def test_eviction_is_least_recently_used(self, solved):
        _, result = solved
        lru = InMemoryLRUCache(maxsize=2)
        assert lru.put("a", result) == 0
        assert lru.put("b", result) == 0
        assert lru.get("a") is result  # refresh "a": "b" is now oldest
        assert lru.put("c", result) == 1
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.get("b") is None

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            InMemoryLRUCache(maxsize=0)


class TestSolveCacheMemory:
    def test_miss_then_hit_with_cache_hit_stamp(self, solved):
        key, result = solved
        cache = SolveCache()
        assert cache.get(key) is None
        cache.put(key, result)
        hit = cache.get(key)
        assert hit.cache_hit is True
        assert hit.identity() == result.identity()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.memory_hits == 1 and stats.disk_hits == 0
        assert 0.0 < stats.hit_rate < 1.0

    def test_eviction_counted(self, solved):
        key, result = solved
        cache = SolveCache(maxsize=1)
        cache.put(key, result)
        cache.put(dataclasses.replace(key, solver_name="other"), result)
        assert cache.stats.evictions == 1
        assert len(cache) == 1

    def test_memory_only_cache_pickles_to_a_fresh_cache(self, solved):
        key, result = solved
        cache = SolveCache(maxsize=17)
        cache.put(key, result)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 17 and clone.directory is None
        assert clone.get(key) is None  # per-process layer starts cold


class TestSolveCacheDisk:
    def test_round_trip_and_promotion(self, tmp_path, solved):
        key, result = solved
        first = SolveCache(directory=tmp_path / "store")
        first.put(key, result)
        # a different process/session: fresh memory, same directory
        second = SolveCache(directory=tmp_path / "store")
        hit = second.get(key)
        assert hit is not None and hit.cache_hit is True
        assert hit.identity() == result.identity()
        assert second.stats.disk_hits == 1
        second.get(key)
        assert second.stats.memory_hits == 1  # promoted after the disk hit

    def test_version_bump_invalidates(self, tmp_path, solved):
        key, result = solved
        cache = SolveCache(directory=tmp_path / "store")
        cache.put(key, result)
        bumped = dataclasses.replace(key, solver_version="2")
        assert SolveCache(directory=tmp_path / "store").get(bumped) is None

    def test_corrupt_or_foreign_blobs_read_as_misses(self, tmp_path, solved):
        key, result = solved
        store = DiskCacheStore(tmp_path / "store")
        path = store.put(key, result)
        blob = json.loads(path.read_text())

        path.write_text("{ not json")
        assert store.get(key) is None

        blob["instance_hash"] = "0" * 64  # key mismatch (hand-moved blob)
        path.write_text(json.dumps(blob))
        assert store.get(key) is None

        blob["instance_hash"] = key.instance_hash
        blob["schema"] = 999  # unknown format version
        path.write_text(json.dumps(blob))
        assert store.get(key) is None

        path.write_text("[1, 2, 3]")  # valid JSON, but not an object
        assert store.get(key) is None

        blob["schema"] = 1
        blob["result"]["mapping"] = 5  # wrong-typed result field
        path.write_text(json.dumps(blob))
        assert store.get(key) is None

    def test_unwritable_store_degrades_to_not_stored(self, tmp_path, solved):
        """A broken shared --cache-dir must never crash a run.

        Simulated with a plain file squatting on the shard directory the
        blob needs (mkdir then raises, for root and mortals alike).
        """
        key, result = solved
        target = tmp_path / "store"
        target.mkdir()
        (target / key.digest[:2]).write_text("not a directory")
        store = DiskCacheStore(target)
        assert store.put(key, result) is None
        assert store.get(key) is None
        cache = SolveCache(directory=target)
        cache.put(key, result)  # must not raise
        assert cache.get(key) is not None  # still served from memory

    def test_disk_cache_pickles_by_directory(self, tmp_path, solved):
        key, result = solved
        cache = SolveCache(directory=tmp_path / "store")
        cache.put(key, result)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get(key).identity() == result.identity()


class TestFrontierDocumentCache:
    def test_round_trip_and_isolation(self, instance, solved):
        _, result = solved
        key = frontier_key(
            instance.application,
            instance.platform,
            get_solver("H1"),
            "min-latency-fixed-period",
        )
        doc = {"schema": 1, "iterates": [{"period": 9.0, "latency": 20.0}]}
        cache = SolveCache()
        assert cache.get_frontier(key) is None
        cache.put_frontier(key, doc)
        doc["iterates"].append({"period": 1.0})  # caller mutation after put
        got = cache.get_frontier(key)
        assert got == {"schema": 1, "iterates": [{"period": 9.0, "latency": 20.0}]}
        got["iterates"].clear()  # caller mutation after get
        assert cache.get_frontier(key)["iterates"]

    def test_frontier_documents_persist_on_disk(self, tmp_path, instance):
        key = frontier_key(
            instance.application,
            instance.platform,
            get_solver("H1"),
            "min-latency-fixed-period",
        )
        doc = {"schema": 1, "iterates": []}
        SolveCache(directory=tmp_path / "store").put_frontier(key, doc)
        # a different process/session: fresh memory, same directory
        assert SolveCache(directory=tmp_path / "store").get_frontier(key) == doc

    def test_frontier_and_result_blobs_share_a_store_safely(
        self, tmp_path, instance, solved
    ):
        result_key, result = solved
        fkey = frontier_key(
            instance.application,
            instance.platform,
            get_solver("H1"),
            "min-latency-fixed-period",
        )
        cache = SolveCache(directory=tmp_path / "store")
        cache.put(result_key, result)
        cache.put_frontier(fkey, {"schema": 1})
        fresh = SolveCache(directory=tmp_path / "store")
        assert fresh.get_frontier(result_key) is None  # wrong kind: a miss
        assert fresh.get_frontier(fkey) == {"schema": 1}
        assert fresh.get(result_key).identity() == result.identity()


class TestPruneCacheDir:
    def _fill(self, tmp_path, solved, n: int = 4):
        """``n`` blobs with strictly increasing mtimes; returns their keys."""
        import os

        key, result = solved
        store = DiskCacheStore(tmp_path / "store")
        keys = [
            dataclasses.replace(key, instance_hash=f"{i:02x}" * 32)
            for i in range(n)
        ]
        for i, k in enumerate(keys):
            path = store.put(k, result)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return store, keys

    def test_oldest_blobs_are_evicted_first(self, tmp_path, solved):
        store, keys = self._fill(tmp_path, solved)
        sizes = [store.path_for(k).stat().st_size for k in keys]
        budget = sizes[-2] + sizes[-1]  # room for exactly the two newest
        n_kept, n_removed, bytes_kept = prune_cache_dir(
            tmp_path / "store", budget
        )
        assert (n_kept, n_removed) == (2, 2)
        assert bytes_kept == budget
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[2]) is not None and store.get(keys[3]) is not None

    def test_under_budget_removes_nothing(self, tmp_path, solved):
        store, keys = self._fill(tmp_path, solved)
        n_kept, n_removed, _ = prune_cache_dir(tmp_path / "store", 10**9)
        assert (n_kept, n_removed) == (len(keys), 0)
        assert all(store.get(k) is not None for k in keys)

    def test_zero_budget_removes_everything(self, tmp_path, solved):
        store, keys = self._fill(tmp_path, solved)
        n_kept, n_removed, bytes_kept = prune_cache_dir(tmp_path / "store", 0)
        assert (n_kept, n_removed, bytes_kept) == (0, len(keys), 0)
        assert all(store.get(k) is None for k in keys)

    def test_negative_budget_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            prune_cache_dir(tmp_path / "store", -1)

    def test_missing_directory_is_empty(self, tmp_path):
        assert prune_cache_dir(tmp_path / "nowhere", 100) == (0, 0, 0)

    def test_corrupt_blobs_are_counted_and_evictable(self, tmp_path, solved):
        """Pruning never parses blobs: garbage is just bytes to reclaim."""
        import os

        store, keys = self._fill(tmp_path, solved, n=2)
        junk = tmp_path / "store" / "zz" / "junk.json"
        junk.parent.mkdir()
        junk.write_text("{ not json at all")
        os.utime(junk, (999_999, 999_999))  # older than every real blob
        sizes = [store.path_for(k).stat().st_size for k in keys]
        n_kept, n_removed, bytes_kept = prune_cache_dir(
            tmp_path / "store", sum(sizes)
        )
        # the corrupt (and oldest) blob went first; the real ones survive
        assert (n_kept, n_removed) == (2, 1)
        assert not junk.exists()
        assert all(store.get(k) is not None for k in keys)
        # ... and a corrupt survivor still reads as a miss, never as wrong
        store.path_for(keys[0]).write_text("{ not json")
        assert store.get(keys[0]) is None

    def test_blobs_vanishing_or_corrupt_mid_prune(self, tmp_path, solved, monkeypatch):
        """Faults injected into one prune: a corrupt blob, a blob deleted
        between the scan's glob and its ``stat``, and one deleted between
        the ``stat`` and the ``unlink`` (both as a concurrent pruner would).
        """
        import os
        from pathlib import Path

        store, keys = self._fill(tmp_path, solved, n=5)
        corrupt = store.path_for(keys[4])  # the newest: it survives the prune
        corrupt.write_text("{ not json")
        os.utime(corrupt, (1_000_004, 1_000_004))
        before_stat = store.path_for(keys[2]).name
        before_unlink = store.path_for(keys[0]).name
        sizes = {k: store.path_for(k).stat().st_size for k in keys}
        stat, unlink = Path.stat, Path.unlink
        fired = []

        def vanishing_stat(self, *args, **kwargs):
            if self.name == before_stat and os.path.exists(self):
                os.remove(self)
                fired.append("stat")
            return stat(self, *args, **kwargs)

        def vanishing_unlink(self, missing_ok=False):
            if self.name == before_unlink:
                os.remove(self)
                fired.append("unlink")
            return unlink(self, missing_ok=missing_ok)

        budget = sizes[keys[3]] + sizes[keys[4]]
        with monkeypatch.context() as patch:
            patch.setattr(Path, "stat", vanishing_stat)
            patch.setattr(Path, "unlink", vanishing_unlink)
            n_kept, n_removed, bytes_kept = prune_cache_dir(tmp_path / "store", budget)
        assert sorted(fired) == ["stat", "unlink"]
        # keys[2] was never seen; keys[0] (gone already) and keys[1] count as removed
        assert (n_kept, n_removed, bytes_kept) == (2, 2, budget)
        on_disk = sorted((tmp_path / "store").glob("*/*.json"))
        assert [path.name for path in on_disk] == sorted(
            store.path_for(k).name for k in keys[3:]
        )
        assert sum(path.stat().st_size for path in on_disk) == bytes_kept
        cache = SolveCache(directory=tmp_path / "store")
        assert cache.get(keys[4]) is None  # corrupt: a miss, never wrong
        assert cache.get(keys[3]) is not None
        assert (cache.stats.misses, cache.stats.disk_hits) == (1, 1)


class TestSolveWithCache:
    def test_second_call_is_served_from_the_cache(self, instance):
        cache = SolveCache()
        request = SolveRequest.fixed_period(9.0)
        app, platform = instance.application, instance.platform
        cold = solve_with_cache("H1", app, platform, request, cache)
        warm = solve_with_cache("H1", app, platform, request, cache)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.identity() == warm.identity()
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_adhoc_heuristics_are_never_cached(self, instance):
        cache = SolveCache()
        request = SolveRequest.fixed_period(9.0)
        heuristic = get_heuristic("H1")  # ad-hoc wrap: one name, any config
        first = solve_with_cache(
            heuristic, instance.application, instance.platform, request, cache
        )
        second = solve_with_cache(
            heuristic, instance.application, instance.platform, request, cache
        )
        assert not first.cache_hit and not second.cache_hit
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_no_cache_means_plain_solve(self, instance):
        request = SolveRequest.fixed_period(9.0)
        result = solve_with_cache(
            "H1", instance.application, instance.platform, request, None
        )
        assert not result.cache_hit and result.solver == "Sp mono P"


class TestThreadSafety:
    """The cache is shared between the daemon's event loop and its solver
    threads; unguarded ``stats.x += 1`` read-modify-writes (and concurrent
    LRU reordering) used to drop increments under that interleaving.  The
    accounting must be *exact*, not approximately right."""

    def _hammer(self, work, n_threads: int = 8):
        import sys
        import threading

        # preempt as aggressively as the interpreter allows: the drift bug
        # is a lost-update race, so shrink the race window's grain
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(n_threads)

            def runner(tid: int) -> None:
                barrier.wait()
                work(tid)

            threads = [
                threading.Thread(target=runner, args=(tid,))
                for tid in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)

    def test_lookup_counters_are_exact_under_concurrency(self, solved):
        import random

        key, result = solved
        cache = SolveCache(maxsize=8)
        keys = [
            dataclasses.replace(key, instance_hash=f"{i:02x}" * 32)
            for i in range(16)
        ]
        for k in keys:
            cache.put(k, result)
        n_threads, n_rounds = 8, 400

        def work(tid: int) -> None:
            rng = random.Random(tid)
            for _ in range(n_rounds):
                cache.get(rng.choice(keys))

        self._hammer(work, n_threads)
        snap = cache.stats_snapshot()
        assert snap["hits"] + snap["misses"] == n_threads * n_rounds
        assert snap["memory_hits"] == snap["hits"]
        assert snap["hit_rate"] == snap["hits"] / (n_threads * n_rounds)

    def test_store_counters_are_exact_under_concurrency(self, solved):
        key, result = solved
        cache = SolveCache(maxsize=4)
        n_threads, n_rounds = 8, 200

        def work(tid: int) -> None:
            for i in range(n_rounds):
                mine = dataclasses.replace(
                    key, instance_hash=f"{tid:02x}{i:06x}" * 8
                )
                cache.put(mine, result)
                cache.get(mine)

        self._hammer(work, n_threads)
        snap = cache.stats_snapshot()
        assert snap["stores"] == n_threads * n_rounds
        assert snap["hits"] + snap["misses"] == n_threads * n_rounds
        # LRU bound holds despite concurrent reordering
        assert len(cache) <= 4
        assert snap["evictions"] == snap["stores"] - len(cache)

    def test_snapshot_is_a_consistent_copy(self, solved):
        key, result = solved
        cache = SolveCache()
        cache.put(key, result)
        snap = cache.stats_snapshot()
        cache.get(key)
        assert snap["hits"] == 0  # a copy, not a live view
        assert cache.stats_snapshot()["hits"] == 1
