"""The solve-cache stores: bounded in-memory LRU, optional on-disk blobs.

Three classes, layered:

* :class:`InMemoryLRUCache` — a bounded ``OrderedDict`` keyed by the cache
  key digest; the cheapest possible hit (one dictionary lookup) and the
  store of choice inside a single process;
* :class:`DiskCacheStore` — one JSON blob per key digest under a cache
  directory, written atomically (temp file + ``os.replace``) so concurrent
  writers — e.g. the worker processes of a parallel fuzz run sharing one
  ``--cache-dir`` — can never expose a half-written blob.  Blobs carry the
  full key, which is verified on load; an unreadable or mismatching blob is
  treated as a miss, never as an error (a cache must degrade, not crash);
* :class:`SolveCache` — the facade the rest of the repository passes
  around: LRU in front, disk behind (when a directory is given), one
  :class:`CacheStats` counter block.  It pickles by configuration
  (``maxsize``, ``directory``), so handing a cache to the process pool
  re-attaches workers to the shared directory while the in-memory layer
  stays per-process.  ``get``/``put`` and the counters are guarded by one
  lock, so a cache shared between threads — the solver daemon's event loop
  and its executor threads — neither drops counter increments nor corrupts
  the LRU order; :meth:`SolveCache.stats_snapshot` reads a consistent
  counter block for the daemon's ``/stats`` payload, and
  :meth:`SolveCache.get_memory` probes the memory tier alone, for a caller
  that must never block on file I/O (the daemon's event loop).

Results go in exactly once and come back out stamped ``cache_hit=True``;
everything else about them — including the original ``wall_time`` — is the
byte-stable :func:`~repro.core.serialization.solve_result_to_dict` round
trip, so a warm replay has the same :meth:`~repro.solvers.base.SolveResult.
identity` as the cold solve it memoised.
"""

from __future__ import annotations

import copy
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Hashable

from ..core.serialization import solve_result_from_dict, solve_result_to_dict
from .keys import CacheKey

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..solvers.base import SolveResult

__all__ = [
    "CACHE_BLOB_SCHEMA",
    "CacheStats",
    "InMemoryLRUCache",
    "DiskCacheStore",
    "SolveCache",
    "prune_cache_dir",
]

#: current on-disk blob format version (unknown versions are misses)
CACHE_BLOB_SCHEMA = 1

#: default capacity of the in-memory layer
_DEFAULT_MAXSIZE = 4096


@dataclass
class CacheStats:
    """Counters of one cache: how often it helped and what it cost."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    memory_hits: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot (counters plus the derived hit rate)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hit_rate": self.hit_rate,
        }


class InMemoryLRUCache:
    """Bounded least-recently-used map, here from key digests to results.

    Nothing in it is specific to results: the daemon's table of decoded
    instances and the client's memo of encoded ones are built on it too.
    Values must not be ``None`` (that is what :meth:`get` returns on a miss).
    """

    def __init__(self, maxsize: int = _DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: Hashable) -> bool:
        return digest in self._entries

    def get(self, digest: Hashable) -> Any:
        """Look up a digest; a hit refreshes its recency."""
        result = self._entries.get(digest)
        if result is not None:
            self._entries.move_to_end(digest)
        return result

    def put(self, digest: Hashable, result: Any) -> int:
        """Insert (or refresh) an entry; returns how many were evicted."""
        self._entries[digest] = result
        self._entries.move_to_end(digest)
        evicted = 0
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()


class DiskCacheStore:
    """Content-addressed JSON blobs under a directory, one per key digest.

    Blobs are sharded into 256 sub-directories by digest prefix (the usual
    object-store layout) and written atomically, so a directory can be
    shared by concurrent processes.  The embedded key is verified on load:
    a blob that cannot be read, parsed or matched is a miss.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path_for(self, key: CacheKey) -> Path:
        """Where a key's blob lives (whether or not it exists yet)."""
        digest = key.digest
        return self.directory / digest[:2] / f"{digest}.json"

    def get(self, key: CacheKey) -> "SolveResult | None":
        path = self.path_for(key)
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(blob, dict) or blob.get("schema") != CACHE_BLOB_SCHEMA:
                return None
            if (
                blob.get("instance_hash") != key.instance_hash
                or blob.get("solver_name") != key.solver_name
                or blob.get("solver_version") != key.solver_version
                or blob.get("request_digest") != key.request_digest
            ):
                return None
            return solve_result_from_dict(blob["result"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # missing, corrupt or foreign blob: a miss, never a crash
            # (TypeError/AttributeError cover wrong-typed fields inside an
            # otherwise well-formed JSON document)
            return None

    def put(self, key: CacheKey, result: "SolveResult") -> Path | None:
        """Persist a result blob atomically; returns the blob path.

        Storage failures (full disk, permissions on a shared directory)
        degrade to "not stored" — ``None`` — by the same contract as
        :meth:`get`: a cache must degrade, not crash, and must never turn
        into a spurious solver failure in the callers' exception handling.
        """
        path = self.path_for(key)
        blob = {
            "schema": CACHE_BLOB_SCHEMA,
            "instance_hash": key.instance_hash,
            "solver_name": key.solver_name,
            "solver_version": key.solver_version,
            "request_digest": key.request_digest,
            "result": solve_result_to_dict(result),
        }
        # unique temp name per writer + atomic rename: concurrent workers
        # racing on the same key both succeed, last writer wins whole blobs
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(blob, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        return path

    # ------------------------------------------------------------------ #
    # raw JSON payloads (frontier documents)
    # ------------------------------------------------------------------ #
    def get_document(self, key: CacheKey) -> dict[str, Any] | None:
        """Load a raw JSON payload stored under ``key`` (``None`` on miss).

        Same degradation contract as :meth:`get`: unreadable, corrupt or
        foreign blobs are misses.  Payload blobs carry the key under the
        same embedded fields as result blobs, so pruning and sharing one
        directory work uniformly.
        """
        path = self.path_for(key)
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(blob, dict) or blob.get("schema") != CACHE_BLOB_SCHEMA:
                return None
            if (
                blob.get("instance_hash") != key.instance_hash
                or blob.get("solver_name") != key.solver_name
                or blob.get("solver_version") != key.solver_version
                or blob.get("request_digest") != key.request_digest
            ):
                return None
            payload = blob["payload"]
            return payload if isinstance(payload, dict) else None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put_document(self, key: CacheKey, payload: dict[str, Any]) -> Path | None:
        """Persist a raw JSON payload atomically (``None`` on storage failure)."""
        path = self.path_for(key)
        blob = {
            "schema": CACHE_BLOB_SCHEMA,
            "instance_hash": key.instance_hash,
            "solver_name": key.solver_name,
            "solver_version": key.solver_version,
            "request_digest": key.request_digest,
            "payload": payload,
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(blob, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        return path

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


class SolveCache:
    """The solve cache handed around the repository: LRU + optional disk.

    Parameters
    ----------
    maxsize:
        Capacity of the in-memory LRU layer.
    directory:
        When given, every stored result is also persisted as a
        content-addressed JSON blob under this directory, and misses fall
        through to it (a disk hit is promoted into the LRU).  The directory
        outlives the process: a second run — or a worker process handed
        this cache through the pool — starts warm.
    """

    def __init__(
        self,
        maxsize: int = _DEFAULT_MAXSIZE,
        directory: str | Path | None = None,
    ) -> None:
        self.maxsize = int(maxsize)
        self.directory = None if directory is None else Path(directory)
        self._memory = InMemoryLRUCache(maxsize)
        self._disk = None if directory is None else DiskCacheStore(directory)
        self.stats = CacheStats()
        # one lock over lookup/store and the counters: the cache is shared
        # between the daemon's event loop and its executor threads, and
        # unguarded `stats.x += 1` read-modify-writes drop increments under
        # that interleaving (as does concurrent OrderedDict reordering)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def get(self, key: CacheKey) -> "SolveResult | None":
        """The memoised result for ``key`` (stamped ``cache_hit=True``), or None."""
        hit = self.get_memory(key)
        if hit is not None:
            return hit
        # the disk probe (file I/O, JSON decode) runs outside the lock so a
        # slow read never serialises the in-memory fast path of other threads
        if self._disk is None:
            with self._lock:
                self.stats.misses += 1
            return None
        result = self._disk.get(key)
        with self._lock:
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            self.stats.hits += 1
            # promote: the next lookup is a dictionary hit
            self.stats.evictions += self._memory.put(key.digest, result)
        return replace(result, cache_hit=True)

    def get_memory(self, key: CacheKey) -> "SolveResult | None":
        """:meth:`get` restricted to the memory tier: no disk I/O, ever.

        The daemon's event loop answers hits through here.  A hit is
        counted; a miss is not, because the caller goes on to :meth:`get`
        (or to nothing, when the request joins an in-flight solve), so each
        lookup is counted exactly once.
        """
        with self._lock:
            result = self._memory.get(key.digest)
            # isinstance guard: frontier documents (plain dicts) share the
            # LRU under disjoint digests; a mixed-up key must miss, not crash
            if result is None or isinstance(result, dict):
                return None
            self.stats.memory_hits += 1
            self.stats.hits += 1
        return replace(result, cache_hit=True)

    def put(self, key: CacheKey, result: "SolveResult") -> None:
        """Memoise a freshly solved result under ``key``."""
        stored = replace(result, cache_hit=False)
        with self._lock:
            self.stats.evictions += self._memory.put(key.digest, stored)
            self.stats.stores += 1
        if self._disk is not None:
            self._disk.put(key, stored)

    # ------------------------------------------------------------------ #
    # frontier documents (raw JSON payloads under threshold-free keys)
    # ------------------------------------------------------------------ #
    def get_frontier(self, key: CacheKey) -> dict[str, Any] | None:
        """The memoised frontier document for ``key``, or ``None``.

        The returned document is a private deep copy, so no caller can
        alter the stored one that other readers share.
        """
        digest = key.digest
        with self._lock:
            document = self._memory.get(digest)
            if isinstance(document, dict):
                self.stats.memory_hits += 1
                self.stats.hits += 1
                return copy.deepcopy(document)
        if self._disk is None:
            with self._lock:
                self.stats.misses += 1
            return None
        document = self._disk.get_document(key)
        with self._lock:
            if document is None:
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            self.stats.hits += 1
            self.stats.evictions += self._memory.put(digest, document)
        return copy.deepcopy(document)

    def put_frontier(self, key: CacheKey, document: dict[str, Any]) -> None:
        """Memoise a frontier document under its threshold-free key."""
        stored = copy.deepcopy(document)
        with self._lock:
            self.stats.evictions += self._memory.put(key.digest, stored)
            self.stats.stores += 1
        if self._disk is not None:
            self._disk.put_document(key, stored)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched).

        Facade shortcut for :attr:`CacheStats.hit_rate`, so call sites
        reporting cache effectiveness (the CLI's stderr summaries, the
        benchmarks) need not reach into :attr:`stats`.
        """
        return self.stats.hit_rate

    def stats_snapshot(self) -> dict[str, Any]:
        """A consistent :meth:`CacheStats.as_dict` taken under the lock.

        Reading the counters field by field while another thread updates
        them can observe a torn view (e.g. ``hits`` bumped but ``lookups``
        not yet); the daemon's ``/stats`` endpoint reads through here.
        """
        with self._lock:
            return self.stats.as_dict()

    def __len__(self) -> int:
        """Entries resident in the in-memory layer."""
        with self._lock:
            return len(self._memory)

    def clear(self) -> None:
        """Drop the in-memory layer (the disk store, if any, is kept)."""
        with self._lock:
            self._memory.clear()

    def describe(self) -> str:
        """One-line summary of configuration and counters."""
        backing = "memory-only" if self.directory is None else str(self.directory)
        s = self.stats
        return (
            f"solve cache [{backing}, maxsize={self.maxsize}]: "
            f"{s.hits} hit(s) ({s.memory_hits} memory, {s.disk_hits} disk), "
            f"{s.misses} miss(es), {s.stores} store(s), "
            f"{s.evictions} eviction(s), hit rate {s.hit_rate:.1%}"
        )

    def __repr__(self) -> str:
        backing = "None" if self.directory is None else repr(str(self.directory))
        return f"SolveCache(maxsize={self.maxsize}, directory={backing})"

    # pickling: by configuration.  A disk-backed cache re-attaches to the
    # shared directory in the worker; the in-memory layer is per-process.
    def __reduce__(self):
        directory = None if self.directory is None else str(self.directory)
        return (SolveCache, (self.maxsize, directory))


# --------------------------------------------------------------------------- #
# disk-store hygiene
# --------------------------------------------------------------------------- #
def prune_cache_dir(
    directory: str | Path, max_bytes: int
) -> tuple[int, int, int]:
    """Evict oldest blobs until a cache directory fits under ``max_bytes``.

    Frontier documents are much bigger than single-result blobs, so a
    long-lived shared ``--cache-dir`` needs a bound.  Blobs are removed
    oldest-modification-first, one atomic ``unlink`` each, so concurrent
    readers see either a whole blob or a plain miss — never a torn one.
    Blobs are *never parsed*: a corrupt blob is just bytes to reclaim, and
    a blob deleted under our feet (a concurrent pruner) is counted as
    already gone.  Stray ``*.tmp`` files from crashed writers are ignored
    here — :class:`DiskCacheStore` replaces them on the next write.

    Returns ``(n_kept, n_removed, bytes_kept)``.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    root = Path(directory)
    entries: list[tuple[float, int, Path]] = []
    if root.is_dir():
        for path in root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # removed by a concurrent pruner/writer
            entries.append((stat.st_mtime, stat.st_size, path))
    # oldest first; ties broken by path so concurrent pruners agree
    entries.sort(key=lambda item: (item[0], str(item[2])))
    total = sum(size for _, size, _ in entries)
    n_removed = 0
    index = 0
    while total > max_bytes and index < len(entries):
        _, size, path = entries[index]
        index += 1
        try:
            path.unlink(missing_ok=True)
        except OSError:
            continue  # un-removable blob: skip it, keep pruning the rest
        total -= size
        n_removed += 1
    return len(entries) - n_removed, n_removed, total
