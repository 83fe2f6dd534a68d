"""Per-instance derived tables, shared inside one re-entrant scope.

Several solvers derive tables from an (application, platform) pair that a
batch of solves then asks about again and again:

* the heuristics' ranked two-way split candidates
  (:mod:`repro.heuristics.engine`), one ranking per split key;
* the heuristics' trajectory tries (:func:`repro.heuristics.engine.trajectory`),
  one per (selection rule, split width, processor order): the states every
  heuristic's walks reach, each built once and shared by every threshold;
* the brute-force solvers' evaluated enumeration
  (:mod:`repro.exact.brute_force`), one period and one latency column per
  interval mapping;
* the bitmask DP's outcomes (:mod:`repro.exact.dp_bitmask`), one per period
  bucket.

They all live in one :func:`instance_tables` scope, in an
:class:`InstanceTables` entry keyed by the ``(id(application),
id(platform))`` object pair.  The entry holds both objects, so an id cannot
be recycled for another instance while the entry lives.  Tables are
**scoped, not cached**: they are never attached to the instance objects and
never part of an identity or cache key, and they are dropped when the
outermost scope exits.  Outside any scope :func:`tables_for` hands out a
private entry that nothing else sees.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .application import PipelineApplication
    from .platform import Platform

__all__ = ["InstanceTables", "instance_tables", "tables_for"]


class InstanceTables:
    """The derived tables of one (application, platform) pair.

    ``split_rankings`` maps a heuristic split key to its ranking;
    ``trajectories`` maps ``(rule, width, order)`` to the root of its
    trajectory trie; ``brute_force`` and ``bitmask`` are filled by the
    exact solvers on their first call.  Nothing stored here may reference the entry
    itself: a cycle would keep the tables alive past their scope.
    """

    __slots__ = (
        "app", "platform", "split_rankings", "trajectories", "brute_force", "bitmask",
        "__weakref__",
    )

    def __init__(self, app: "PipelineApplication", platform: "Platform") -> None:
        self.app = app
        self.platform = platform
        self.split_rankings: dict[tuple, Any] = {}
        self.trajectories: dict[tuple, Any] = {}
        self.brute_force: Any = None
        self.bitmask: Any = None


#: the open scope's entries, keyed by ``(id(application), id(platform))``
_TABLES: ContextVar[dict[tuple[int, int], InstanceTables] | None] = ContextVar(
    "repro_instance_tables", default=None
)


@contextmanager
def instance_tables() -> Iterator[dict[tuple[int, int], InstanceTables]]:
    """Share instance tables between the solves inside the block.

    Re-entrant: a nested scope joins the outer one, so the tables live as
    long as the outermost block and are dropped when it exits.  Yields the
    scope's registry.
    """
    registry = _TABLES.get()
    if registry is not None:
        yield registry
        return
    registry = {}
    token = _TABLES.set(registry)
    try:
        yield registry
    finally:
        _TABLES.reset(token)


def tables_for(app: "PipelineApplication", platform: "Platform") -> InstanceTables:
    """The open scope's entry of ``(app, platform)``; a private one outside a scope."""
    registry = _TABLES.get()
    if registry is None:
        return InstanceTables(app, platform)
    key = (id(app), id(platform))
    entry = registry.get(key)
    if entry is None:
        entry = registry[key] = InstanceTables(app, platform)
    return entry
