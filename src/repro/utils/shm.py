"""Ship-once instance transport for process pools.

The batch service and the workload engine hand a process pool thousands of
tasks that reference a *small* set of unique ``(application, platform)``
instances.  The historical transport pickled both objects into every task
tuple, shipping each instance to each worker once per task.  This module
replaces that with an **instance arena**:

* the parent collects each unique instance's canonical JSON payloads
  (:func:`repro.core.identity.application_payload` /
  :func:`~repro.core.identity.platform_payload` — exact by construction:
  JSON floats use the shortest round-trip repr) plus the display names into
  one :class:`InstanceShipment` catalog;
* tasks carry an :class:`InstanceRef` — a digest string — instead of the
  objects;
* the shipment is the map's ``payload``: :mod:`repro.utils.parallel`
  pickles it once per map, every chunk carries the bytes, and a warm
  worker installs it only when they differ from the shipment it already
  holds;
* each worker rehydrates every digest **at most once** per installed
  shipment, memoising the pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "InstanceRef",
    "InstanceShipment",
    "InstanceArena",
    "resolve_instance",
    "worker_attach_counts",
]


@dataclass(frozen=True)
class InstanceRef:
    """A task-sized stand-in for an ``(application, platform)`` pair.

    Pickles as one short string; workers resolve it against the installed
    :class:`InstanceShipment` via :func:`resolve_instance`.
    """

    digest: str


@dataclass(frozen=True)
class InstanceShipment:
    """The per-worker catalog of an arena (a map's ``payload``).

    ``catalog`` maps each instance digest to ``(app_payload,
    platform_payload, app_name, platform_name)``; ``size`` is the total
    payload bytes.  Display names ride along because the canonical payloads
    are deliberately name-free and pooled reports must stay byte-identical
    to serial ones.
    """

    size: int
    catalog: dict[str, tuple[bytes, bytes, str, str]]

    def install(self) -> None:
        """Make this shipment the process-wide resolver state."""
        global _STATE
        _STATE = _ResolverState(shipment=self)


class InstanceArena:
    """Parent-side publisher of unique instances for one pooled run."""

    def __init__(
        self, pairs: Iterable[tuple["PipelineApplication", "Platform"]]
    ) -> None:
        from ..core.identity import application_payload, instance_digest, platform_payload

        catalog: dict[str, tuple[bytes, bytes, str, str]] = {}
        size = 0
        for app, platform in pairs:
            digest = instance_digest(app, platform)
            if digest in catalog:
                continue
            app_blob = application_payload(app)
            plat_blob = platform_payload(platform)
            catalog[digest] = (app_blob, plat_blob, app.name, platform.name)
            size += len(app_blob) + len(plat_blob)
        self._shipment = InstanceShipment(size=size, catalog=catalog)

    @property
    def n_instances(self) -> int:
        return len(self._shipment.catalog)

    def ref(self, app: "PipelineApplication", platform: "Platform") -> InstanceRef:
        """The ref of a published instance (KeyError if never published)."""
        from ..core.identity import instance_digest

        digest = instance_digest(app, platform)
        if digest not in self._shipment.catalog:
            raise KeyError(f"instance {digest[:12]}… was not published in this arena")
        return InstanceRef(digest)

    def shipment(self) -> InstanceShipment:
        """The catalog to hand the pool as the map's ``payload``."""
        return self._shipment


# --------------------------------------------------------------------------- #
# worker-side resolver state
# --------------------------------------------------------------------------- #
@dataclass
class _ResolverState:
    shipment: InstanceShipment
    cache: dict = field(default_factory=dict)
    attach_counts: dict = field(default_factory=dict)


_STATE: _ResolverState | None = None


def resolve_instance(item: object) -> object:
    """Resolve an :class:`InstanceRef` to its pair; pass anything else through.

    Each digest is rehydrated at most once per process — later refs to the
    same instance return the memoised objects.
    """
    if not isinstance(item, InstanceRef):
        return item
    state = _STATE
    if state is None:
        raise RuntimeError(
            "no instance shipment installed in this process; "
            "pass the arena's shipment() as the parallel_map payload"
        )
    pair = state.cache.get(item.digest)
    if pair is not None:
        return pair

    from ..core.serialization import application_from_dict, platform_from_dict

    entry = state.shipment.catalog.get(item.digest)
    if entry is None:
        raise KeyError(f"instance {item.digest[:12]}… is not in the shipment catalog")
    app_blob, plat_blob, app_name, plat_name = entry
    app_doc = json.loads(app_blob)
    plat_doc = json.loads(plat_blob)
    app_doc["name"] = app_name
    plat_doc["name"] = plat_name
    pair = (application_from_dict(app_doc), platform_from_dict(plat_doc))
    state.cache[item.digest] = pair
    state.attach_counts[item.digest] = state.attach_counts.get(item.digest, 0) + 1
    return pair


def worker_attach_counts() -> dict[str, int]:
    """Per-digest rehydration counts of this process (instrumentation).

    The ship-at-most-once contract says every value is exactly 1 no matter
    how many tasks referenced the digest; the transport tests assert this
    from inside pool workers.
    """
    if _STATE is None:
        return {}
    return dict(_STATE.attach_counts)
