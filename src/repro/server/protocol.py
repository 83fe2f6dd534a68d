"""Wire format of the solver daemon: one JSON document per line.

The protocol is deliberately minimal — newline-delimited JSON over a unix
socket — so any language (or ``socat`` in a shell) can speak it.  Every
line is a single JSON object; requests carry a client-chosen ``id`` that
the server echoes on every response belonging to that request, so one
connection can have several requests in flight.

Client → server operations:

``{"op": "solve", "id": 1, "task": TASK}``
    One solve task; answered by one ``result`` line.
``{"op": "batch", "id": 2, "tasks": [TASK, ...]}``
    Many tasks; ``result`` lines **stream back as tasks complete** (each
    carries its ``index`` into the request's task list), terminated by one
    ``done`` line with the request's accounting.
``{"op": "stats", "id": 3}``
    The daemon's counters (cache stats, in-flight, batch-size histogram).
``{"op": "ping", "id": 4}``
    Liveness probe; answered by a ``pong`` line.

``TASK`` bundles a serialised instance with a solver selection::

    {"instance": instance_to_dict(app, platform),
     "solver": "H1",
     "period_bound": 12.0, "latency_bound": null,
     "max_steps": null, "time_budget": null}

Server → client lines all carry ``id`` and a ``kind``: ``hello`` (sent once
on connect, before any request), ``result``, ``done``, ``stats``, ``pong``
and ``error``.  A ``result``'s ``disposition`` says how the daemon got it:
``solved``, ``cache`` (a memory-tier hit is answered before any queue) or
``coalesced``.  The daemon decodes each distinct ``instance`` document once
(:class:`InstanceTable`); the wire format is the same either way.

Results are the byte-stable
:func:`~repro.core.serialization.solve_result_to_dict` documents, so a
daemon response decodes into the *identical* solution a direct
:func:`~repro.solvers.service.solve_many` call returns (run provenance —
``wall_time``, ``cache_hit``, ``backend`` — aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from ..cache.store import InMemoryLRUCache
from ..core.exceptions import ReproError
from ..core.serialization import (
    instance_from_dict,
    instance_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..core.application import PipelineApplication
    from ..core.platform import Platform

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "InstanceTable",
    "SolveTaskSpec",
    "encode_line",
    "decode_line",
]

#: bumped on incompatible wire-format changes; the hello line carries it
PROTOCOL_VERSION = 1

#: upper bound on one protocol line (a batch request is many lines' worth
#: of tasks, but each task document is small; 32 MiB leaves room for very
#: large explicit batches while still bounding a malformed peer)
MAX_LINE_BYTES = 32 * 1024 * 1024

#: dispositions a result line may carry: how the daemon obtained the result
DISPOSITIONS = ("solved", "cache", "coalesced")

#: distinct wire instance documents an :class:`InstanceTable` keeps decoded
INSTANCE_TABLE_SIZE = 256


class ProtocolError(ReproError, ValueError):
    """A line that cannot be decoded into a valid protocol document."""


def encode_line(document: Mapping[str, Any]) -> bytes:
    """Serialise one protocol document to its wire line (newline included).

    Compact separators and sorted keys: the encoding of a given document is
    byte-stable, which the smoke tests' ``cmp`` checks rely on.
    """
    return (
        json.dumps(document, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a document (:class:`ProtocolError` if not)."""
    try:
        document = json.loads(line)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}")
    if not isinstance(document, dict):
        raise ProtocolError(
            f"protocol line must be a JSON object, got {type(document).__name__}"
        )
    return document


def _decode_instance(
    document: Mapping[str, Any],
) -> tuple["PipelineApplication", "Platform"]:
    """The (application, platform) of a wire instance (:class:`ProtocolError`)."""
    try:
        app, platform, _ = instance_from_dict(document)
    except (ReproError, ValueError, TypeError) as exc:
        raise ProtocolError(f"task instance does not deserialise: {exc}")
    return app, platform


class InstanceTable:
    """Bounded LRU of decoded wire instances, keyed by their canonical text.

    The key is the sorted-key compact JSON of the whole ``instance``
    document, display names included, and only the holder of the table
    fills it from documents it decoded itself, so nothing a peer sends is
    trusted beyond its bytes.  A repeated instance comes back as the very
    objects decoded the first time, with their canonical payloads (and so
    their digests) already cached on them.  A document that does not decode
    raises :class:`ProtocolError` and is never stored.
    """

    def __init__(self, maxsize: int = INSTANCE_TABLE_SIZE) -> None:
        self._entries = InMemoryLRUCache(maxsize)

    def __len__(self) -> int:
        return len(self._entries)

    def decode(
        self, document: Mapping[str, Any]
    ) -> tuple["PipelineApplication", "Platform"]:
        """The (application, platform) of ``document``, decoded at most once."""
        text = json.dumps(document, separators=(",", ":"), sort_keys=True)
        pair = self._entries.get(text)
        if pair is None:
            pair = _decode_instance(document)
            self._entries.put(text, pair)
        return pair


@dataclass(frozen=True)
class SolveTaskSpec:
    """One solve task as it travels over the wire.

    The solver is referenced by registry name and the bounds are raw — the
    daemon rebuilds the exact :class:`~repro.solvers.base.SolveRequest` via
    :meth:`~repro.solvers.registry.Solver.default_request`, the same path
    :func:`~repro.solvers.service.solve_many` takes, so a request solved
    through the daemon and one solved directly are the same pure function
    application.
    """

    application: "PipelineApplication"
    platform: "Platform"
    solver: str
    period_bound: float | None = None
    latency_bound: float | None = None
    max_steps: int | None = None
    time_budget: float | None = None

    def to_dict(self, instance: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The wire document of this task.

        ``instance`` is this task's already encoded instance document, for
        callers that memoise it; by default it is encoded afresh.
        """
        if instance is None:
            instance = instance_to_dict(self.application, self.platform)
        return {
            "instance": instance,
            "solver": self.solver,
            "period_bound": self.period_bound,
            "latency_bound": self.latency_bound,
            "max_steps": self.max_steps,
            "time_budget": self.time_budget,
        }

    @classmethod
    def from_dict(
        cls,
        document: Mapping[str, Any],
        instances: InstanceTable | None = None,
    ) -> "SolveTaskSpec":
        """Rebuild a task from its wire document (:class:`ProtocolError`).

        With an :class:`InstanceTable` a repeated instance is not decoded
        again; the table hands back the objects it decoded the first time.
        """
        if not isinstance(document, Mapping):
            raise ProtocolError(
                f"task must be a JSON object, got {type(document).__name__}"
            )
        instance = document.get("instance")
        if not isinstance(instance, Mapping):
            raise ProtocolError("task document is missing its 'instance' object")
        solver = document.get("solver")
        if not isinstance(solver, str) or not solver.strip():
            raise ProtocolError("task document needs a non-empty 'solver' name")
        if instances is None:
            app, platform = _decode_instance(instance)
        else:
            app, platform = instances.decode(instance)

        def _number(key: str) -> float | None:
            value = document.get(key)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError(f"task field {key!r} must be a number or null")
            return float(value)

        max_steps = document.get("max_steps")
        if max_steps is not None:
            if not isinstance(max_steps, int) or isinstance(max_steps, bool):
                raise ProtocolError("task field 'max_steps' must be an integer or null")
        return cls(
            application=app,
            platform=platform,
            solver=solver,
            period_bound=_number("period_bound"),
            latency_bound=_number("latency_bound"),
            max_steps=max_steps,
            time_budget=_number("time_budget"),
        )
