"""Synchronous client of the solver daemon.

:class:`ServiceClient` wraps one unix-socket connection: plain blocking
I/O (the daemon is the async side), one JSON document per line, request
ids allocated per client.  It is what ``repro client``, the smoke test and
the latency benchmark speak.

Each client encodes the wire ``instance`` document of an (application,
platform) pair once and reuses it for later tasks on the same objects (a
bounded memo keyed by object identity), so a repeated instance costs no
re-encoding; :meth:`ServiceClient.solve_batch` builds each task's wire
document once and takes its dedupe key from it.

Determinism contract: :meth:`ServiceClient.solve_batch` deduplicates
identical tasks **client-side** before anything hits the wire — mirroring
:func:`repro.solvers.service.solve_many`'s dedupe — and fans the daemon's
answers back out to every original position.  The reply's accounting
(``n_tasks``/``n_unique``) therefore depends only on the request, never on
which other clients were in flight, so a batch printed cold and a batch
printed against a warm daemon render byte-identically.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..cache.store import InMemoryLRUCache
from ..core.exceptions import ReproError
from ..core.serialization import instance_to_dict, solve_result_from_dict
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    SolveTaskSpec,
    decode_line,
    encode_line,
)

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..core.application import PipelineApplication
    from ..core.platform import Platform
    from ..solvers.base import SolveResult

__all__ = ["ServiceClient", "ServiceError", "BatchReply", "wait_for_server"]

#: (application, platform) pairs whose wire instance document a client keeps
INSTANCE_MEMO_SIZE = 256


class ServiceError(ReproError):
    """The daemon (or the transport to it) failed a client operation."""


@dataclass(frozen=True)
class BatchReply:
    """What one batch operation produced, in task order.

    ``results[i]`` answers ``tasks[i]`` of the request; ``dispositions``
    counts how the *unique* tasks were obtained server-side (informational
    — it may vary run to run with cache warmth and co-traffic, unlike the
    results themselves).
    """

    results: tuple["SolveResult", ...]
    n_tasks: int
    n_unique: int
    dispositions: dict[str, int]

    @property
    def n_deduplicated(self) -> int:
        """Tasks answered client-side by pointing at an identical task."""
        return self.n_tasks - self.n_unique


def _dedupe_key(document: Mapping[str, Any]) -> str:
    """Canonical identity of a task's wire document within one batch request.

    The sorted-key JSON of the document: two tasks serialising to the same
    document are the same pure-function application.
    """
    return json.dumps(document, separators=(",", ":"), sort_keys=True)


class ServiceClient:
    """One blocking connection to a solver daemon."""

    def __init__(
        self, socket_path: str | Path, *, timeout: float | None = 300.0
    ) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(self.socket_path)
            self._file = self._sock.makefile("rb")
            hello = self._read_line()
        except (OSError, ServiceError) as exc:
            self._sock.close()
            raise ServiceError(
                f"cannot connect to solver daemon at {self.socket_path}: {exc}"
            ) from exc
        if hello.get("kind") != "hello":
            self.close()
            raise ServiceError(f"expected hello line, got {hello!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            self.close()
            raise ServiceError(
                f"daemon speaks protocol {hello.get('protocol')!r}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
        self.server_pid: int | None = hello.get("pid")
        self._next_id = 0
        # wire instance documents by object identity; each entry holds its
        # objects too, so their ids cannot be recycled while it lives
        self._instances = InMemoryLRUCache(INSTANCE_MEMO_SIZE)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - double close
            pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _send(self, document: Mapping[str, Any]) -> None:
        try:
            self._sock.sendall(encode_line(document))
        except OSError as exc:
            raise ServiceError(f"daemon connection lost while sending: {exc}")

    def _read_line(self) -> dict[str, Any]:
        try:
            line = self._file.readline(MAX_LINE_BYTES + 1)
        except OSError as exc:
            raise ServiceError(f"daemon connection lost while reading: {exc}")
        if not line:
            raise ServiceError("daemon closed the connection")
        if len(line) > MAX_LINE_BYTES:
            raise ServiceError("daemon response line exceeds the protocol bound")
        try:
            return decode_line(line)
        except ProtocolError as exc:
            raise ServiceError(str(exc))

    def _task_document(self, spec: SolveTaskSpec) -> dict[str, Any]:
        """``spec``'s wire document, reusing its instance's if already encoded."""
        app, platform = spec.application, spec.platform
        ident = (id(app), id(platform))
        entry = self._instances.get(ident)
        if entry is None:
            entry = (app, platform, instance_to_dict(app, platform))
            self._instances.put(ident, entry)
        return spec.to_dict(entry[2])

    def _request(self, document: dict[str, Any]) -> int:
        request_id = self._next_id
        self._next_id += 1
        self._send({**document, "id": request_id})
        return request_id

    def _read_for(self, request_id: int) -> dict[str, Any]:
        """Next response line belonging to ``request_id``.

        The client issues requests sequentially, so any line with a
        different id is a protocol violation, not an ordering surprise.
        """
        reply = self._read_line()
        if reply.get("id") != request_id:
            raise ServiceError(
                f"response for request {reply.get('id')!r} while awaiting "
                f"{request_id} (kind={reply.get('kind')!r})"
            )
        if reply.get("kind") == "error" and "index" not in reply:
            raise ServiceError(f"daemon error: {reply.get('error')}")
        return reply

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def ping(self) -> float:
        """Round-trip a ping; returns the latency in seconds."""
        start = time.perf_counter()
        request_id = self._request({"op": "ping"})
        reply = self._read_for(request_id)
        if reply.get("kind") != "pong":
            raise ServiceError(f"expected pong, got {reply.get('kind')!r}")
        return time.perf_counter() - start

    def stats(self) -> dict[str, Any]:
        """The daemon's ``/stats`` snapshot."""
        request_id = self._request({"op": "stats"})
        reply = self._read_for(request_id)
        if reply.get("kind") != "stats":
            raise ServiceError(f"expected stats, got {reply.get('kind')!r}")
        stats = reply.get("stats")
        if not isinstance(stats, dict):
            raise ServiceError("malformed stats payload")
        return stats

    def solve(
        self,
        app: "PipelineApplication",
        platform: "Platform",
        solver: str,
        *,
        period_bound: float | None = None,
        latency_bound: float | None = None,
        max_steps: int | None = None,
        time_budget: float | None = None,
    ) -> "SolveResult":
        """Solve one instance on the daemon; returns the decoded result."""
        spec = SolveTaskSpec(
            application=app,
            platform=platform,
            solver=solver,
            period_bound=period_bound,
            latency_bound=latency_bound,
            max_steps=max_steps,
            time_budget=time_budget,
        )
        request_id = self._request(
            {"op": "solve", "task": self._task_document(spec)}
        )
        reply = self._read_for(request_id)
        if reply.get("kind") != "result":
            raise ServiceError(f"expected result, got {reply.get('kind')!r}")
        return _decode_result(reply)

    def solve_batch(self, tasks: Sequence[SolveTaskSpec]) -> BatchReply:
        """Solve many tasks in one request; results come back in task order.

        Identical tasks are deduplicated client-side (one goes over the
        wire, every duplicate position shares the answer), then the unique
        tasks travel as a single ``batch`` op whose results stream back as
        the daemon completes them.
        """
        if not tasks:
            return BatchReply(results=(), n_tasks=0, n_unique=0, dispositions={})
        slot_of: dict[str, int] = {}
        unique: list[dict[str, Any]] = []
        assignment: list[int] = []
        for spec in tasks:
            document = self._task_document(spec)
            key = _dedupe_key(document)
            slot = slot_of.get(key)
            if slot is None:
                slot = len(unique)
                slot_of[key] = slot
                unique.append(document)
            assignment.append(slot)

        request_id = self._request({"op": "batch", "tasks": unique})
        slots: list["SolveResult | None"] = [None] * len(unique)
        dispositions: dict[str, int] = {}
        errors: list[str] = []
        while True:
            reply = self._read_for(request_id)
            kind = reply.get("kind")
            if kind == "result":
                index = reply.get("index")
                if not isinstance(index, int) or not 0 <= index < len(unique):
                    raise ServiceError(f"result with bad index {index!r}")
                slots[index] = _decode_result(reply)
                disposition = reply.get("disposition")
                if isinstance(disposition, str):
                    dispositions[disposition] = dispositions.get(disposition, 0) + 1
            elif kind == "error":
                errors.append(f"task {reply.get('index')}: {reply.get('error')}")
            elif kind == "done":
                break
            else:
                raise ServiceError(f"unexpected line kind {kind!r} in batch")
        if errors:
            raise ServiceError(
                f"{len(errors)} of {len(unique)} tasks failed: " + "; ".join(errors)
            )
        missing = [i for i, slot in enumerate(slots) if slot is None]
        if missing:
            raise ServiceError(f"daemon finished without results for {missing}")
        return BatchReply(
            results=tuple(slots[slot] for slot in assignment),
            n_tasks=len(tasks),
            n_unique=len(unique),
            dispositions=dispositions,
        )


def wait_for_server(
    socket_path: str | Path, *, timeout: float = 15.0, interval: float = 0.05
) -> None:
    """Block until a daemon answers a ping at ``socket_path``.

    Polls (connect + ping) until success or ``timeout`` seconds pass, then
    raises :class:`ServiceError`.  The smoke targets use this to sequence
    "start daemon in background; run client" without sleeps.
    """
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(socket_path, timeout=min(timeout, 10.0)) as client:
                client.ping()
                return
        except (ServiceError, OSError) as exc:
            last = exc
            time.sleep(interval)
    raise ServiceError(
        f"no solver daemon answered at {socket_path} within {timeout:.1f}s"
        + (f" (last error: {last})" if last else "")
    )


def _decode_result(reply: Mapping[str, Any]) -> "SolveResult":
    document = reply.get("result")
    if not isinstance(document, Mapping):
        raise ServiceError("result line carries no result document")
    try:
        return solve_result_from_dict(document)
    except (ReproError, ValueError, TypeError, KeyError) as exc:
        raise ServiceError(f"result document does not deserialise: {exc}")
