"""Solver-as-a-service: a persistent daemon in front of the batch service.

Every other entry point of the repository is a one-shot process: it pays
Python import, pool spin-up and a cold solve cache on every invocation, and
the content-addressed identity that makes requests dedupable dies with it.
This package keeps all of that warm:

* :mod:`.daemon` — a long-lived asyncio server (unix socket, newline-
  delimited JSON) holding one :class:`~repro.cache.store.SolveCache` and
  one persistent :class:`~repro.utils.parallel.WorkerPool` across requests,
  coalescing concurrent identical requests by canonical digest
  (single-flight) and micro-batching concurrent distinct ones through
  :func:`repro.solvers.service.solve_frontier_many`;
* :mod:`.coalescer` — the single-flight map and the batch-while-busy
  batcher (no timer: work that arrives while a batch runs forms the next);
* :mod:`.protocol` — the wire format (one JSON document per line);
* :mod:`.client` — the thin synchronous client library the CLI, the tests
  and the benchmarks use.

``repro serve`` / ``repro client`` are the CLI entry points; see
``docs/architecture.md`` for the layer diagram.
"""

from .client import BatchReply, ServiceClient, ServiceError, wait_for_server
from .daemon import DaemonConfig, DaemonThread, SolverDaemon, run_daemon
from .protocol import PROTOCOL_VERSION, ProtocolError, SolveTaskSpec

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SolveTaskSpec",
    "DaemonConfig",
    "SolverDaemon",
    "DaemonThread",
    "run_daemon",
    "BatchReply",
    "ServiceClient",
    "ServiceError",
    "wait_for_server",
]
