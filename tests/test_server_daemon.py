"""The solver daemon end to end: correctness, coalescing, batching, drain.

Everything runs against a real daemon — sockets, event loop, executor,
worker pool — hosted either in-process (:class:`DaemonThread`) or, for the
signal test, as a forked ``repro serve`` process that receives an actual
SIGTERM mid-batch.

Tests that need work to sit pending first park the daemon's solver thread
on an Event-gated test solver (:class:`SolverGate`): everything sent while
the gate holds is admitted by the coalescer but cannot run, so what
coalesces and what batches together is decided by the test, not by a
clock.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cache.keys import solve_key
from repro.generators.experiments import experiment_config, generate_instances
from repro.server import client as client_module
from repro.server import (
    DaemonConfig,
    DaemonThread,
    ServiceClient,
    ServiceError,
    SolveTaskSpec,
    wait_for_server,
)
from repro.server.client import wait_for_server as wait_alias
from repro.server import protocol
from repro.server.protocol import decode_line, encode_line
from repro.solvers import registry
from repro.solvers.base import Objective, SolverFamily
from repro.solvers.registry import SolverSpec, get_solver, register_solver
from repro.solvers.service import solve_many

SOLVER = "H1"
PERIOD_BOUND = 12.0
#: name of the Event-gated test solver
GATE = "test-gate"
#: tasks (and solves) the gate's own held request adds to the counters
GATE_TASKS = 1


@pytest.fixture(scope="module")
def instances():
    config = experiment_config("E1", 8, 6, n_instances=6)
    return generate_instances(config, seed=3)


@pytest.fixture(scope="module")
def reference(instances):
    outcome = solve_many(
        [(inst.application, inst.platform) for inst in instances],
        [SOLVER],
        period_bound=PERIOD_BOUND,
    )
    return [row[0].identity() for row in outcome.results]


def _spec(instance) -> SolveTaskSpec:
    return SolveTaskSpec(
        application=instance.application,
        platform=instance.platform,
        solver=SOLVER,
        period_bound=PERIOD_BOUND,
    )


def _socket(tmp_path) -> str:
    return str(tmp_path / "daemon.sock")


def _await(condition, what: str, timeout: float = 30.0) -> None:
    """Poll ``condition()`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _await_submitted(host: DaemonThread, n: int) -> None:
    """Block until ``n`` requests besides the gate's reached the coalescer."""
    coalescer = host.daemon.coalescer
    _await(
        lambda: coalescer.n_enqueued + coalescer.n_coalesced >= GATE_TASKS + n,
        f"{n} requests to reach the coalescer",
    )


class SolverGate:
    """A test solver that holds the daemon's solver thread until opened.

    It answers like H1 (under its own name) once :attr:`opened` is set.
    """

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.opened = threading.Event()
        self._solve = get_solver(SOLVER).spec.solve_fn

    def solve(self, app, platform, request):
        self.entered.set()
        if not self.opened.wait(timeout=60.0):
            raise RuntimeError("the solver gate was never opened")
        return self._solve(app, platform, request)

    @contextlib.contextmanager
    def holding(self, sock: str, instance):
        """Hold the solver thread on one gate solve for the ``with`` body."""
        box = {}

        def _blocker() -> None:
            with ServiceClient(sock) as client:
                box["result"] = client.solve(
                    instance.application,
                    instance.platform,
                    GATE,
                    period_bound=PERIOD_BOUND,
                )

        thread = threading.Thread(target=_blocker)
        thread.start()
        try:
            assert self.entered.wait(timeout=30.0), "gate solve never started"
            yield
        finally:
            self.opened.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive(), "the gate solve never answered"
        assert box["result"].solver == GATE


@pytest.fixture
def gate(monkeypatch) -> SolverGate:
    """Register a :class:`SolverGate` for one test (the registry is restored)."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_LOOKUP", dict(registry._LOOKUP))
    solver_gate = SolverGate()
    register_solver(
        SolverSpec(
            name=GATE,
            key=GATE,
            family=SolverFamily.HEURISTIC,
            objective=Objective.MIN_LATENCY_FOR_PERIOD,
            solve_fn=solver_gate.solve,
        )
    )
    return solver_gate


#: ``repro serve`` with the gate registered; argv: ENTERED_FD OPEN_FD CLI...
_GATED_SERVE = f"""\
import os
import sys

from repro.cli import main
from repro.solvers.base import Objective, SolverFamily
from repro.solvers.registry import SolverSpec, get_solver, register_solver

ENTERED, OPEN = (int(fd) for fd in sys.argv[1:3])
solve_h1 = get_solver({SOLVER!r}).spec.solve_fn


def gate(app, platform, request):
    os.write(ENTERED, b"!")  # the solver thread is held from here ...
    os.read(OPEN, 1)  # ... until the test writes a byte
    return solve_h1(app, platform, request)


register_solver(SolverSpec(
    name={GATE!r}, key={GATE!r}, family=SolverFamily.HEURISTIC,
    objective=Objective.MIN_LATENCY_FOR_PERIOD, solve_fn=gate,
))
sys.exit(main(sys.argv[3:]))
"""


class TestDaemonBasics:
    def test_ping_stats_and_solve(self, tmp_path, instances, reference):
        sock = _socket(tmp_path)
        with DaemonThread(DaemonConfig(socket_path=sock)):
            with ServiceClient(sock) as client:
                assert client.ping() < 1.0
                stats = client.stats()
                assert stats["protocol"] == 1
                assert stats["draining"] is False
                result = client.solve(
                    instances[0].application,
                    instances[0].platform,
                    SOLVER,
                    period_bound=PERIOD_BOUND,
                )
                assert result.identity() == reference[0]

    def test_daemon_results_are_byte_identical_to_solve_many(
        self, tmp_path, instances, reference
    ):
        sock = _socket(tmp_path)
        with DaemonThread(DaemonConfig(socket_path=sock)):
            with ServiceClient(sock) as client:
                reply = client.solve_batch([_spec(i) for i in instances])
        assert [r.identity() for r in reply.results] == reference

    def test_client_side_dedupe_is_timing_independent(
        self, tmp_path, instances, reference
    ):
        sock = _socket(tmp_path)
        specs = [_spec(i) for i in instances[:3]] * 3
        with DaemonThread(DaemonConfig(socket_path=sock)):
            with ServiceClient(sock) as client:
                cold = client.solve_batch(specs)
                warm = client.solve_batch(specs)
        # the dedupe accounting is client-side, so it cannot depend on the
        # daemon's cache warmth (the batch CLI prints these numbers)
        assert cold.n_tasks == warm.n_tasks == 9
        assert cold.n_unique == warm.n_unique == 3
        for reply in (cold, warm):
            assert [r.identity() for r in reply.results] == [
                reference[i % 3] for i in range(9)
            ]
        # the second pass was served entirely by the daemon's warm cache
        assert warm.dispositions.get("cache", 0) == 3

    def test_unknown_solver_errors_but_connection_survives(
        self, tmp_path, instances
    ):
        sock = _socket(tmp_path)
        with DaemonThread(DaemonConfig(socket_path=sock)):
            with ServiceClient(sock) as client:
                bad = SolveTaskSpec(
                    application=instances[0].application,
                    platform=instances[0].platform,
                    solver="no-such-solver",
                    period_bound=PERIOD_BOUND,
                )
                with pytest.raises(ServiceError):
                    client.solve_batch([bad])
                # the error was scoped to the request, not the connection
                assert client.ping() < 1.0

    def test_wait_for_server_times_out_without_daemon(self, tmp_path):
        with pytest.raises(ServiceError, match="no solver daemon"):
            wait_for_server(tmp_path / "nobody.sock", timeout=0.3)
        assert wait_alias is wait_for_server


class TestSingleFlight:
    def test_concurrent_identical_requests_cost_one_solve(
        self, tmp_path, gate, instances, reference
    ):
        """N in-flight clients for one digest -> exactly one solver run."""
        sock = _socket(tmp_path)
        n_clients = 4
        results = [None] * n_clients
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        try:
            barrier = threading.Barrier(n_clients)

            def _one(slot: int) -> None:
                with ServiceClient(sock) as client:
                    barrier.wait()
                    results[slot] = client.solve(
                        instances[0].application,
                        instances[0].platform,
                        SOLVER,
                        period_bound=PERIOD_BOUND,
                    )

            threads = [
                threading.Thread(target=_one, args=(slot,))
                for slot in range(n_clients)
            ]
            # the gate holds the first request pending, so the rest
            # provably arrive while it is in flight
            with gate.holding(sock, instances[-1]):
                for thread in threads:
                    thread.start()
                _await_submitted(host, n_clients)
            for thread in threads:
                thread.join()
        finally:
            host.stop()
        for result in results:
            assert result is not None
            assert result.identity() == reference[0]
        # one unit of solve work, everyone else coalesced onto it
        assert host.daemon.n_solved == GATE_TASKS + 1
        assert host.daemon.coalescer.n_enqueued == GATE_TASKS + 1
        assert host.daemon.coalescer.n_coalesced == n_clients - 1

    def test_distinct_concurrent_requests_micro_batch(
        self, tmp_path, gate, instances, reference
    ):
        sock = _socket(tmp_path)
        n_clients = len(instances)
        results = [None] * n_clients
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        try:
            barrier = threading.Barrier(n_clients)

            def _one(slot: int) -> None:
                with ServiceClient(sock) as client:
                    barrier.wait()
                    results[slot] = client.solve(
                        instances[slot].application,
                        instances[slot].platform,
                        SOLVER,
                        period_bound=PERIOD_BOUND,
                    )

            threads = [
                threading.Thread(target=_one, args=(slot,))
                for slot in range(n_clients)
            ]
            with gate.holding(sock, instances[-1]):
                for thread in threads:
                    thread.start()
                _await_submitted(host, n_clients)
            for thread in threads:
                thread.join()
        finally:
            host.stop()
        for slot, result in enumerate(results):
            assert result.identity() == reference[slot]
        # requests that arrived while the solver was busy flushed together
        sizes = host.daemon.coalescer.batch_sizes
        assert sum(size * count for size, count in sizes.items()) == (
            GATE_TASKS + n_clients
        )
        assert max(sizes) > 1, f"no micro-batch formed: {dict(sizes)}"
        assert dict(sizes) == {GATE_TASKS: 1, n_clients: 1}


class TestDrain:
    def test_drain_finishes_in_flight_batch(
        self, tmp_path, gate, instances, reference
    ):
        """Drain requested mid-batch: the client still gets every result."""
        sock = _socket(tmp_path)
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        reply_box = {}

        def _client() -> None:
            with ServiceClient(sock) as client:
                reply_box["reply"] = client.solve_batch(
                    [_spec(i) for i in instances]
                )

        thread = threading.Thread(target=_client)
        # drain: must flush and answer, not abandon
        stopper = threading.Thread(target=host.stop)
        with gate.holding(sock, instances[-1]):
            thread.start()
            _await_submitted(host, len(instances))  # request in flight, pending
            stopper.start()
            _await(lambda: host.daemon.draining, "the drain to start")
        stopper.join(timeout=60.0)
        assert not stopper.is_alive()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        reply = reply_box["reply"]
        assert [r.identity() for r in reply.results] == reference

    def test_sigterm_mid_batch_completes_and_exits_zero(
        self, tmp_path, instances, reference
    ):
        """A real SIGTERM against a forked `repro serve` process."""
        sock = _socket(tmp_path)
        env = dict(os.environ)
        src = str(
            (os.path.dirname(__file__) or ".") + "/../src"
        )
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).strip(os.pathsep)
        # the gate runs in the daemon process: it signals through one pipe
        # that it holds the solver thread and waits on another to go on
        entered_r, entered_w = os.pipe()
        open_r, open_w = os.pipe()
        proc = subprocess.Popen(
            [
                sys.executable, "-c", _GATED_SERVE, str(entered_w), str(open_r),
                "serve", "--socket", sock,
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
            pass_fds=(entered_w, open_r),
        )
        os.close(entered_w)
        os.close(open_r)
        reply_box = {}

        def _gate() -> None:
            with ServiceClient(sock) as client:
                client.solve(
                    instances[-1].application,
                    instances[-1].platform,
                    GATE,
                    period_bound=PERIOD_BOUND,
                )

        def _client() -> None:
            with ServiceClient(sock) as client:
                reply_box["reply"] = client.solve_batch(
                    [_spec(i) for i in instances]
                )

        gate_thread = threading.Thread(target=_gate)
        client_thread = threading.Thread(target=_client)
        try:
            wait_for_server(sock, timeout=30.0)
            gate_thread.start()
            ready, _, _ = select.select([entered_r], [], [], 30.0)
            assert ready, "gate solve never started"
            client_thread.start()
            with ServiceClient(sock) as probe:

                def _submitted() -> int:
                    coalescer = probe.stats()["coalescer"]
                    return coalescer["n_enqueued"] + coalescer["n_coalesced"]

                # batch submitted, still pending behind the gate
                _await(
                    lambda: _submitted() >= GATE_TASKS + len(instances),
                    "the batch to reach the daemon",
                )
                proc.send_signal(signal.SIGTERM)
                _await(lambda: probe.stats()["draining"], "the drain to start")
            os.write(open_w, b"!")
            for thread in (gate_thread, client_thread):
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            returncode = proc.wait(timeout=30.0)
            stderr = proc.stderr.read()
        finally:
            os.close(open_w)  # a gate still waiting reads EOF and goes on
            os.close(entered_r)
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert returncode == 0, stderr
        # the drained daemon answered the full batch before exiting
        reply = reply_box["reply"]
        assert [r.identity() for r in reply.results] == reference
        # and refuses new connections afterwards
        with pytest.raises(ServiceError):
            ServiceClient(sock)


class TestHitsNeverQueue:
    def test_memory_hit_is_answered_while_a_miss_is_parked(
        self, tmp_path, gate, instances, reference
    ):
        """A memory-tier hit never waits for the solver thread; a miss does."""
        sock = _socket(tmp_path)
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        box = {}

        def _miss() -> None:
            with ServiceClient(sock) as client:
                box["miss"] = client.solve_batch([_spec(instances[1])])

        miss = threading.Thread(target=_miss)
        try:
            with ServiceClient(sock) as client:
                warm = client.solve_batch([_spec(instances[0])])
            coalescer = host.daemon.coalescer
            with gate.holding(sock, instances[-1]):
                miss.start()
                _await(
                    lambda: coalescer.n_enqueued == 3,
                    "the miss to queue behind the gate",
                )
                # the solver thread is parked: only the event loop can answer
                with ServiceClient(sock, timeout=10.0) as client:
                    hit = client.solve_batch([_spec(instances[0])])
                assert "miss" not in box, "the miss ran past the gate"
            miss.join(timeout=30.0)
            assert not miss.is_alive()
            with ServiceClient(sock) as client:
                stats = client.stats()
        finally:
            host.stop()
        assert warm.dispositions == {"solved": 1}
        assert hit.dispositions == {"cache": 1}
        assert hit.results[0].identity() == reference[0]
        assert box["miss"].dispositions == {"solved": 1}
        assert box["miss"].results[0].identity() == reference[1]
        # the hit is counted as one, and never reached the coalescer
        assert stats["requests"]["n_cache_hits"] == 1
        assert stats["coalescer"]["n_enqueued"] == 3  # warm-up, gate, miss
        # four lookups (warm-up, gate and miss missed, the hit hit), each
        # counted once: the loop's memory probe counts hits only
        cache = stats["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 3)
        assert cache["memory_hits"] == 1

    def test_time_budget_request_is_never_answered_from_the_cache(
        self, tmp_path, instances
    ):
        inst = instances[0]
        handle = get_solver("local-search-h1")
        bounds = {"period_bound": PERIOD_BOUND, "time_budget": 30.0}
        spec = SolveTaskSpec(inst.application, inst.platform, handle.name, **bounds)
        sock = _socket(tmp_path)
        with DaemonThread(DaemonConfig(socket_path=sock)) as host:
            with ServiceClient(sock) as client:
                first = client.solve_batch([spec])
                # plant an answer under the request's own key: still not served
                key = solve_key(
                    inst.application,
                    inst.platform,
                    handle,
                    handle.default_request(**bounds),
                )
                host.daemon.cache.put(key, first.results[0])
                second = client.solve_batch([spec])
                stats = client.stats()
        assert first.dispositions == second.dispositions == {"solved": 1}
        assert stats["requests"]["n_cache_hits"] == 0
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0

    def test_daemon_decodes_each_repeated_instance_once(
        self, tmp_path, monkeypatch, instances
    ):
        decoded = []
        decode = protocol._decode_instance

        def counting(document):
            decoded.append(document)
            return decode(document)

        monkeypatch.setattr(protocol, "_decode_instance", counting)
        sock = _socket(tmp_path)
        specs = [_spec(i) for i in instances]
        with DaemonThread(DaemonConfig(socket_path=sock)) as host:
            with ServiceClient(sock) as client:
                cold = client.solve_batch(specs)
                assert len(decoded) == len(instances)
                # fresh connection, same documents: nothing is decoded again
                with ServiceClient(sock) as other:
                    warm = other.solve_batch(specs)
            assert len(host.daemon.instances) == len(instances)
        assert len(decoded) == len(instances)
        assert warm.dispositions == {"cache": len(instances)}
        assert [r.identity() for r in warm.results] == [
            r.identity() for r in cold.results
        ]

    def test_client_encodes_each_instance_once(self, tmp_path, monkeypatch, instances):
        calls = []
        encode = client_module.instance_to_dict

        def counting(app, platform):
            calls.append(app)
            return encode(app, platform)

        monkeypatch.setattr(client_module, "instance_to_dict", counting)
        sock = _socket(tmp_path)
        first, second = instances[:2]
        with DaemonThread(DaemonConfig(socket_path=sock)):
            with ServiceClient(sock) as client:
                single = client.solve(
                    first.application,
                    first.platform,
                    SOLVER,
                    period_bound=PERIOD_BOUND,
                )
                reply = client.solve_batch(
                    [_spec(first), _spec(second), _spec(first), _spec(second)]
                )
        # one encoding per (application, platform) pair, shared by both ops
        assert calls == [first.application, second.application]
        assert reply.n_unique == 2
        assert reply.results[0].identity() == single.identity()


class TestFrontierCoalescing:
    def test_distinct_thresholds_coalesce_onto_one_frontier_solve(
        self, tmp_path, gate, instances
    ):
        """Concurrent same-instance requests differing only in threshold
        land in one group and are answered by a single frontier solve,
        byte-identical to the per-threshold path."""
        bounds = [8.0, 10.0, 12.0, 14.0]
        reference = [
            solve_many(
                [(instances[0].application, instances[0].platform)],
                [SOLVER],
                period_bound=bound,
            ).results[0][0].identity()
            for bound in bounds
        ]
        sock = _socket(tmp_path)
        results = [None] * len(bounds)
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        try:
            barrier = threading.Barrier(len(bounds))

            def _one(slot: int) -> None:
                with ServiceClient(sock) as client:
                    barrier.wait()
                    results[slot] = client.solve(
                        instances[0].application,
                        instances[0].platform,
                        SOLVER,
                        period_bound=bounds[slot],
                    )

            threads = [
                threading.Thread(target=_one, args=(slot,))
                for slot in range(len(bounds))
            ]
            with gate.holding(sock, instances[-1]):
                for thread in threads:
                    thread.start()
                _await_submitted(host, len(bounds))
            for thread in threads:
                thread.join()
            with ServiceClient(sock) as client:
                stats = client.stats()
        finally:
            host.stop()
        for slot, result in enumerate(results):
            assert result is not None
            assert result.identity() == reference[slot]
        frontier = stats["frontier"]
        # all four thresholds rode one frontier solve
        assert frontier["n_groups"] == 1
        assert frontier["n_thresholds"] == len(bounds)


class TestFailureIsolation:
    def test_one_bad_request_does_not_fail_its_batch(
        self, tmp_path, gate, instances, reference
    ):
        """A homogeneous-only DP asked about a heterogeneous platform lands
        in the same batch as valid requests; only it gets an error."""
        n_valid = 4
        sock = _socket(tmp_path)
        results: list = [None] * (n_valid + 1)
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        try:
            barrier = threading.Barrier(n_valid + 1)

            def _one(slot: int) -> None:
                solver = SOLVER if slot < n_valid else "hom-dp-latency-for-period"
                inst = instances[slot % n_valid]
                with ServiceClient(sock) as client:
                    barrier.wait()
                    try:
                        results[slot] = client.solve(
                            inst.application,
                            inst.platform,
                            solver,
                            period_bound=PERIOD_BOUND,
                        )
                    except ServiceError as exc:
                        results[slot] = exc

            threads = [
                threading.Thread(target=_one, args=(slot,))
                for slot in range(n_valid + 1)
            ]
            with gate.holding(sock, instances[-1]):
                for thread in threads:
                    thread.start()
                _await_submitted(host, n_valid + 1)
            for thread in threads:
                thread.join()
            with ServiceClient(sock) as client:
                stats = client.stats()
        finally:
            host.stop()
        for slot in range(n_valid):
            assert results[slot].identity() == reference[slot]
        assert isinstance(results[n_valid], ServiceError)
        assert "identical processor speeds" in str(results[n_valid])
        # all five rode one batch (after the gate's own), so the isolation
        # path had to run
        assert stats["coalescer"]["batch_sizes"] == {
            str(GATE_TASKS): 1,
            str(n_valid + 1): 1,
        }


    def test_client_disconnect_mid_batch_spares_its_batch_mates(
        self, tmp_path, gate, instances, reference
    ):
        """A client hangs up while its ``batch`` op is still streaming; the
        other client of the same coalescer batch still gets every answer and
        the daemon keeps serving."""
        sock = _socket(tmp_path)
        host = DaemonThread(DaemonConfig(socket_path=sock)).start()
        box = {}

        def _stayer() -> None:
            with ServiceClient(sock, timeout=30.0) as client:
                box["reply"] = client.solve_batch([_spec(i) for i in instances[1:5]])

        stayer = threading.Thread(target=_stayer)
        try:
            with ServiceClient(sock) as client:
                client.solve_batch([_spec(instances[0])])  # instance 0 is now a hit
            coalescer = host.daemon.coalescer
            with gate.holding(sock, instances[-1]):
                leaver = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                leaver.settimeout(30.0)
                leaver.connect(sock)
                stream = leaver.makefile("rb")
                assert decode_line(stream.readline())["kind"] == "hello"
                tasks = [_spec(i).to_dict() for i in instances[:3]]
                leaver.sendall(encode_line({"op": "batch", "id": 0, "tasks": tasks}))
                # the hit streams back at once; tasks 1 and 2 stay pending
                first = decode_line(stream.readline())
                assert (first["kind"], first["index"]) == ("result", 0)
                stayer.start()
                # the stayer's 1 and 2 join the leaver's; its 3 and 4 queue
                _await(
                    lambda: (coalescer.n_enqueued, coalescer.n_coalesced) == (6, 2),
                    "both batch ops to reach the coalescer",
                )
                stream.close()
                leaver.close()  # hang up mid-stream
            stayer.join(timeout=30.0)
            assert not stayer.is_alive()
            # the daemon still accepts and answers new connections
            with ServiceClient(sock, timeout=30.0) as client:
                assert client.ping() < 1.0
                late = client.solve_batch([_spec(instances[5])])
                stats = client.stats()
        finally:
            host.stop()
        reply = box["reply"]
        assert [r.identity() for r in reply.results] == reference[1:5]
        assert late.results[0].identity() == reference[5]
        # the leaver's two misses and the stayer's two rode one batch
        assert stats["coalescer"]["batch_sizes"]["4"] == 1


class TestStatsEndpoint:
    def test_stats_surface_cache_and_batch_histogram(self, tmp_path, instances):
        sock = _socket(tmp_path)
        with DaemonThread(DaemonConfig(socket_path=sock)):
            with ServiceClient(sock) as client:
                specs = [_spec(i) for i in instances]
                client.solve_batch(specs)
                client.solve_batch(specs)
                stats = client.stats()
        cache = stats["cache"]
        assert set(cache) >= {
            "hits", "misses", "stores", "memory_hits", "disk_hits", "hit_rate",
        }
        # the second pass hit on every unique task
        assert cache["hit_rate"] >= 0.5
        coalescer = stats["coalescer"]
        assert coalescer["in_flight"] == 0
        assert coalescer["n_batches"] >= 1
        assert sum(
            int(size) * count
            for size, count in coalescer["batch_sizes"].items()
        ) == coalescer["n_enqueued"]
        requests = stats["requests"]
        assert requests["n_tasks"] == 2 * len(instances)
        assert requests["n_cache_hits"] >= len(instances)
        assert stats["cache_entries"] == len(instances)
        # the frontier counters sit next to the batch histogram even when
        # no group formed (every spec here shares one threshold)
        frontier = stats["frontier"]
        assert frontier["n_groups"] == 0
        assert frontier["n_thresholds"] == 0
