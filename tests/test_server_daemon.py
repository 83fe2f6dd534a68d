"""The solver daemon end to end: correctness, coalescing, batching, drain.

Everything runs against a real daemon — sockets, event loop, executor,
worker pool — hosted either in-process (:class:`DaemonThread`) or, for the
signal test, as a forked ``repro serve`` process that receives an actual
SIGTERM mid-batch.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.generators.experiments import experiment_config, generate_instances
from repro.server import (
    DaemonConfig,
    DaemonThread,
    ServiceClient,
    ServiceError,
    SolveTaskSpec,
    wait_for_server,
)
from repro.server.client import wait_for_server as wait_alias
from repro.solvers.service import solve_many

SOLVER = "H1"
PERIOD_BOUND = 12.0


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


class TestDaemonBasics:
    def test_ping_stats_and_solve(self, tmp_path, instances, reference):
        sock = _socket(tmp_path)
        with DaemonThread(DaemonConfig(socket_path=sock, window=0.001)):
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
        self, tmp_path, instances, reference
    ):
        """N in-flight clients for one digest -> exactly one solver run."""
        sock = _socket(tmp_path)
        n_clients = 4
        results = [None] * n_clients
        # a generous window holds the first request pending long enough
        # that the rest provably arrive while it is in flight
        host = DaemonThread(
            DaemonConfig(socket_path=sock, window=0.25)
        ).start()
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
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            host.stop()
        for result in results:
            assert result is not None
            assert result.identity() == reference[0]
        # one unit of solve work, everyone else coalesced onto it
        assert host.daemon.n_solved == 1
        assert host.daemon.coalescer.n_enqueued == 1
        assert host.daemon.coalescer.n_coalesced == n_clients - 1

    def test_distinct_concurrent_requests_micro_batch(
        self, tmp_path, instances, reference
    ):
        sock = _socket(tmp_path)
        n_clients = len(instances)
        results = [None] * n_clients
        host = DaemonThread(
            DaemonConfig(socket_path=sock, window=0.25)
        ).start()
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
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            host.stop()
        for slot, result in enumerate(results):
            assert result.identity() == reference[slot]
        # the window gathered concurrent distinct requests into few batches
        sizes = host.daemon.coalescer.batch_sizes
        assert sum(size * count for size, count in sizes.items()) == n_clients
        assert max(sizes) > 1, f"no micro-batch formed: {dict(sizes)}"


class TestDrain:
    def test_drain_finishes_in_flight_batch(self, tmp_path, instances, reference):
        """Drain requested mid-batch: the client still gets every result."""
        sock = _socket(tmp_path)
        host = DaemonThread(
            DaemonConfig(socket_path=sock, window=0.5)
        ).start()
        reply_box = {}

        def _client() -> None:
            with ServiceClient(sock) as client:
                reply_box["reply"] = client.solve_batch(
                    [_spec(i) for i in instances]
                )

        thread = threading.Thread(target=_client)
        thread.start()
        time.sleep(0.1)  # request is in flight, batch still windowed
        host.stop()  # drain: must flush and answer, not abandon
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
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", sock, "--window", "0.5",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            wait_for_server(sock, timeout=30.0)
            reply_box = {}

            def _client() -> None:
                with ServiceClient(sock) as client:
                    reply_box["reply"] = client.solve_batch(
                        [_spec(i) for i in instances]
                    )

            thread = threading.Thread(target=_client)
            thread.start()
            time.sleep(0.15)  # batch submitted, window still open
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            returncode = proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
        assert returncode == 0, proc.stderr.read()
        # the drained daemon answered the full batch before exiting
        reply = reply_box["reply"]
        assert [r.identity() for r in reply.results] == reference
        # and refuses new connections afterwards
        with pytest.raises(ServiceError):
            ServiceClient(sock)


class TestFrontierCoalescing:
    def test_distinct_thresholds_coalesce_onto_one_frontier_solve(
        self, tmp_path, instances
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
        host = DaemonThread(
            DaemonConfig(socket_path=sock, window=0.25)
        ).start()
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
            for thread in threads:
                thread.start()
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
        self, tmp_path, instances, reference
    ):
        """A homogeneous-only DP asked about a heterogeneous platform lands
        in the same batch as valid requests; only it gets an error."""
        n_valid = 4
        sock = _socket(tmp_path)
        results: list = [None] * (n_valid + 1)
        host = DaemonThread(DaemonConfig(socket_path=sock, window=0.25)).start()
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
            for thread in threads:
                thread.start()
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
        # all five rode one batch, so the isolation path had to run
        assert stats["coalescer"]["batch_sizes"] == {str(n_valid + 1): 1}


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
