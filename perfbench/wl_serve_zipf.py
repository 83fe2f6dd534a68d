"""Workload ``serve-zipf``: a ``repro serve`` daemon under a Zipf request mix.

The daemon runs as a subprocess with default flags.  One process holds 2
closed-loop connections (``server.ServiceClient``, one thread each): a
caller sends its next request only after the reply to the previous one.
Requests are Zipf-distributed (s=1.1) over (instance, solver H1-H6,
threshold) triples from 200 E1 n=12 p=8 instances and a 10-point threshold
grid.  The request stream stops before its distinct keys reach the
daemon's ``--cache-size``, so every miss is a first-time solve.

The loop pauses every ``SEGMENT_S`` to time a reference pass on each CPU;
each segment's request times are scaled by the passes on either side of it
(see ``bench_reference``), so the shared host's changing speed stays out of
the result.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.runner import reference_ranges
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics.base import Objective
from repro.server.client import ServiceClient, ServiceError, wait_for_server
from repro.solvers.registry import get_solver
from repro.solvers.service import solve_many

from bench_common import bounded_kwargs, percentile, probe_core, probe_heuristics, rng_for
from bench_reference import REFERENCE_PASS_S, reference_s


N_INSTANCES = 200
N_STAGES = 12
N_PROCESSORS = 8
SOLVERS = ("H1", "H2", "H3", "H4", "H5", "H6")
N_THRESHOLDS = 10
ZIPF_S = 1.1
CLIENTS = 2
#: the daemon's default ``--cache-size``; the stream keeps fewer distinct keys
CACHE_SIZE = 4096
#: per-request deadline; a request that misses it is a failed op
REQUEST_TIMEOUT_S = 10.0
#: requests per pass of a traced run (fixed, so its counts are comparable)
TRACE_REQUESTS = 1500
#: the closed loop pauses this often to sample the host's speed
SEGMENT_S = 1.0
#: requests a measured run sends per ``--seconds``: about the calibrated rate
NOMINAL_RPS = 250


class Daemon:
    """One ``repro serve`` subprocess on a unix socket inside ``run_dir``."""

    def __init__(self, run_dir: Path, name: str) -> None:
        self.dir = run_dir / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.socket = str(self.dir / "d.sock")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )

    def wait_ready(self) -> None:
        wait_for_server(self.socket, timeout=60.0, interval=0.01)

    def stop(self) -> None:
        """SIGTERM drain, SIGKILL after a timeout, then remove the socket dir."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=15)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


class Workload:
    def __init__(self, seed: int, seconds: float, tracer, run_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.run_dir = run_dir
        self.daemons: list[Daemon] = []
        #: (key index, SolveResult or None, latency s) per request sent
        self.answers: list[tuple[int, Any, float]] = []
        self._verdict: tuple[int, float] | None = None
        self.cpus = sorted(os.sched_getaffinity(0))

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        config = experiment_config("E1", N_STAGES, N_PROCESSORS, n_instances=N_INSTANCES)
        self.instances = generate_instances(config, seed=rng_for(self.seed, 0))
        (p_lo, p_hi), (l_lo, l_hi) = reference_ranges(self.instances)
        self.handles = [get_solver(name) for name in SOLVERS]
        self.period_grid = np.linspace(p_lo, p_hi, N_THRESHOLDS)
        self.latency_grid = np.linspace(l_lo, l_hi, N_THRESHOLDS)
        self.grids = [
            self.period_grid
            if handle.objective == Objective.MIN_LATENCY_FOR_PERIOD
            else self.latency_grid
            for handle in self.handles
        ]
        self.keys = self._zipf_stream()
        self.daemon = self._start_daemon("main")

    def _zipf_stream(self) -> list[int]:
        """Key indices in request order, cut before ``CACHE_SIZE`` distinct."""
        rng = rng_for(self.seed, 1)
        n_keys = N_INSTANCES * len(SOLVERS) * N_THRESHOLDS
        weights = np.arange(1, n_keys + 1, dtype=float) ** -ZIPF_S
        ranked = rng.permutation(n_keys)
        draws = ranked[rng.choice(n_keys, size=60_000, p=weights / weights.sum())]
        seen: set[int] = set()
        stream = []
        for key in draws.tolist():
            seen.add(key)
            if len(seen) >= CACHE_SIZE - 64:
                break
            stream.append(key)
        return stream

    def _task(self, key: int) -> tuple[Any, Any, Any, dict[str, float]]:
        """(application, platform, solver handle, bound keyword) of a key."""
        inst, rest = divmod(key, len(SOLVERS) * N_THRESHOLDS)
        s, t = divmod(rest, N_THRESHOLDS)
        handle = self.handles[s]
        instance = self.instances[inst]
        return (
            instance.application,
            instance.platform,
            handle,
            bounded_kwargs(handle, float(self.grids[s][t])),
        )

    def _start_daemon(self, name: str) -> Daemon:
        """Spawn, wait for a ping, warm every solver on an off-mix instance."""
        daemon = Daemon(self.run_dir, name)
        self.daemons.append(daemon)
        daemon.wait_ready()
        config = experiment_config("E1", N_STAGES, N_PROCESSORS, n_instances=1)
        warm = generate_instances(config, seed=rng_for(self.seed, 2))[0]
        with ServiceClient(daemon.socket, timeout=REQUEST_TIMEOUT_S) as client:
            for handle, grid in zip(self.handles, self.grids):
                client.solve(
                    warm.application, warm.platform, handle.name,
                    **bounded_kwargs(handle, float(grid[-1])),
                )
        return daemon

    # ------------------------------------------------------------------ #
    def _drive(self, daemon: Daemon, keys: list[int]) -> dict[str, Any]:
        """Closed loop: ``CLIENTS`` threads each send, wait, send the next.

        The loop runs in segments of ``SEGMENT_S``; between segments the
        callers pause and the host's speed is sampled (``reference_s``), so
        each segment is calibrated by the samples on either side of it.
        """
        lock = threading.Lock()
        cursor = iter(range(len(keys)))
        first = len(self.answers)
        answers: list[tuple[int, Any, float]] = []
        #: per segment: (wall seconds, latencies of answered requests)
        segments: list[tuple[float, list[float]]] = []
        exhausted = False

        def next_key(segment_end: float) -> int | None:
            nonlocal exhausted
            with lock:
                if time.perf_counter() >= segment_end:
                    return None
                i = next(cursor, None)
                exhausted = i is None
            return None if i is None else keys[i]

        def caller(slot: int, segment_end: float, latencies: list[float]) -> None:
            client = clients[slot]
            while (key := next_key(segment_end)) is not None:
                app, plat, handle, bounds = self._task(key)
                sent = time.perf_counter()
                result = None
                try:
                    if client is None:
                        client = ServiceClient(daemon.socket, timeout=REQUEST_TIMEOUT_S)
                    with self.tracer.op(first + slot + CLIENTS * sent_by[slot]):
                        result = client.solve(app, plat, handle.name, **bounds)
                except ServiceError:
                    # a late or broken reply: count it, start a fresh connection
                    if client is not None:
                        client.close()
                    client = None
                latency = time.perf_counter() - sent
                sent_by[slot] += 1
                with lock:
                    answers.append((key, result, latency))
                    if result is not None:
                        latencies.append(latency)
            clients[slot] = client

        with ServiceClient(daemon.socket, timeout=REQUEST_TIMEOUT_S) as probe:
            before = probe.stats()
        clients: list[Any] = [
            ServiceClient(daemon.socket, timeout=REQUEST_TIMEOUT_S)
            for _ in range(CLIENTS)
        ]
        sent_by = [0] * CLIENTS
        references = [reference_s(self.cpus)]
        start = time.perf_counter()
        try:
            while not exhausted:
                segment_start = time.perf_counter()
                segment_end = segment_start + SEGMENT_S
                latencies: list[float] = []
                threads = [
                    threading.Thread(
                        target=caller, args=(slot, segment_end, latencies), daemon=True
                    )
                    for slot in range(CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=SEGMENT_S + REQUEST_TIMEOUT_S + 30)
                if any(thread.is_alive() for thread in threads):
                    raise RuntimeError("a client thread outlived its deadline")
                segments.append((time.perf_counter() - segment_start, latencies))
                references.append(reference_s(self.cpus))
        finally:
            for client in clients:
                if client is not None:
                    client.close()
        wall = time.perf_counter() - start
        with ServiceClient(daemon.socket, timeout=REQUEST_TIMEOUT_S) as probe:
            after = probe.stats()
            rtt = [probe.ping() for _ in range(50)]
        self.answers.extend(answers)
        return {
            "n": len(answers),
            "wall": wall,
            "segments": segments,
            "references": references,
            "before": before,
            "after": after,
            "ping_rtt_s": statistics.median(rtt),
        }

    @property
    def attempted(self) -> int:
        return len(self.answers)

    def measure(self) -> dict[str, Any]:
        # a fixed share of the stream, not a fixed time: the stream's hit rate
        # rises as the cache fills, so runs compare only over the same requests
        count = min(len(self.keys), round(self.seconds * NOMINAL_RPS))
        phase = self._drive(self.daemon, self.keys[:count])
        return self._summary(phase)

    def _summary(self, phase: dict[str, Any]) -> dict[str, Any]:
        """Calibrated metrics of a phase; its segments' raw ones for the record."""
        segments, references = phase["segments"], phase["references"]
        answered = sum(len(latencies) for _, latencies in segments)
        if not answered:
            raise RuntimeError("the daemon answered no request")
        scales = [
            REFERENCE_PASS_S / ((references[i] + references[i + 1]) / 2)
            for i in range(len(segments))
        ]
        return {
            "failed": phase["n"] - answered,
            "metrics": _metrics(segments, scales),
            "aliases": {
                "throughput_per_s": "serve_rps",
                "latency_p50_ms": "serve_p50_ms",
                "latency_p99_ms": "serve_p99_ms",
            },
            "detail": {
                "requests": phase["n"],
                "wall_s": phase["wall"],
                "uncalibrated": _metrics(segments, [1.0] * len(segments)),
                "reference_median_s": statistics.median(references),
                "segments": [
                    {"wall_s": wall, "requests": len(latencies), "scale": scale}
                    for (wall, latencies), scale in zip(segments, scales)
                ],
            },
        }

    def check(self) -> int:
        """Failed ops: answers not identity-equal to a direct ``solve_many``."""
        if self._verdict is None:
            self._verdict = self._check()
        return self._verdict[0]

    def _check(self) -> tuple[int, float]:
        """(mismatching answers, mean direct solve seconds per distinct key)."""
        groups: dict[tuple[int, int], set[int]] = {}
        for key, result, _ in self.answers:
            if result is not None:
                inst, rest = divmod(key, len(SOLVERS) * N_THRESHOLDS)
                groups.setdefault(divmod(rest, N_THRESHOLDS), set()).add(inst)
        expected: dict[int, Any] = {}
        start = time.perf_counter()
        for (s, t), chosen in groups.items():
            members = sorted(chosen)
            handle = self.handles[s]
            with self.tracer.span("solvers.solve_many"):
                batch = solve_many(
                    [self.instances[i] for i in members],
                    [handle],
                    **bounded_kwargs(handle, float(self.grids[s][t])),
                )
            for i, row in zip(members, batch.results):
                expected[(i * len(SOLVERS) + s) * N_THRESHOLDS + t] = row[0].identity()
        solve_s = (time.perf_counter() - start) / max(1, len(expected))
        failed = sum(
            1
            for key, result, _ in self.answers
            if result is not None and result.identity() != expected[key]
        )
        return failed, solve_s

    # ------------------------------------------------------------------ #
    def trace(self) -> dict[str, Any]:
        """The first ``TRACE_REQUESTS`` of the stream untraced on the warm-up
        daemon, then the same requests traced on a fresh daemon, then probes."""
        from repro.cache.keys import solve_key
        from repro.cache.store import SolveCache
        from repro.core.serialization import solve_result_to_dict
        from repro.server import client as client_mod
        from repro.server.protocol import SolveTaskSpec, decode_line, encode_line

        tracer = self.tracer
        keys = self.keys[:TRACE_REQUESTS]
        plain = self._drive(self.daemon, keys)
        summary = self._summary(plain)
        self.daemon.stop()
        fresh = self._start_daemon("traced")
        request_bytes: list[int] = []

        def count_bytes(_extra, line):
            request_bytes.append(len(line))

        targets = [
            (SolveTaskSpec, "to_dict", "server.SolveTaskSpec.to_dict"),
            (client_mod, "encode_line", "server.encode_line", count_bytes),
            (client_mod, "decode_line", "server.decode_line"),
            (client_mod, "solve_result_from_dict", "core.solve_result_from_dict"),
            (client_mod.ServiceClient, "solve", "server.ServiceClient.solve"),
        ]
        with tracer.patch(targets):
            traced = self._drive(fresh, keys)
        fresh.stop()

        n = max(1, len(tracer.named("server.ServiceClient.solve")))
        encode_us = (tracer.total("server.SolveTaskSpec.to_dict") + tracer.total("server.encode_line")) / n * 1e6
        decode_us = (tracer.total("server.decode_line") + tracer.total("core.solve_result_from_dict")) / n * 1e6
        self._verdict = self._check()
        solve_s = self._verdict[1]

        # daemon-side codec and cache probe, on this process's copy of the code
        codec, hit = [], []
        cache = SolveCache(maxsize=CACHE_SIZE)
        answered = [(key, result) for key, result, _ in self.answers if result is not None]
        for key, result in answered[:200]:
            app, plat, handle, bounds = self._task(key)
            spec = SolveTaskSpec(app, plat, handle.name, **bounds)
            line = encode_line({"op": "solve", "id": 1, "task": spec.to_dict()})
            reply = {"kind": "result", "id": 1, "index": 0, "result": solve_result_to_dict(result)}
            start = time.perf_counter()
            SolveTaskSpec.from_dict(decode_line(line)["task"])
            encode_line(reply)
            codec.append(time.perf_counter() - start)
            cache_key = solve_key(app, plat, handle, handle.default_request(**bounds))
            cache.put(cache_key, result)
            with tracer.span("cache.get"):
                start = time.perf_counter()
                cache.get(cache_key)
                hit.append(time.perf_counter() - start)

        before, after = plain["before"], plain["after"]
        co_b, co_a = before["coalescer"], after["coalescer"]
        ca_b, ca_a = before["cache"], after["cache"]
        batches = co_a["n_batches"] - co_b["n_batches"]
        lookups = (ca_a["hits"] - ca_b["hits"]) + (ca_a["misses"] - ca_b["misses"])
        metrics = {
            "server.ping_rtt_ms": plain["ping_rtt_s"] * 1e3,
            "server.encode_us": encode_us,
            "server.request_bytes": statistics.fmean(request_bytes),
            "server.decode_us": decode_us,
            "server.daemon_codec_us": statistics.median(codec) * 1e6,
            "server.batches": batches,
            "server.batch_size_mean": (co_a["n_enqueued"] - co_b["n_enqueued"]) / max(1, batches),
            "server.coalesced": co_a["n_coalesced"] - co_b["n_coalesced"],
            "cache.hit_rate": (ca_a["hits"] - ca_b["hits"]) / max(1, lookups),
            "cache.get_hit_us": statistics.median(hit) * 1e6,
            "cache.evictions": ca_a["evictions"] - ca_b["evictions"],
            "solvers.miss_solve_ms": solve_s * 1e3,
            "trace.overhead_pct": (
                self._summary(traced)["metrics"]["latency_p50_ms"] / summary["metrics"]["latency_p50_ms"] - 1
            ) * 100.0,
        }
        pairs = [(inst.application, inst.platform) for inst in self.instances[:50]]
        metrics.update(probe_core(pairs, tracer))
        metrics.update(
            probe_heuristics(
                pairs,
                float(self.period_grid[N_THRESHOLDS // 2]),
                float(self.latency_grid[N_THRESHOLDS // 2]),
                tracer,
            )
        )
        attributed_ms = (
            (encode_us + decode_us + metrics["server.daemon_codec_us"]
             + metrics["core.identity.digest_us"] + metrics["cache.get_hit_us"]) / 1e3
            + metrics["server.ping_rtt_ms"]
        )
        metrics["server.unattributed_ms"] = (
            summary["detail"]["uncalibrated"]["latency_p50_ms"] - attributed_ms
        )
        return metrics

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    def provenance(self) -> dict[str, Any]:
        from repro.cli import build_parser

        flags = vars(build_parser().parse_args(["serve", "--socket", "d.sock"]))
        return {
            "daemon_flags": {k: v for k, v in flags.items() if k != "command"},
            "clients": CLIENTS,
            "zipf_s": ZIPF_S,
            "keys": N_INSTANCES * len(SOLVERS) * N_THRESHOLDS,
            "stream_requests": len(self.keys),
        }


def _metrics(segments: list[tuple[float, list[float]]], scales: list[float]) -> dict[str, float]:
    """Request rate and latency percentiles over every answered request, with
    each segment's times multiplied by its scale."""
    seconds = sum(wall * scale for (wall, _), scale in zip(segments, scales))
    scaled = [
        latency * scale
        for (_, latencies), scale in zip(segments, scales)
        for latency in latencies
    ]
    return {
        "throughput_per_s": len(scaled) / seconds,
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p99_ms": percentile(scaled, 99) * 1e3,
    }
