"""Worker death: a SIGKILLed pool worker raises, it never hangs.

A worker can die under the pool at any time — the OOM killer, a crash in
the ctypes C kernel.  Contracts under test, each with a worker that
SIGKILLs itself mid-map:

* :func:`~repro.utils.parallel.parallel_map` raises
  :class:`~concurrent.futures.process.BrokenProcessPool`, and the next
  ``parallel_map`` forks fresh shared workers and returns the serial answer;
* :class:`~repro.utils.parallel.WorkerPool` raises too, and the next
  :meth:`~repro.utils.parallel.WorkerPool.map` on the same pool forks fresh
  workers and returns the serial answer — also after a worker died while
  the pool sat idle;
* a ``workers=2`` daemon answers every request of the affected batch with
  an error, answers the next request exactly like ``solve_many``, and its
  ``stats`` op still answers.

* a parent SIGKILLed after its maps leaves no worker behind: those of the
  shared ``parallel_map`` pool and of a ``WorkerPool`` exit on their own.

Each case runs as a script in its own process session under a hard
timeout: a pool that waits forever for the dead worker's result fails the
test (and its whole process group is killed) instead of hanging the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: seconds a case may take; a healthy run needs a few, a hang never ends
_TIMEOUT = 60.0

_PRELUDE = """\
import os
import signal

VICTIM = 3


def square_or_die(x):
    if x == VICTIM:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x
"""

_PARALLEL_MAP_SCRIPT = _PRELUDE + """
from concurrent.futures.process import BrokenProcessPool

from repro.utils.parallel import parallel_map

items = list(range(10, 30))
try:
    parallel_map(square_or_die, range(8), workers=2, batch_size=1)
except BrokenProcessPool:
    print("broken")
assert parallel_map(square_or_die, items, workers=2) == [square_or_die(x) for x in items]
print("respawned")
"""

_ORPHAN_SCRIPT = _PRELUDE + """
import sys

from repro.utils import parallel
from repro.utils.parallel import WorkerPool, parallel_map

parallel_map(square_or_die, range(10, 30), workers=2)
pool = WorkerPool(workers=2)
pool.map(square_or_die, range(10, 30))
pids = [*parallel._SHARED[2]._executor._processes, *pool._executor._processes]
print(*pids, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

_WORKER_POOL_SCRIPT = _PRELUDE + """
import time
from concurrent.futures.process import BrokenProcessPool

from repro.utils.parallel import WorkerPool

items = list(range(10, 30))
with WorkerPool(workers=2) as pool:
    try:
        pool.map(square_or_die, range(8), batch_size=1)
    except BrokenProcessPool:
        print("broken")
    assert pool.map(square_or_die, items) == [square_or_die(x) for x in items]
    assert pool.map(square_or_die, items) == [square_or_die(x) for x in items]
    print("respawned")
    # a worker dying while the pool sits idle costs the next map nothing
    os.kill(next(iter(pool._executor._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._executor._broken and time.monotonic() < deadline:
        time.sleep(0.01)  # until the executor has seen the death
    assert pool.map(square_or_die, items) == [square_or_die(x) for x in items]
    print("idle death absorbed")
"""

_DAEMON_SCRIPT = """\
import os
import signal
import tempfile
import threading
import time

from repro.generators.experiments import experiment_config, generate_instances
from repro.server import DaemonConfig, DaemonThread, ServiceClient, ServiceError
from repro.server import SolveTaskSpec
from repro.solvers.base import Objective, SolverFamily
from repro.solvers.registry import SolverSpec, get_solver, register_solver
from repro.solvers.service import solve_many

DAEMON_PID = os.getpid()
GATE_ENTERED, GATE_OPEN = threading.Event(), threading.Event()
solve_h1 = get_solver("H1").spec.solve_fn


def kill_own_worker(app, platform, request):
    if os.getpid() == DAEMON_PID:  # never take the daemon down with it
        raise RuntimeError("the worker-killing task ran in the daemon")
    os.kill(os.getpid(), signal.SIGKILL)


def gate(app, platform, request):
    # a lone task runs on the daemon's solver thread: hold it there
    GATE_ENTERED.set()
    GATE_OPEN.wait(timeout=30.0)
    return solve_h1(app, platform, request)


for name, solve_fn in [("worker-killer", kill_own_worker), ("test-gate", gate)]:
    register_solver(SolverSpec(
        name=name, key=name, family=SolverFamily.HEURISTIC,
        objective=Objective.MIN_LATENCY_FOR_PERIOD, solve_fn=solve_fn,
    ))
instances = generate_instances(experiment_config("E1", 8, 6, n_instances=6), seed=3)
pairs = [(inst.application, inst.platform) for inst in instances]


def spec(pair, solver):
    return SolveTaskSpec(
        application=pair[0], platform=pair[1], solver=solver, period_bound=12.0,
    )


def open_gate_once_pending(host, n_tasks):
    # open the gate once the tasks are all pending behind it, so they flush
    # as one batch
    coalescer = host.daemon.coalescer
    deadline = time.monotonic() + 30.0
    while coalescer.n_enqueued < 1 + n_tasks and time.monotonic() < deadline:
        time.sleep(0.005)
    GATE_OPEN.set()


sock = os.path.join(tempfile.mkdtemp(), "daemon.sock")
config = DaemonConfig(socket_path=sock, workers=2)
with DaemonThread(config) as host, ServiceClient(sock, timeout=30.0) as client, \
        ServiceClient(sock, timeout=30.0) as gate_client:
    holder = threading.Thread(
        target=gate_client.solve_batch, args=([spec(pairs[5], "test-gate")],)
    )
    holder.start()
    GATE_ENTERED.wait(timeout=30.0)
    doomed = [spec(pairs[0], "worker-killer")] + [spec(p, "H1") for p in pairs[1:3]]
    opener = threading.Thread(target=open_gate_once_pending, args=(host, len(doomed)))
    opener.start()
    try:
        client.solve_batch(doomed)
    except ServiceError as exc:
        print("batch failed:", str(exc).split(":")[0])
    opener.join(timeout=30.0)
    holder.join(timeout=30.0)
    assert not opener.is_alive() and not holder.is_alive()
    reply = client.solve_batch([spec(p, "H1") for p in pairs])
    reference = solve_many(pairs, ["H1"], period_bound=12.0).results
    assert [r.identity() for r in reply.results] == [
        row[0].identity() for row in reference
    ]
    print("answered")
    stats = client.stats()
    print("stats:", stats["workers"], stats["requests"]["n_errors"])
"""


def _run(script: str) -> list[str]:
    """Run ``script`` in a new session; its stdout lines, or fail on a hang."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the script and its workers
        process.communicate()
        pytest.fail(f"hung for {_TIMEOUT:.0f}s after a worker was killed")
    assert process.returncode == 0, stderr
    return stdout.splitlines()


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:  # reaped meanwhile
        return True


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
class TestWorkerDeath:
    def test_parallel_map_raises_broken_pool(self):
        assert _run(_PARALLEL_MAP_SCRIPT) == ["broken", "respawned"]

    def test_workers_exit_when_their_parent_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the parent script never killed itself")
        assert process.returncode == -signal.SIGKILL, stderr
        pids = [int(pid) for pid in stdout.split()]
        assert len(pids) == 4
        deadline = time.monotonic() + 5.0
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in pids if not _gone(pid)]
        for pid in alive:  # do not leave them behind either way
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"workers {alive} outlived their parent"

    def test_worker_pool_raises_then_respawns(self):
        assert _run(_WORKER_POOL_SCRIPT) == [
            "broken",
            "respawned",
            "idle death absorbed",
        ]

    def test_daemon_fails_the_batch_and_keeps_serving(self):
        assert _run(_DAEMON_SCRIPT) == [
            "batch failed: 3 of 3 tasks failed",
            "answered",
            "stats: 2 3",
        ]
