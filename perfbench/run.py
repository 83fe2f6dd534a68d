#!/usr/bin/env python3
"""Repository benchmark: run one workload from a seed and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one measures.  This launcher uses the
standard library and numpy only.  It starts the workload process (``bench_workload.py``)
with ``repro`` importable from ``src``, the ``REPRO_*`` switches below
cleared, and a hard deadline, then:

* times set-up in ``SETUP_SAMPLES`` set-up-only runs, from process start to
  the workload's ``READY`` line, each calibrated by reference passes before
  and after it (``bench_reference.py``), and reports the median as
  ``setup_s``;
* reports the largest resident set among itself and every process it waited
  for (workload processes, daemons, pool workers) as ``peak_rss_mb``;
* kills whatever is left of each workload process group, removes the run's
  socket directory and counts new ``/dev/shm`` segments as failures;
* writes a result record with provenance under ``.perfbench-out/results/``
  and prints, last, one JSON line: ``correct``, ``attempted``, ``failed`` and
  the end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``).

It exits 0 only when every op succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from bench_reference import REFERENCE_PASS_S, reference_s

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench-out")
#: cleared in every child so the benchmark measures the program's defaults
SCRUBBED_ENV = (
    "REPRO_BACKEND",
    "REPRO_DISABLE_FRONTIER",
    "REPRO_DISABLE_SHM",
    "REPRO_KERNELS_DISABLE",
    "REPRO_ELEMENTWISE_COMPILED_MIN",
)
SETUP_SAMPLES = 3
#: reference passes per CPU in each calibration sample
REFERENCE_PASSES = 2
#: wall-clock budget of the workload processes of one invocation
BUDGET_S = 160.0
CLI_PROBES = 5


class Child:
    """A workload process in its own session, its stdout read line by line."""

    def __init__(self, argv: list[str], env: dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, prefix: str, deadline: float) -> str | None:
        """The rest of the next line starting with ``prefix``, or ``None``."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                return None
            if line is None:
                return None
            if line.startswith(prefix):
                return line[len(prefix):]

    def finish(self, deadline: float) -> None:
        """Wait for the process to exit, at most until the deadline."""
        try:
            self.proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass

    def reap(self) -> None:
        """Give the process group 5 s to empty, then SIGKILL what is left."""
        group = self.proc.pid
        if self.proc.poll() is None:
            _killpg(group, signal.SIGKILL)
        self.proc.wait()
        grace = time.perf_counter() + 5.0
        while _killpg(group, 0) and time.perf_counter() < grace:
            time.sleep(0.05)
        _killpg(group, signal.SIGKILL)
        self.proc.stdout.close()


class SetupSample(NamedTuple):
    """One set-up time and the reference-pass seconds around it."""

    elapsed_s: float
    reference_before_s: float
    reference_after_s: float

    @property
    def calibrated_s(self) -> float:
        reference = (self.reference_before_s + self.reference_after_s) / 2
        return self.elapsed_s / reference * REFERENCE_PASS_S


def _killpg(group: int, sig: int) -> bool:
    """Signal a process group; ``False`` once the group is gone."""
    try:
        os.killpg(group, sig)
    except ProcessLookupError:
        return False
    return True


def child_env() -> tuple[dict[str, str], dict[str, str]]:
    """(environment for children, the ``REPRO_*`` switches it cleared)."""
    env = dict(os.environ)
    scrubbed = {name: env.pop(name) for name in SCRUBBED_ENV if name in env}
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the compiled-kernel verdict builds its library here, inside the checkout
    env["REPRO_KERNEL_CACHE"] = str((OUT / "kernel-cache").resolve())
    return env, scrubbed


def shm_segments() -> set[str]:
    """POSIX shared-memory segments Python created (``psm_*``)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def cli_probes(env: dict[str, str]) -> dict[str, float]:
    """``cli.interpreter_s`` (bare interpreter) and ``cli.import_s`` (minus it)."""
    def timed(code: str) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - start

    bare, imported = [], []
    for _ in range(CLI_PROBES):
        bare.append(timed("pass"))
        imported.append(timed("import repro.cli"))
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": statistics.median(imported) - interpreter,
    }


def provenance(scrubbed: dict[str, str]) -> dict[str, object]:
    """Where and on what the numbers were measured."""
    sha = None
    if Path(".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scrubbed_env": scrubbed,
    }


def run_workload(
    args: argparse.Namespace, env: dict[str, str], run_dir: Path, deadline: float
) -> tuple[dict | None, list[SetupSample], str | None]:
    """(workload result, set-up samples, error) of the set-up probes and run."""
    argv = [
        sys.executable, str(HERE / "bench_workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    samples: list[SetupSample] = []
    cpus = sorted(os.sched_getaffinity(0))
    for _ in range(SETUP_SAMPLES):
        before = reference_s(cpus, REFERENCE_PASSES)
        child = Child(argv + ["--setup-only"], env)
        try:
            if child.expect("READY", deadline) is None:
                return None, samples, "a set-up run ended or timed out before READY"
            elapsed = time.perf_counter() - child.started
            child.finish(deadline)
        finally:
            child.reap()
        samples.append(SetupSample(elapsed, before, reference_s(cpus, REFERENCE_PASSES)))
    child = Child(argv, env)
    try:
        if child.expect("READY", deadline) is None:
            return None, samples, "the workload ended or timed out before READY"
        payload = child.expect("RESULT ", deadline)
        child.finish(deadline)
    finally:
        child.reap()
    if payload is None:
        return None, samples, "the workload ended or timed out without a result"
    return json.loads(payload), samples, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/repro/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the repository root (src/repro and BENCHMARK.json "
              "must exist)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S

    env, scrubbed = child_env()
    run_dir = OUT / f"run-{os.getpid()}"
    shm_before = shm_segments()
    try:
        result, samples, error = run_workload(args, env, run_dir, deadline)
        cli = cli_probes(env) if args.trace and error is None else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    leaked = sorted(shm_segments() - shm_before)

    if error is not None:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        declared = spec["per_layer"]
        values = dict(result["per_layer"], **cli)
        values.update(
            {f"layer.{layer}.self_s": seconds for layer, seconds in result["self_s"].items()}
        )
        values["trace.spans"] = result["spans"]
    else:
        declared = spec["end_to_end"]
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(sample.calibrated_s for sample in samples)
        values["peak_rss_mb"] = peak_rss_mb()
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        print(f"error: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    # a layer the workload never calls reads 0 (no time spent, nothing counted);
    # every end-to-end metric must have been measured
    metrics = {
        m["name"]: {
            "value": float(values.get(m["name"], 0.0) if args.trace else values[m["name"]]),
            "unit": m["unit"],
        }
        for m in declared
    }
    failed = int(result["failed"]) + len(leaked)
    attempted = max(1, int(result["attempted"]))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **summary,
        "aliases": result.get("aliases", {}),
        "detail": result.get("detail", {}),
        "setup_samples": [sample._asdict() for sample in samples],
        "leaked_shm": leaked,
        "trace_file": result.get("trace_file"),
        "provenance": {
            **provenance(scrubbed),
            "program": result["program"],
            "workload": result["workload"],
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} (seed {args.seed}): {why}")
    for name, metric in metrics.items():
        alias = record["aliases"].get(name)
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  ops attempted {attempted}, failed {failed}; record {target}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
