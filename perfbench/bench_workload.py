"""Workload process: set up one workload, signal readiness, measure, report.

Started by ``run.py`` with ``repro`` importable from ``src``.  It speaks a
line protocol on its standard output: ``READY`` once set-up is done (the
launcher times set-up up to that line), then ``RESULT <json>``.  Anything
else the process prints goes to standard error, so the protocol stays clean.

    python3 perfbench/bench_workload.py --workload W --seed N --seconds S \
        --trace 0|1 --run-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from bench_common import program_provenance
from bench_trace import Tracer


def _workload(name: str, seed: int, seconds: float, tracer: Tracer, run_dir: Path):
    if name == "sweep-paper":
        import wl_sweep_paper

        return wl_sweep_paper.Workload(seed, seconds, tracer)
    if name == "serve-zipf":
        import wl_serve_zipf

        return wl_serve_zipf.Workload(seed, seconds, tracer, run_dir)
    if name == "fuzz-oracle":
        import wl_fuzz_oracle

        return wl_fuzz_oracle.Workload(seed, seconds, tracer)
    raise SystemExit(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # keep the protocol on a private copy of stdout; stray prints go to stderr
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    tracer = Tracer()
    workload = _workload(args.workload, args.seed, args.seconds, tracer, Path(args.run_dir))
    try:
        workload.setup()
        protocol.write("READY\n")
        if args.setup_only:
            return 0
        outcome: dict = {}
        if args.trace:
            outcome["per_layer"] = workload.trace()
            outcome["self_s"] = tracer.self_times()
            outcome["spans"] = len(tracer.spans)
            trace_path = Path(args.run_dir).parent / "traces" / (
                f"{args.workload}-seed{args.seed}.trace.json"
            )
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome(str(trace_path))
            outcome["trace_file"] = str(trace_path)
        else:
            outcome.update(workload.measure())
        outcome["attempted"] = workload.attempted
        outcome["failed"] = outcome.get("failed", 0) + workload.check()
        outcome["program"] = program_provenance()
        outcome["workload"] = workload.provenance()
        protocol.write("RESULT " + json.dumps(outcome) + "\n")
        return 0
    except Exception:  # noqa: BLE001 - reported to the launcher as a failed run
        traceback.print_exc()
        return 1
    finally:
        workload.close()
        protocol.close()


if __name__ == "__main__":
    sys.exit(main())
