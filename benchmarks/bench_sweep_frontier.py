"""Speedup gate of frontier-routed sweeps over the per-threshold path.

The acceptance case of the frontier-solve layer: a threshold sweep asks
each solver the *same* question at every grid point, so the engine can run
one exhaustion/frontier solve per (instance, solver) and extract every
threshold from the recorded curve.  On a 10-threshold sweep of the two
3-Exploration heuristics at paper-plus scale (n=200 stages, p=12) the
frontier route must be **at least 5x** faster end-to-end than the
per-threshold route, while producing bit-identical curves
(``sweep_results_equal``, asserted here before any speed claim).  Each
route is timed ``REPEATS`` times, the two routes alternating, and the gate
compares the medians: a single ~0.1 s frontier timing swings the ratio by
more than its margin on a shared host.

Two artefacts are written:

* ``benchmarks/results/sweep_frontier.txt`` — human-readable table;
* ``BENCH_sweep.json`` at the repo root — machine-readable trajectory
  point (sizes, both wall times, amortisation ratio) for tracking perf
  over time; ``docs/performance.md`` quotes it.

Running the module as a script (``python benchmarks/bench_sweep_frontier.py
--smoke``) performs the same measurement at a smaller size without the
pytest harness.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from bench_utils import write_report
from repro.experiments.sweep import run_sweep, sweep_results_equal
from repro.generators.experiments import experiment_config

#: the swept solvers: the strongest heuristic pair of the paper, whose
#: O(n^2) first-split search dominates each run — exactly the profile the
#: frontier layer amortises across thresholds
SOLVERS = ("3-Explo mono", "3-Explo bi")

#: experimental point of the gate (beyond the paper's n=100 panels, where
#: per-run cost — and thus the amortisation win — is unambiguous)
N_STAGES = 200
N_PROCESSORS = 12
N_INSTANCES = 4
N_THRESHOLDS = 10
SEED = 1

#: required end-to-end speedup of the frontier route on the 10-point sweep
MIN_FRONTIER_SPEEDUP = 5.0

#: timed runs of each route (alternating); the gate reads their medians
REPEATS = 5

_ROOT = Path(__file__).resolve().parent.parent
_JSON_PATH = _ROOT / "BENCH_sweep.json"


def measure(smoke: bool = False) -> dict:
    """Time sweeps per-threshold vs frontier-routed, identical inputs.

    ``REPEATS`` alternated runs of each route; every pair must produce
    identical curves, and the reported times are the medians.
    """
    n = 60 if smoke else N_STAGES
    p = 8 if smoke else N_PROCESSORS
    n_instances = 2 if smoke else N_INSTANCES
    config = experiment_config("E1", n, p, n_instances=n_instances)
    sweep_args = dict(
        heuristics=list(SOLVERS),
        n_thresholds=N_THRESHOLDS,
        seed=SEED,
        workers=1,
    )
    times: dict[bool, list[float]] = {False: [], True: []}
    for repeat in range(REPEATS):
        curves = {}
        for frontier in (False, True) if repeat % 2 == 0 else (True, False):
            start = time.perf_counter()
            curves[frontier] = run_sweep(config, frontier=frontier, **sweep_args)
            times[frontier].append(time.perf_counter() - start)
        # identical curves before any speed claim
        assert sweep_results_equal(curves[False], curves[True])
    t_direct = statistics.median(times[False])
    t_frontier = statistics.median(times[True])
    return {
        "label": config.label,
        "n_stages": n,
        "n_processors": p,
        "n_instances": n_instances,
        "n_thresholds": N_THRESHOLDS,
        "solvers": list(SOLVERS),
        "repeats": REPEATS,
        "per_threshold_s": t_direct,
        "frontier_s": t_frontier,
        "per_threshold_runs_s": times[False],
        "frontier_runs_s": times[True],
        "speedup": t_direct / t_frontier,
    }


def render(data: dict) -> str:
    return "\n".join(
        [
            f"frontier sweep amortisation gate ({data['label']}, "
            f"n={data['n_stages']}, p={data['n_processors']}, "
            f"{data['n_instances']} instances x {data['n_thresholds']} "
            f"thresholds x {len(data['solvers'])} solvers)",
            "",
            f"{'route':<16} {'median wall time':>18}   ({data['repeats']} alternated runs)",
            "-" * 35,
            f"{'per-threshold':<16} {data['per_threshold_s'] * 1e3:>16.0f}ms",
            f"{'frontier':<16} {data['frontier_s'] * 1e3:>16.0f}ms",
            "",
            f"speedup: {data['speedup']:.2f}x of the medians (identical curves)",
        ]
    )


def persist(data: dict) -> None:
    write_report("sweep_frontier", render(data))
    _JSON_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def check(data: dict, *, smoke: bool = False) -> None:
    # the smoke size is too small to amortise the full 5x; the real run
    # must show the win that motivated the layer
    if not smoke:
        speedup = data["speedup"]
        assert speedup >= MIN_FRONTIER_SPEEDUP, (
            f"frontier sweep only {speedup:.2f}x faster than per-threshold "
            f"(need >= {MIN_FRONTIER_SPEEDUP:.0f}x)"
        )


def test_frontier_sweep_is_5x_faster():
    data = measure()
    persist(data)
    check(data)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="gate the frontier-solve layer: >= 5x on a "
        "10-threshold sweep vs the per-threshold path, identical curves"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller instances and no ratio gate (identity still asserted)",
    )
    cli_args = parser.parse_args()
    bench_data = measure(smoke=cli_args.smoke)
    print(render(bench_data))
    persist(bench_data)
    print(f"trajectory point written to {_JSON_PATH}")
    check(bench_data, smoke=cli_args.smoke)
