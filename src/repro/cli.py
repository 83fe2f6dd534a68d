"""Command-line interface of the reproduction.

The ``repro-pipeline`` entry point exposes the main workflows:

* ``solve``     — run any registered solver (or a whole family) on an
  explicit instance, via the unified solver registry;
* ``solvers``   — list the registered solvers and their capability tags;
* ``batch``     — batch-solve an instance stream through the memoising
  service layer (:func:`repro.solvers.service.solve_many`): identical
  instances are deduped, cached results are reused, only the rest is
  solved;
* ``sweep``     — reproduce one latency-versus-period figure panel (Figs. 2–7);
* ``failure``   — reproduce one quadrant of Table 1 (failure thresholds);
* ``ablation``  — run the design-choice ablations;
* ``validate``  — cross-check the analytical model against the simulators;
* ``fuzz``      — differential verification: stream random scenarios through
  every applicable solver and both simulators, shrink any disagreement to a
  minimal counterexample (optionally persisting it into the regression
  corpus under ``tests/corpus/``); ``--journal``/``--resume`` checkpoint
  and resume long runs;
* ``run``       — execute a declarative workload spec file (JSON/TOML)
  through the workload engine (:mod:`repro.workloads`): ``--journal`` +
  ``--resume`` make runs interruption-safe (a resumed run re-executes only
  the incomplete tasks and prints a byte-identical final report),
  ``--sink`` streams per-task results to JSONL/CSV files, ``--max-tasks``
  caps a run for smoke tests, and ``--shard I/N`` executes one
  deterministic shard of the plan's task list (split a campaign over
  processes or hosts, one journal per shard);
* ``merge-journals`` — fold the shard journals of one plan back into a
  single journal that ``run --journal ... --resume`` replays into the
  final report, byte-identical to an unsharded run;
* ``serve``     — run the persistent solver daemon (:mod:`repro.server`):
  one warm solve cache and worker pool serving many clients over a unix
  socket, with single-flight coalescing of identical in-air requests and
  micro-batching of concurrent distinct ones;
* ``client``    — talk to a running daemon (``ping``, ``stats``,
  ``solve``); ``batch --server SOCKET`` routes the ordinary batch command
  through a daemon with byte-identical stdout.

All output is plain text (the environment is headless); every command accepts
``--seed`` so results are reproducible.  The experiment commands additionally
take ``--workers`` / ``--batch-size``: the experiment engine dispatches
independent work items (instances, thresholds) to a process pool in chunks,
and reports are byte-identical whatever the worker count.  The ``--workers``
default is single-sourced from :data:`repro.utils.parallel.DEFAULT_WORKERS`
and documented identically on every command that forwards to the pool.

``solve``, ``batch``, ``sweep`` and ``fuzz`` take ``--cache`` /
``--no-cache`` / ``--cache-dir DIR``: solver runs are memoised in the
content-addressed solve cache (:mod:`repro.cache`).  ``--cache-dir`` makes
the store persistent and shareable — a second invocation (or a worker
process) starts warm — and since solvers are deterministic, reports are
byte-identical whether the cache is cold, warm or absent (cache statistics
go to stderr).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Sequence

from . import __version__
from .cache import SolveCache
from .core import kernels
from .core.application import PipelineApplication
from .core.costs import evaluate
from .core.exceptions import ConfigurationError, ReproError
from .core.identity import instance_digest
from .core.platform import Platform
from .experiments.ablation import (
    exploration_width_ablation,
    processor_order_ablation,
    selection_rule_ablation,
)
from .experiments.failure import failure_threshold_table
from .experiments.report import (
    render_ablation,
    render_failure_table,
    render_sweep,
)
from .experiments.sweep import run_sweep
from .generators.experiments import experiment_config, generate_instances
from .solvers.base import Objective
from .solvers.registry import GROUP_SELECTORS, resolve_solvers, solver_specs
from .solvers.service import solve_many, solve_with_cache
from .utils.parallel import DEFAULT_WORKERS, parallel_map

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-pipeline",
        description="Bi-criteria pipeline mapping (Benoit, Rehn-Sonigo, Robert 2007).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
        help="print the package version (single-sourced from repro.__version__)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="run one or several registered solvers on an explicit instance"
    )
    solve.add_argument("--works", type=float, nargs="+", required=True,
                       help="per-stage computation amounts w_1 .. w_n")
    solve.add_argument("--comms", type=float, nargs="+", required=True,
                       help="data sizes delta_0 .. delta_n (n+1 values)")
    solve.add_argument("--speeds", type=float, nargs="+", required=True,
                       help="processor speeds s_1 .. s_p")
    solve.add_argument("--bandwidth", type=float, default=10.0, help="link bandwidth b")
    solve.add_argument("--solver", "--heuristic", dest="solver", default="H1",
                       help="solver name/key from the unified registry, or a group: "
                            "all, heuristics, exact, extensions (see 'repro solvers')")
    solve.add_argument("--period", type=float, default=None, help="period bound")
    solve.add_argument("--latency", type=float, default=None, help="latency bound")
    _add_budget_arguments(solve)
    _add_cache_arguments(solve)

    batch = sub.add_parser(
        "batch",
        help="batch-solve an instance stream through the memoising service layer",
    )
    _add_experiment_arguments(batch)
    batch.add_argument("--solver", default="heuristics",
                       help="solver name/key or group to fan out "
                            "(inapplicable solvers of a group are skipped)")
    batch.add_argument("--period", type=float, default=None, help="period bound")
    batch.add_argument("--latency", type=float, default=None, help="latency bound")
    batch.add_argument("--repeat", type=_positive_int_arg, default=1,
                       help="replicate the instance stream N times (a "
                            "repeated-instance workload: the service solves "
                            "each distinct instance once)")
    batch.add_argument("--server", default=None, metavar="SOCKET",
                       help="route the batch through the solver daemon "
                            "listening on this unix socket instead of "
                            "solving in-process (stdout is byte-identical; "
                            "the cache and the worker pool live in the "
                            "daemon, so local cache/worker flags are "
                            "ignored)")
    _add_budget_arguments(batch)
    _add_cache_arguments(batch)

    solvers = sub.add_parser(
        "solvers", help="list the registered solvers and their capability tags"
    )
    solvers.add_argument(
        "--family", choices=("heuristic", "exact", "extension"), default=None,
        help="restrict the listing to one family",
    )

    sweep = sub.add_parser("sweep", help="reproduce one latency-vs-period figure panel")
    _add_experiment_arguments(sweep)
    sweep.add_argument("--thresholds", type=_positive_int_arg, default=10,
                       help="number of threshold values per heuristic family")
    sweep.add_argument("--frontier", dest="frontier", action="store_true",
                       default=True,
                       help="answer each frontier-capable solver's whole "
                            "threshold grid from one frontier solve per "
                            "instance (the default; the report is "
                            "byte-identical either way)")
    sweep.add_argument("--no-frontier", dest="frontier", action="store_false",
                       help="force one solver run per threshold "
                            "(the pre-frontier execution path)")
    _add_cache_arguments(sweep)

    failure = sub.add_parser("failure", help="reproduce one quadrant of Table 1")
    failure.add_argument("--family", default="E1", help="experiment family E1..E4")
    failure.add_argument("--stages", type=int, nargs="+", default=[5, 10, 20, 40])
    failure.add_argument("--processors", type=int, default=10)
    failure.add_argument("--instances", type=_positive_int_arg, default=50)
    failure.add_argument("--seed", type=int, default=0)
    _add_parallel_arguments(failure)

    ablation = sub.add_parser("ablation", help="run the design-choice ablations")
    _add_experiment_arguments(ablation)
    ablation.add_argument(
        "--study",
        choices=("selection-rule", "exploration-width", "processor-order", "all"),
        default="all",
    )

    validate = sub.add_parser(
        "validate", help="cross-check the analytical model against the simulators"
    )
    _add_experiment_arguments(validate)
    validate.add_argument("--datasets", type=_positive_int_arg, default=50,
                          help="number of data sets pushed through the simulators")
    validate.add_argument("--solver", default="H1",
                          help="registered solver whose mapping is simulated")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential verification: fuzz every solver against the simulators",
    )
    fuzz.add_argument(
        "--families", nargs="+", default=None, metavar="FAMILY",
        help="scenario families to draw from (default: all; "
             "see --list-families)",
    )
    fuzz.add_argument("--count", type=_positive_int_arg, default=1000,
                      help="number of scenarios to stream through the oracle")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--datasets", type=_positive_int_arg, default=16,
                      help="data sets pushed through the simulators per mapping")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="persist shrunk counterexamples into this directory "
                           "(regression-corpus format)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report raw disagreeing instances without minimising")
    fuzz.add_argument("--list-families", action="store_true",
                      help="list the scenario families and exit")
    fuzz.add_argument("--journal", default=None, metavar="PATH",
                      help="checkpoint every verified scenario into this "
                           "JSONL journal (see 'run --journal')")
    fuzz.add_argument("--resume", action="store_true",
                      help="replay the journal of an interrupted run of the "
                           "same stream and verify only the rest")
    _add_parallel_arguments(fuzz)
    _add_cache_arguments(fuzz)

    run = sub.add_parser(
        "run",
        help="execute a declarative workload spec file through the engine",
    )
    run.add_argument("spec", metavar="SPEC",
                     help="workload spec file (.json or .toml; see docs)")
    run.add_argument("--journal", default=None, metavar="PATH",
                     help="JSONL checkpoint journal: every completed task is "
                          "appended so an interrupted run can be resumed")
    run.add_argument("--resume", action="store_true",
                     help="replay the journal's completed tasks and execute "
                          "only the rest; the final report is byte-identical "
                          "to an uninterrupted run")
    run.add_argument("--sink", action="append", default=None, metavar="PATH",
                     help="stream per-task result rows into PATH "
                          "(.jsonl or .csv; repeatable)")
    run.add_argument("--max-tasks", type=_positive_int_arg, default=None,
                     metavar="N",
                     help="execute at most N incomplete tasks, then stop "
                          "(exit status 3; resume later with --resume)")
    run.add_argument("--shard", type=_shard_arg, default=None, metavar="I/N",
                     help="execute only shard I of N (a deterministic "
                          "partition of the task list by task digest; "
                          "requires --journal); run every shard — on any "
                          "mix of processes or hosts — then fold the "
                          "journals with 'merge-journals' and finish with "
                          "--resume; a shared --cache-dir deduplicates "
                          "solve work across shards")
    _add_parallel_arguments(run)
    _add_cache_arguments(run)

    cache = sub.add_parser(
        "cache", help="manage a persistent --cache-dir solve-cache directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser(
        "prune",
        help="evict oldest content-addressed blobs until the directory "
             "fits a byte budget",
    )
    prune.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="the cache directory to prune (as passed to "
                            "--cache-dir elsewhere)")
    prune.add_argument("--max-bytes", type=_nonnegative_int_arg, required=True,
                       metavar="N",
                       help="target size: blobs are removed oldest-first "
                            "(by mtime) until at most N bytes remain")

    merge = sub.add_parser(
        "merge-journals",
        help="merge shard journals of one plan into a single resumable journal",
    )
    merge.add_argument("inputs", nargs="+", metavar="JOURNAL",
                       help="shard journal files; each must pin the same "
                            "plan digest and journal schema")
    merge.add_argument("--output", "-o", required=True, metavar="PATH",
                       help="merged journal path (written atomically); "
                            "replay it with 'run SPEC --journal PATH --resume'")

    serve = sub.add_parser(
        "serve",
        help="run the persistent solver daemon on a unix socket "
             "(warm cache + worker pool shared by every client; "
             "SIGTERM drains gracefully)",
    )
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="unix socket to listen on (created on start, "
                            "removed on drain)")
    serve.add_argument("--cache-size", type=_positive_int_arg, default=4096,
                       metavar="N",
                       help="capacity of the daemon's in-memory LRU solve "
                            "cache (the daemon always memoises; that is "
                            "its point)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="additionally persist the solve cache as "
                            "content-addressed blobs under DIR (the daemon "
                            "restarts warm)")
    serve.add_argument("--max-batch", type=_positive_int_arg, default=128,
                       metavar="N",
                       help="most solves one micro-batch takes; requests "
                            "that arrive while a batch runs form the next "
                            "one")
    _add_parallel_arguments(serve)

    client = sub.add_parser(
        "client", help="talk to a running solver daemon (see 'serve')"
    )
    csub = client.add_subparsers(dest="client_command", required=True)
    cping = csub.add_parser("ping", help="liveness probe (round-trip time)")
    cping.add_argument("--socket", required=True, metavar="PATH")
    cping.add_argument("--wait", type=_positive_float_arg, default=None,
                       metavar="SECONDS",
                       help="poll up to SECONDS for the daemon to come up "
                            "before pinging (for scripts that just "
                            "started one)")
    cstats = csub.add_parser(
        "stats",
        help="print the daemon's /stats snapshot as JSON (cache hit rate, "
             "in-flight count, batch-size histogram)",
    )
    cstats.add_argument("--socket", required=True, metavar="PATH")
    csolve = csub.add_parser(
        "solve", help="solve one explicit instance on the daemon"
    )
    csolve.add_argument("--socket", required=True, metavar="PATH")
    csolve.add_argument("--works", type=float, nargs="+", required=True,
                        help="per-stage computation amounts w_1 .. w_n")
    csolve.add_argument("--comms", type=float, nargs="+", required=True,
                        help="data sizes delta_0 .. delta_n (n+1 values)")
    csolve.add_argument("--speeds", type=float, nargs="+", required=True,
                        help="processor speeds s_1 .. s_p")
    csolve.add_argument("--bandwidth", type=float, default=10.0,
                        help="link bandwidth b")
    csolve.add_argument("--solver", "--heuristic", dest="solver", default="H1",
                        help="a single registered solver (groups need "
                             "'batch --server')")
    csolve.add_argument("--period", type=float, default=None, help="period bound")
    csolve.add_argument("--latency", type=float, default=None,
                        help="latency bound")
    _add_budget_arguments(csolve)

    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="E1", help="experiment family E1..E4")
    parser.add_argument("--stages", type=int, default=10, help="number of stages n")
    parser.add_argument("--processors", type=int, default=10, help="number of processors p")
    parser.add_argument("--instances", type=_positive_int_arg, default=20,
                        help="number of random application/platform pairs")
    parser.add_argument("--seed", type=int, default=0)
    _add_parallel_arguments(parser)


def _workers_arg(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < -1:
        raise argparse.ArgumentTypeError("must be >= -1 (-1 = all CPUs)")
    return n


def _positive_int_arg(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _nonnegative_int_arg(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _shard_arg(value: str) -> tuple[int, int]:
    try:
        index_text, count_text = value.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INDEX/COUNT (e.g. 0/3), got {value!r}"
        )
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard needs 0 <= INDEX < COUNT, got {value!r}"
        )
    return index, count


def _positive_float_arg(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    if x <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return x


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-steps", type=_positive_int_arg, default=None, metavar="N",
        help="step budget for anytime solvers (local-search-*): at most N "
             "improving moves; deterministic, so budgeted runs still cache",
    )
    parser.add_argument(
        "--time-budget", type=_positive_float_arg, default=None, metavar="SECONDS",
        help="wall-clock budget for anytime solvers; non-deterministic, so "
             "such runs bypass the solve cache",
    )


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_workers_arg, default=DEFAULT_WORKERS,
        help="worker processes for the experiment engine "
             f"(default: {DEFAULT_WORKERS} = serial, -1 = all CPUs); "
             "results are identical at any value",
    )
    parser.add_argument(
        "--batch-size", type=_positive_int_arg, default=None,
        help="work items per worker chunk (default: sized automatically)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", dest="use_cache", action="store_true", default=None,
        help="memoise solver runs in an in-memory LRU solve cache "
             "(results are identical with or without it)",
    )
    parser.add_argument(
        "--no-cache", dest="use_cache", action="store_false",
        help="disable solve-result memoisation (the default; an explicit "
             "--no-cache also overrides --cache-dir)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the solve cache as content-addressed JSON blobs under "
             "DIR (implies --cache; shared across runs and worker processes)",
    )


def _build_cache(args: argparse.Namespace) -> SolveCache | None:
    """The solve cache requested by --cache/--no-cache/--cache-dir, if any.

    ``use_cache`` is tri-state: ``None`` (neither flag given), ``True``
    (``--cache``) or ``False`` (an explicit ``--no-cache``, which wins over
    ``--cache-dir`` — the user asked for a cold, unmemoised run).
    """
    if args.use_cache is False:
        if args.cache_dir:
            print(
                "note: --no-cache overrides --cache-dir; "
                "solve memoisation disabled",
                file=sys.stderr,
            )
        return None
    if args.cache_dir:
        return SolveCache(directory=args.cache_dir)
    if args.use_cache:
        return SolveCache()
    return None


def _report_cache(cache: SolveCache | None, workers: int | None = None) -> None:
    """Cache statistics go to stderr: stdout reports stay byte-identical.

    The summary line (:meth:`SolveCache.describe`) includes the hit rate.
    The workload engine probes the cache in the *parent* process for every
    solve-style command, so its counters are complete there; only the fuzz
    oracle still probes inside the worker processes (pass ``workers=`` from
    that command), whose counters are not aggregated back — flag that
    instead of printing misleading zeros.
    """
    if cache is None:
        return
    print(cache.describe(), file=sys.stderr)
    if workers is not None and workers not in (0, 1):
        kind = "shared via its directory" if cache.directory else (
            "per worker chunk only — use --cache-dir to share it"
        )
        print(
            f"(workers={workers}: cache activity inside worker processes is "
            f"not counted above; the store is {kind})",
            file=sys.stderr,
        )


def _solver_bounds(
    solver, args: argparse.Namespace, *, strict: bool = False
) -> dict | str:
    """Map CLI ``--period`` / ``--latency`` onto a solver's objective.

    Returns the keyword arguments for ``solver.run`` or, when a required
    bound is missing, the name of the missing flag.  For the unconstrained
    objectives the opposite-criterion flag is forwarded — solvers that
    honour it (brute force) apply it, the others reject it with a clear
    ``ConfigurationError`` — while a flag on the criterion the solver
    already minimises is an error in ``strict`` (single-solver) mode and
    ignored in group mode, where it addresses the bounded solvers of the
    group.

    Anytime solvers additionally need ``--max-steps`` or ``--time-budget``;
    without one they are reported as missing ``--max-steps`` (skipped in
    group mode), and with one the budgets ride along in the returned
    keyword arguments (non-anytime solvers drop them).
    """
    max_steps = getattr(args, "max_steps", None)
    time_budget = getattr(args, "time_budget", None)
    if solver.needs_budget and max_steps is None and time_budget is None:
        return "--max-steps"
    budgets = (
        {"max_steps": max_steps, "time_budget": time_budget}
        if solver.needs_budget
        else {}
    )
    if solver.objective == Objective.MIN_LATENCY_FOR_PERIOD:
        if args.period is None:
            return "--period"
        return {"period_bound": args.period, **budgets}
    if solver.objective == Objective.MIN_PERIOD_FOR_LATENCY:
        if args.latency is None:
            return "--latency"
        return {"latency_bound": args.latency, **budgets}
    if solver.objective == Objective.MIN_PERIOD:
        if strict and args.period is not None:
            return (
                f"{solver.name} minimises the period unconditionally, so "
                "--period does not apply (did you mean a "
                "latency-for-period solver?)"
            )
        return {"latency_bound": args.latency, **budgets}
    if strict and args.latency is not None:
        return (
            f"{solver.name} minimises the latency unconditionally, so "
            "--latency does not apply (did you mean a "
            "period-for-latency solver?)"
        )
    return {"period_bound": args.period, **budgets}


def _cmd_solve(args: argparse.Namespace) -> int:
    app = PipelineApplication(args.works, args.comms, name="cli-instance")
    platform = Platform.communication_homogeneous(
        args.speeds, bandwidth=args.bandwidth, name="cli-platform"
    )
    selection = args.solver.strip()
    is_group = selection.lower() in GROUP_SELECTORS
    try:
        solvers = resolve_solvers(selection)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    cache = _build_cache(args)

    if not is_group:
        solver = solvers[0]
        bounds = _solver_bounds(solver, args, strict=True)
        if isinstance(bounds, str):
            if bounds.startswith("--"):
                bounds = f"this solver needs {bounds}"
            print(f"error: {bounds}", file=sys.stderr)
            return 2
        try:
            request = solver.default_request(**bounds)
            result = solve_with_cache(solver, app, platform, request, cache)
        except (ValueError, ConfigurationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"solver    : {result.solver} ({solver.key}, {solver.family})")
        print(f"feasible  : {result.feasible}")
        print(f"period    : {result.period:.6g}")
        print(f"latency   : {result.latency:.6g}")
        print(f"wall time : {result.wall_time * 1e3:.3g} ms")
        print(result.mapping.describe())
        _report_cache(cache)
        return 0

    # group selection: run every applicable solver, skip the rest with a reason
    header = f"{'key':<6} {'solver':<28} {'family':<10} {'status':<12} " \
             f"{'period':>10} {'latency':>10} {'ms':>8}"
    print(header)
    print("-" * len(header))
    for solver in solvers:
        ok, reason = solver.supports(platform)
        if not ok:
            print(f"{solver.key:<6} {solver.name:<28} {solver.family:<10} "
                  f"skipped      ({reason})")
            continue
        bounds = _solver_bounds(solver, args)
        if isinstance(bounds, str):
            print(f"{solver.key:<6} {solver.name:<28} {solver.family:<10} "
                  f"skipped      (needs {bounds})")
            continue
        try:
            request = solver.default_request(**bounds)
            result = solve_with_cache(solver, app, platform, request, cache)
        except (ValueError, ConfigurationError) as exc:
            print(f"{solver.key:<6} {solver.name:<28} {solver.family:<10} "
                  f"skipped      ({exc})")
            continue
        status = "ok" if result.feasible else "infeasible"
        print(f"{solver.key:<6} {solver.name:<28} {solver.family:<10} {status:<12} "
              f"{result.period:>10.4g} {result.latency:>10.4g} "
              f"{result.wall_time * 1e3:>8.2f}")
    _report_cache(cache)
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    specs = solver_specs(args.family)
    header = f"{'key':<6} {'name':<28} {'family':<10} {'objective':<28} capabilities"
    print(header)
    print("-" * len(header))
    for spec in specs:
        print(f"{spec.key:<6} {spec.name:<28} {spec.family:<10} "
              f"{spec.objective:<28} {', '.join(sorted(spec.capabilities))}")
    print()
    engine = kernels.compiled_engine()
    if engine is not None:
        print(f"kernels: compiled engine {engine}")
    else:
        print(f"kernels: numpy fallback ({kernels.compiled_unavailable_reason()})")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Batch-solve an instance stream through :func:`solve_many`.

    The stdout report carries only deterministic solution data (canonical
    instance digests, periods, latencies, feasibility), so a cold run and a
    warm ``--cache-dir`` replay are byte-identical; cache statistics and
    skip notes go to stderr.
    """
    config = experiment_config(
        args.family, args.stages, args.processors, n_instances=args.instances
    )
    base = generate_instances(config, seed=args.seed)
    stream = [instance for _ in range(args.repeat) for instance in base]
    try:
        solvers = resolve_solvers(args.solver)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    runnable = []
    for solver in solvers:
        bounds = _solver_bounds(solver, args)
        if isinstance(bounds, str):
            print(f"note: skipping {solver.name} (needs {bounds})", file=sys.stderr)
            continue
        reason = None
        for instance in base:
            ok, why = solver.supports(instance.platform)
            if not ok:
                reason = why
                break
        if reason is not None:
            print(f"note: skipping {solver.name} ({reason})", file=sys.stderr)
            continue
        runnable.append(solver)
    if not runnable:
        print("error: no applicable solver in the selection", file=sys.stderr)
        return 2

    # one service call per solver: a solver that rejects the given bounds at
    # solve time (e.g. one-to-one with an opposite-criterion bound) is
    # skipped with a note instead of aborting the whole batch.  Each entry is
    # (solver, per-instance results, n_tasks, n_unique, n_solved, n_hits) —
    # the same shape whether the batch ran in-process or through a daemon.
    cache = None
    per_solver = []
    if args.server:
        from .server.client import ServiceClient, ServiceError
        from .server.protocol import SolveTaskSpec

        if args.use_cache is not None or args.cache_dir:
            print("note: --server ignores local cache flags "
                  "(the solve cache lives in the daemon)", file=sys.stderr)
        try:
            service = ServiceClient(args.server)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with service:
            for solver in runnable:
                tasks = [
                    SolveTaskSpec(
                        application=instance.application,
                        platform=instance.platform,
                        solver=solver.name,
                        period_bound=args.period,
                        latency_bound=args.latency,
                        max_steps=args.max_steps,
                        time_budget=args.time_budget,
                    )
                    for instance in stream
                ]
                try:
                    reply = service.solve_batch(tasks)
                except ServiceError as exc:
                    print(f"note: skipping {solver.name} ({exc})",
                          file=sys.stderr)
                    continue
                per_solver.append((
                    solver,
                    list(reply.results),
                    reply.n_tasks,
                    reply.n_unique,
                    reply.dispositions.get("solved", 0),
                    reply.dispositions.get("cache", 0),
                ))
    else:
        cache = _build_cache(args)
        for solver in runnable:
            try:
                outcome = solve_many(
                    stream,
                    [solver],
                    period_bound=args.period,
                    latency_bound=args.latency,
                    max_steps=args.max_steps,
                    time_budget=args.time_budget,
                    workers=args.workers,
                    batch_size=args.batch_size,
                    cache=cache,
                )
            except (ValueError, ConfigurationError) as exc:
                print(f"note: skipping {solver.name} ({exc})", file=sys.stderr)
                continue
            per_solver.append((
                solver,
                [row[0] for row in outcome.results],
                outcome.stats.n_tasks,
                outcome.stats.n_unique,
                outcome.stats.n_solved,
                outcome.stats.n_cache_hits,
            ))
    if not per_solver:
        print("error: every selected solver was skipped", file=sys.stderr)
        return 2

    n_tasks = sum(entry[2] for entry in per_solver)
    n_unique = sum(entry[3] for entry in per_solver)
    n_solved = sum(entry[4] for entry in per_solver)
    n_hits = sum(entry[5] for entry in per_solver)
    print(f"batch solve : {config.label} — {len(base)} instance(s) "
          f"x {args.repeat} repeat(s), {len(per_solver)} solver(s)")
    print(f"tasks       : {n_tasks} requested, "
          f"{n_unique} unique after deduplication")
    print()
    header = (f"{'#':>4} {'instance':<14} {'key':<6} {'status':<12} "
              f"{'period':>12} {'latency':>12}")
    print(header)
    print("-" * len(header))
    for i, instance in enumerate(stream):
        digest = instance_digest(instance.application, instance.platform)[:12]
        for solver, results, *_ in per_solver:
            result = results[i]
            status = "ok" if result.feasible else "infeasible"
            print(f"{i:>4} {digest:<14} {solver.key:<6} {status:<12} "
                  f"{result.period:>12.6g} {result.latency:>12.6g}")
    hit_rate = "" if cache is None else f", hit rate {cache.hit_rate:.1%}"
    print(f"\nsolved {n_solved} of {n_tasks} requested task(s)"
          f" ({n_tasks - n_unique} deduplicated, {n_hits} cache hit(s)"
          f"{hit_rate})",
          file=sys.stderr)
    _report_cache(cache)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = experiment_config(
        args.family, args.stages, args.processors, n_instances=args.instances
    )
    cache = _build_cache(args)
    result = run_sweep(
        config,
        n_thresholds=args.thresholds,
        seed=args.seed,
        workers=args.workers,
        batch_size=args.batch_size,
        cache=cache,
        frontier=args.frontier,
    )
    print(render_sweep(result))
    # the workload engine probes the cache in the parent process, so the
    # counters above are complete at any --workers value
    _report_cache(cache)
    return 0


def _cmd_failure(args: argparse.Namespace) -> int:
    table = failure_threshold_table(
        args.family,
        stage_counts=args.stages,
        n_processors=args.processors,
        n_instances=args.instances,
        seed=args.seed,
        workers=args.workers,
        batch_size=args.batch_size,
    )
    print(
        render_failure_table(
            table,
            stage_counts=args.stages,
            title=f"Failure thresholds — {args.family}, p={args.processors}",
        )
    )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    config = experiment_config(
        args.family, args.stages, args.processors, n_instances=args.instances
    )
    instances = generate_instances(config, seed=args.seed)
    studies = {
        "selection-rule": selection_rule_ablation,
        "exploration-width": exploration_width_ablation,
        "processor-order": processor_order_ablation,
    }
    selected = studies if args.study == "all" else {args.study: studies[args.study]}
    for name, fn in selected.items():
        rows = fn(
            config,
            seed=args.seed,
            instances=instances,
            workers=args.workers,
            batch_size=args.batch_size,
        )
        print(render_ablation(rows, title=f"Ablation: {name} ({config.label})"))
        print()
    return 0


def _validate_instance(
    n_datasets: int, solver_name: str, instance
) -> tuple[float, float, object]:
    """Simulate one instance's solver mapping (module-level, pool-picklable).

    The solver is dispatched by unified-registry name inside the worker;
    fixed-period solvers are pushed to their best reachable period (see
    :func:`repro.simulation.validate.validate_solver`).
    """
    from .simulation.validate import validate_solver

    app, platform = instance.application, instance.platform
    result, report = validate_solver(
        app, platform, solver_name, n_datasets=n_datasets
    )
    return report.period_relative_error, report.latency_relative_error, result.mapping


def _cmd_validate(args: argparse.Namespace) -> int:
    config = experiment_config(
        args.family, args.stages, args.processors, n_instances=args.instances
    )
    if args.solver.strip().lower() in GROUP_SELECTORS:
        print(
            "error: validate simulates a single solver; pass one name "
            "(see 'repro solvers'), not a group",
            file=sys.stderr,
        )
        return 2
    try:
        resolve_solvers(args.solver)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    instances = generate_instances(config, seed=args.seed)
    try:
        reports = parallel_map(
            partial(_validate_instance, args.datasets, args.solver),
            instances,
            workers=args.workers,
            batch_size=args.batch_size,
        )
    except ReproError as exc:
        # e.g. a homogeneous-only solver against a heterogeneous E1–E4 stream
        print(f"error: {args.solver} cannot solve this stream: {exc}", file=sys.stderr)
        return 2
    worst_period_err = max(r[0] for r in reports)
    worst_latency_err = max(r[1] for r in reports)
    last = instances[-1]
    analytical = evaluate(last.application, last.platform, reports[-1][2])
    print(f"solver validated           : {args.solver}")
    print(f"instances validated        : {len(instances)}")
    print(f"worst period rel. error    : {worst_period_err:.3%}")
    print(f"worst latency rel. error   : {worst_latency_err:.3%}")
    print(f"(last instance period/latency: {analytical.period:.4g} / {analytical.latency:.4g})")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .scenarios import FAMILIES, render_fuzz_report, run_fuzz

    if args.list_families:
        header = f"{'family':<22} description"
        print(header)
        print("-" * len(header))
        for family in FAMILIES.values():
            print(f"{family.name:<22} {family.description}")
        return 0
    cache = _build_cache(args)
    if cache is not None and cache.directory is not None:
        # verification verdicts are only as fresh as the store: a warm blob
        # written by an older build is served instead of exercising the live
        # solver unless its SolverSpec.version was bumped
        print(
            "warning: fuzz with a persistent --cache-dir can replay results "
            "from previous builds; behavioural solver changes are only "
            "re-verified after a SolverSpec.version bump (prefer --cache for "
            "a session-local store)",
            file=sys.stderr,
        )
    if args.resume and not args.journal:
        print("error: --resume needs --journal PATH", file=sys.stderr)
        return 2
    try:
        report = run_fuzz(
            count=args.count,
            families=args.families,
            seed=args.seed,
            workers=args.workers,
            batch_size=args.batch_size,
            n_datasets=args.datasets,
            shrink=not args.no_shrink,
            corpus_dir=args.corpus,
            cache=cache,
            journal=args.journal,
            resume=args.resume,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # e.g. a journal written for a different scenario stream
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_fuzz_report(report))
    _report_cache(cache, workers=args.workers)
    if not report.ok and args.corpus:
        print(f"(counterexamples persisted under {args.corpus})", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    """Execute a workload spec file through the engine (see ``--help``).

    Exit status: 0 on a complete run, 2 on configuration errors, 3 when a
    ``--max-tasks`` cap left tasks deferred (resume with ``--resume``).
    Only the deterministic report reaches stdout; execution provenance
    (journal replays, cache statistics) goes to stderr, so a resumed run's
    stdout is byte-identical to an uninterrupted one.
    """
    from .workloads import (
        CsvSink,
        execute_plan,
        expand_spec,
        load_spec,
        open_sink,
        render_workload_report,
        write_sinks,
    )

    if args.resume and not args.journal:
        print("error: --resume needs --journal PATH", file=sys.stderr)
        return 2
    if args.shard is not None and not args.journal:
        print(
            "error: --shard needs --journal PATH (shard results are "
            "collected via journals and 'merge-journals')",
            file=sys.stderr,
        )
        return 2
    try:
        spec = load_spec(args.spec)
        plan = expand_spec(spec)
    except FileNotFoundError:
        print(f"error: spec file {args.spec!r} not found", file=sys.stderr)
        return 2
    except (ReproError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    # open (and validate) the sinks before spending hours executing: a bad
    # path or a CSV sink on a differential workload must fail fast
    sinks = []
    try:
        try:
            for path in args.sink or ():
                sink = open_sink(path)
                if plan.kind == "differential" and isinstance(sink, CsvSink):
                    sink.close()
                    raise ConfigurationError(
                        f"sink {path!r}: the CSV sink handles solve rows "
                        "only; use a .jsonl sink for differential workloads"
                    )
                sinks.append(sink)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cache = _build_cache(args)
        try:
            run = execute_plan(
                plan,
                journal=args.journal,
                resume=args.resume,
                workers=args.workers,
                batch_size=args.batch_size,
                cache=cache,
                max_tasks=args.max_tasks,
                shard=args.shard,
            )
            write_sinks(run, sinks)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        for sink in sinks:
            sink.close()
    print(render_workload_report(run))
    print(run.stats.describe(), file=sys.stderr)
    _report_cache(cache)
    if not run.complete:
        if args.shard is not None and run.stats.n_deferred == 0:
            index, count = args.shard
            print(
                f"note: shard {index}/{count} done; "
                f"{run.stats.n_out_of_shard} task(s) belong to other shards "
                "— run them, fold the journals with 'merge-journals' and "
                "finish with --resume",
                file=sys.stderr,
            )
        else:
            print(
                f"note: {run.stats.n_deferred} task(s) deferred by "
                "--max-tasks; rerun with --resume to finish",
                file=sys.stderr,
            )
        return 3
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Maintain a persistent ``--cache-dir`` store (currently: prune).

    Exit status: 0 on success, 2 on a bad directory or budget.
    """
    from pathlib import Path

    from .cache.store import prune_cache_dir

    if args.cache_command == "prune":
        directory = Path(args.cache_dir)
        if not directory.is_dir():
            print(f"error: {args.cache_dir!r} is not a directory", file=sys.stderr)
            return 2
        try:
            n_kept, n_removed, bytes_kept = prune_cache_dir(
                directory, args.max_bytes
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"pruned {args.cache_dir}: removed {n_removed} blob(s), "
            f"kept {n_kept} ({bytes_kept} bytes <= {args.max_bytes})"
        )
        return 0
    raise AssertionError(f"unknown cache command {args.cache_command!r}")


def _cmd_merge_journals(args: argparse.Namespace) -> int:
    """Merge shard journals into one resumable journal (see ``--help``).

    Exit status: 0 on success, 2 when the inputs cannot be merged (missing
    files, mismatched plan digests or schemas, conflicting records).
    """
    from .workloads import merge_journals

    try:
        summary = merge_journals(args.inputs, args.output)
    except FileNotFoundError as exc:
        print(f"error: journal {exc.filename!r} not found", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    duplicates = (
        f", {summary.n_duplicates} duplicate(s) dropped"
        if summary.n_duplicates
        else ""
    )
    print(
        f"merged {summary.n_inputs} journal(s) into {args.output}: "
        f"{summary.n_records} task record(s){duplicates}, "
        f"plan {summary.plan[:12]}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the solver daemon until SIGTERM/SIGINT drains it (exit 0)."""
    from .server import DaemonConfig, run_daemon

    config = DaemonConfig(
        socket_path=args.socket,
        workers=args.workers,
        batch_size=args.batch_size,
        cache_maxsize=args.cache_size,
        cache_dir=args.cache_dir,
        max_batch=args.max_batch,
    )
    print(f"solver daemon starting on {args.socket} "
          f"(workers={args.workers}, max-batch={args.max_batch}); "
          f"SIGTERM drains gracefully",
          file=sys.stderr)
    return run_daemon(config)


def _cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running daemon: ping, stats, or a one-off solve."""
    import json as _json

    from .server.client import ServiceClient, ServiceError, wait_for_server

    try:
        if args.client_command == "ping":
            if args.wait is not None:
                wait_for_server(args.socket, timeout=args.wait)
            with ServiceClient(args.socket) as service:
                rtt = service.ping()
                print(f"pong from pid {service.server_pid} "
                      f"in {rtt * 1e3:.3f} ms")
            return 0
        if args.client_command == "stats":
            with ServiceClient(args.socket) as service:
                print(_json.dumps(service.stats(), indent=2, sort_keys=True))
            return 0
        # solve
        selection = args.solver.strip()
        if selection.lower() in GROUP_SELECTORS:
            print("error: 'client solve' takes a single solver "
                  "(route groups through 'batch --server')", file=sys.stderr)
            return 2
        try:
            solver = resolve_solvers(selection)[0]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        bounds = _solver_bounds(solver, args, strict=True)
        if isinstance(bounds, str):
            if bounds.startswith("--"):
                bounds = f"this solver needs {bounds}"
            print(f"error: {bounds}", file=sys.stderr)
            return 2
        app = PipelineApplication(args.works, args.comms, name="cli-instance")
        platform = Platform.communication_homogeneous(
            args.speeds, bandwidth=args.bandwidth, name="cli-platform"
        )
        with ServiceClient(args.socket) as service:
            result = service.solve(app, platform, solver.name, **bounds)
        print(f"solver    : {result.solver} ({solver.key}, {solver.family})")
        print(f"feasible  : {result.feasible}")
        print(f"period    : {result.period:.6g}")
        print(f"latency   : {result.latency:.6g}")
        print(result.mapping.describe())
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-pipeline`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "solvers": _cmd_solvers,
        "batch": _cmd_batch,
        "sweep": _cmd_sweep,
        "failure": _cmd_failure,
        "ablation": _cmd_ablation,
        "validate": _cmd_validate,
        "fuzz": _cmd_fuzz,
        "run": _cmd_run,
        "cache": _cmd_cache,
        "merge-journals": _cmd_merge_journals,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
