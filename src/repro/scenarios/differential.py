"""Differential verification oracle: every solver against every other.

Given one problem instance, :func:`differential_check` runs every applicable
registry solver (gated by platform class and instance size, exactly like the
registry's own capability checks) and cross-examines the results:

* **structural** — every produced mapping validates against the instance; the
  reported period/latency match a recomputation with the shared analytical
  cost model (eqs. 1 and 2); feasibility flags are truthful against the
  request's threshold;
* **exact agreement** — all exact solvers valid for the instance agree on the
  optimal period and latency (brute force is the ground truth on small
  instances; the homogeneous DPs, the bitmask DP and the one-to-one solvers
  are compared within their mapping classes and numeric tolerances);
* **heuristic bounds** — no heuristic beats a proven optimum, and a heuristic
  claiming feasibility at a threshold implies the exact solver is feasible
  there too;
* **local-search invariants** — each anytime local-search solver (run at its
  default step budget) returns a structurally sound result that is never
  worse than the seed mapping it refined, records seed provenance matching
  an independent run of the named seed solver, and never beats a proven
  optimum;
* **simulation** — for a sample of the produced mappings, the synchronous
  schedule reproduces the analytical metrics exactly and the greedy
  event-driven one-port schedule stays within the published tolerance, with
  both traces passing the one-port/ordering invariants.

A failed comparison becomes a :class:`CheckFailure` with a stable ``check``
identifier (used by the shrinker to preserve the *same* disagreement while
minimising the instance) and a human-readable detail.  Solver exceptions are
failures too (``solver-crash``), never harness crashes.

Numeric tolerances: a reported period or latency must equal its
recomputation exactly, because every evaluator of the package computes the
per-interval terms the same way and adds eq. (2) in the same order; the
synchronous and event-driven simulations reproduce the analytical metrics
within ``1e-9`` relative; cross-implementation equalities use ``1e-6``;
the bisection-based ``bitmask-dp-period-for-latency`` is allowed its
documented ``1e-5`` band;
feasibility-flag comparisons ignore disagreements within ``1e-7`` of the
threshold (different solvers use different epsilon conventions at the exact
boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..core.application import PipelineApplication
from ..core.costs import evaluate, optimal_latency_mapping, period_lower_bound
from ..core.mapping import IntervalMapping
from ..core.platform import Platform
from ..core.tables import instance_tables
from ..exact import one_to_one as _one_to_one_mod
from ..simulation.event_driven import simulate_mapping
from ..simulation.synchronous import synchronous_schedule
from ..solvers.base import SolveResult
from ..solvers.frontier import frontier_eligible, frontier_solve
from ..solvers.local_search import DEFAULT_STEP_BUDGET, objective_key
from ..solvers.registry import get_solver
from ..solvers.service import solve_with_cache

__all__ = ["CheckFailure", "DifferentialReport", "differential_check"]

# size gates for the exponential solvers (kept below the solvers' own hard
# limits so a fuzz run stays fast)
_BRUTE_MAX_STAGES = 8
_BRUTE_MAX_PROCS = 5
_BITMASK_MAX_STAGES = 14
_BITMASK_MAX_PROCS = 8
# the local-search solvers are polynomial per step but run a full step budget
# per instance; the gate only trims the largest fuzz families
_LS_MAX_STAGES = 16
_LS_MAX_PROCS = 12

_REL = 1e-9          # simulated against analytical metrics
_LOOSE_REL = 1e-6    # cross-implementation equality of optima
_BISECT_REL = 1e-5   # bisection band of bitmask-dp-period-for-latency
_MARGIN = 1e-7       # feasibility-flag guard near the threshold
_SIM_PERIOD_REL = 0.05  # event-driven steady-state period tolerance
_TINY = 1e-12


@dataclass(frozen=True)
class CheckFailure:
    """One failed cross-check: a stable identifier plus a readable detail."""

    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.check}: {self.detail}"


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of :func:`differential_check` on one instance."""

    failures: tuple[CheckFailure, ...]
    n_comparisons: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_checks(self) -> tuple[str, ...]:
        """Distinct failing check identifiers, in first-seen order."""
        seen: list[str] = []
        for failure in self.failures:
            if failure.check not in seen:
                seen.append(failure.check)
        return tuple(seen)


class _Session:
    """Failure collector: every expectation counts as one comparison.

    Also carries the (optional) solve cache of the run, so the solver
    fan-out helpers can memoise without threading one more parameter
    through every call site.
    """

    def __init__(self, cache=None) -> None:
        self.failures: list[CheckFailure] = []
        self.n_comparisons = 0
        self.cache = cache

    def expect(self, condition: bool, check: str, detail: str) -> bool:
        self.n_comparisons += 1
        if not condition:
            self.failures.append(CheckFailure(check=check, detail=detail))
        return condition

    def fail(self, check: str, detail: str) -> None:
        self.n_comparisons += 1
        self.failures.append(CheckFailure(check=check, detail=detail))

    def report(self) -> DifferentialReport:
        return DifferentialReport(
            failures=tuple(self.failures), n_comparisons=self.n_comparisons
        )


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + _TINY


def _positive(bound: float) -> float:
    """Thresholds must be strictly positive; degenerate instances yield 0."""
    return max(float(bound), 1e-6)


def _one_to_one_available() -> bool:
    return (
        _one_to_one_mod.nx is not None
        and _one_to_one_mod.linear_sum_assignment is not None
    )


def _run(
    sess: _Session,
    name: str,
    app: PipelineApplication,
    platform: Platform,
    **bounds: float | None,
) -> SolveResult | None:
    """Run a registry solver through the (optional) session solve cache.

    Any exception is a ``solver-crash`` failure.  Solvers are deterministic,
    so a cached result is byte-identical to a fresh run and the oracle's
    verdict cannot depend on the cache state.  The solver stays duck-typed
    (anything ``get_solver`` returns with a heuristic-style ``run``), so the
    oracle's planted-bug tests can wrap solvers without implementing the
    full registry interface.
    """
    try:
        solver = get_solver(name)
        if sess.cache is None or not getattr(solver, "cacheable", False):
            return solver.run(app, platform, **bounds)
        # a cacheable solver is a real registry handle: delegate to the
        # service's single get/solve/put cycle
        request = solver.default_request(**bounds)
        return solve_with_cache(solver, app, platform, request, sess.cache)
    except Exception as exc:  # noqa: BLE001 - crashes are findings, not aborts
        sess.fail("solver-crash", f"{name}{bounds!r}: {type(exc).__name__}: {exc}")
        return None


def _structural(
    sess: _Session,
    name: str,
    result: SolveResult,
    app: PipelineApplication,
    platform: Platform,
    *,
    bound: float | None = None,
    bounded_metric: str | None = None,
    recompute: bool = True,
    min_period: float | None = None,
    min_latency: float | None = None,
) -> None:
    """Per-result invariants: valid mapping, honest metrics, honest flag."""
    try:
        result.mapping.validate(app, platform)
    except Exception as exc:  # noqa: BLE001
        sess.fail("mapping-invalid", f"{name}: {exc}")
        return
    if recompute:
        ev = evaluate(app, platform, result.mapping)
        sess.expect(
            result.period == ev.period,
            "metric-recompute",
            f"{name}: reported period {result.period!r} != evaluated {ev.period!r}",
        )
        sess.expect(
            result.latency == ev.latency,
            "metric-recompute",
            f"{name}: reported latency {result.latency!r} != evaluated {ev.latency!r}",
        )
        if min_period is not None:
            sess.expect(
                ev.period >= min_period - _LOOSE_REL * max(min_period, 1.0) - _TINY,
                "beats-optimal-period",
                f"{name}: period {ev.period!r} below proven optimum {min_period!r}",
            )
        if min_latency is not None:
            sess.expect(
                ev.latency >= min_latency - _LOOSE_REL * max(min_latency, 1.0) - _TINY,
                "beats-optimal-latency",
                f"{name}: latency {ev.latency!r} below Lemma 1 optimum {min_latency!r}",
            )
    if bound is not None and bounded_metric is not None and result.feasible:
        achieved = getattr(result, bounded_metric)
        sess.expect(
            achieved <= bound * (1 + _LOOSE_REL) + _TINY,
            "threshold-violated",
            f"{name}: feasible but {bounded_metric} {achieved!r} > bound {bound!r}",
        )


def _flags_agree(
    sess: _Session,
    check: str,
    name_a: str,
    result_a: SolveResult,
    name_b: str,
    result_b: SolveResult,
    bound: float,
    metric: str,
) -> bool:
    """Feasibility flags of two exact solvers at the same threshold.

    A disagreement only counts when the feasible side sits clearly inside the
    threshold (margin ``_MARGIN``); at the exact boundary different epsilon
    conventions may legitimately differ by one ulp.
    """
    if result_a.feasible == result_b.feasible:
        return result_a.feasible
    feasible_name, feasible = (
        (name_a, result_a) if result_a.feasible else (name_b, result_b)
    )
    infeasible_name = name_b if result_a.feasible else name_a
    achieved = getattr(feasible, metric)
    if achieved <= bound * (1 - _MARGIN):
        sess.fail(
            check,
            f"{feasible_name} is feasible at {metric} <= {bound!r} "
            f"(achieves {achieved!r}) but {infeasible_name} reports infeasible",
        )
    return False


def differential_check(
    app: PipelineApplication,
    platform: Platform,
    *,
    n_datasets: int = 16,
    simulate: bool = True,
    cache=None,
) -> DifferentialReport:
    """Cross-check every applicable solver and simulator on one instance.

    ``cache`` (a :class:`~repro.cache.store.SolveCache`) memoises the
    per-solver runs of the fan-out; solvers are deterministic, so the
    report is identical with a cold cache, a warm cache or none at all.
    Every solve of the instance runs in one
    :func:`~repro.core.tables.instance_tables` scope, so the brute-force
    enumeration, the bitmask DP's period buckets and the heuristics' split
    rankings are each derived once per instance.
    """
    with instance_tables():
        return _check_instance(app, platform, n_datasets, simulate, cache)


def _check_instance(
    app: PipelineApplication,
    platform: Platform,
    n_datasets: int,
    simulate: bool,
    cache,
) -> DifferentialReport:
    sess = _Session(cache=cache)
    n, p = app.n_stages, platform.n_processors
    comm_homog = platform.is_communication_homogeneous
    fully_homog = platform.is_fully_homogeneous
    small_bf = n <= _BRUTE_MAX_STAGES and p <= _BRUTE_MAX_PROCS
    small_bm = comm_homog and n <= _BITMASK_MAX_STAGES and p <= _BITMASK_MAX_PROCS
    o2o_ok = comm_homog and n <= p and _one_to_one_available()

    # Instance anchors: the Lemma 1 mapping is always feasible, so its cycle
    # time is an achievable period bound and its latency the latency optimum.
    lemma1 = optimal_latency_mapping(app, platform)
    ev1 = evaluate(app, platform, lemma1)
    p_lb = period_lower_bound(app, platform)
    latency_opt = ev1.latency
    sess.expect(
        p_lb <= ev1.period + _LOOSE_REL * max(ev1.period, 1.0) + _TINY,
        "bound-sanity",
        f"period lower bound {p_lb!r} exceeds achievable period {ev1.period!r}",
    )
    bound_hi = _positive(ev1.period)
    bound_mid = _positive(0.5 * (p_lb + ev1.period))
    latency_bound = _positive(1.25 * latency_opt)

    # ------------------------------------------------------------------ #
    # ground truths (small instances)
    # ------------------------------------------------------------------ #
    bf_period = bf_latency = None
    if small_bf:
        bf_period = _run(sess, "brute-force-period", app, platform)
        bf_latency = _run(sess, "brute-force-latency", app, platform)
    min_period_truth = bf_period.period if bf_period is not None else None
    if bf_latency is not None:
        sess.expect(
            _close(bf_latency.latency, latency_opt, _LOOSE_REL),
            "exact-min-latency",
            f"brute-force minimum latency {bf_latency.latency!r} != "
            f"Lemma 1 optimum {latency_opt!r}",
        )
    if bf_period is not None:
        sess.expect(
            p_lb - _LOOSE_REL * max(bf_period.period, 1.0) - _TINY <= bf_period.period
            <= ev1.period + _LOOSE_REL * max(ev1.period, 1.0) + _TINY,
            "exact-min-period",
            f"brute-force minimum period {bf_period.period!r} outside "
            f"[{p_lb!r}, {ev1.period!r}]",
        )
    for name, result in (("brute-force-period", bf_period), ("brute-force-latency", bf_latency)):
        if result is not None:
            _structural(sess, name, result, app, platform)

    # ------------------------------------------------------------------ #
    # unconstrained min-period solvers
    # ------------------------------------------------------------------ #
    sim_candidates: list[IntervalMapping] = [lemma1]
    if bf_period is not None:
        sim_candidates.append(bf_period.mapping)

    if fully_homog:
        dp_period = _run(sess, "hom-dp-period", app, platform)
        if dp_period is not None:
            _structural(
                sess, "hom-dp-period", dp_period, app, platform,
                min_period=min_period_truth, min_latency=latency_opt,
            )
            if min_period_truth is not None:
                sess.expect(
                    _close(dp_period.period, min_period_truth, _LOOSE_REL),
                    "exact-min-period",
                    f"hom-dp-period {dp_period.period!r} != "
                    f"brute-force optimum {min_period_truth!r}",
                )
            elif min_period_truth is None:
                min_period_truth = dp_period.period

    if small_bm:
        bm_unbounded = _run(
            sess, "bitmask-dp-period-for-latency", app, platform,
            latency_bound=math.inf,
        )
        if bm_unbounded is not None:
            _structural(
                sess, "bitmask-dp-period-for-latency(inf)", bm_unbounded, app,
                platform, min_period=min_period_truth, min_latency=latency_opt,
            )
            if min_period_truth is not None:
                sess.expect(
                    bm_unbounded.period
                    <= min_period_truth * (1 + _BISECT_REL)
                    + _LOOSE_REL * max(min_period_truth, 1.0) + _TINY,
                    "exact-min-period",
                    f"bitmask-dp minimum period {bm_unbounded.period!r} above the "
                    f"bisection band of the optimum {min_period_truth!r}",
                )

    if o2o_ok:
        for name, metric, floor in (
            ("one-to-one-period", "period", min_period_truth),
            ("one-to-one-latency", "latency", latency_opt),
        ):
            result = _run(sess, name, app, platform)
            if result is None:
                continue
            _structural(sess, name, result, app, platform)
            if floor is not None:
                sess.expect(
                    getattr(result, metric)
                    >= floor - _LOOSE_REL * max(floor, 1.0) - _TINY,
                    "one-to-one-beats-interval-optimum",
                    f"{name}: {metric} {getattr(result, metric)!r} below the "
                    f"interval-mapping optimum {floor!r}",
                )

    # ------------------------------------------------------------------ #
    # fixed-period family: minimise latency under period <= B
    # ------------------------------------------------------------------ #
    period_solvers: list[str] = []
    if comm_homog:
        period_solvers += ["H1", "H2", "H3", "H4"]
    period_solvers.append("Hetero Sp P")
    exact_period_solvers: list[str] = []
    if fully_homog:
        exact_period_solvers.append("hom-dp-latency-for-period")
    if small_bm:
        exact_period_solvers.append("bitmask-dp-latency-for-period")

    period_optima: dict[float, float | None] = {}
    for bound in (bound_mid, bound_hi):
        exact_results: dict[str, SolveResult] = {}
        if small_bf:
            result = _run(sess, "brute-force-latency", app, platform, period_bound=bound)
            if result is not None:
                exact_results["brute-force-latency"] = result
        for name in exact_period_solvers:
            result = _run(sess, name, app, platform, period_bound=bound)
            if result is not None:
                exact_results[name] = result
        for name, result in exact_results.items():
            _structural(
                sess, f"{name}@{bound:g}", result, app, platform,
                bound=bound, bounded_metric="period",
                min_period=min_period_truth, min_latency=latency_opt,
            )
        # pairwise agreement of the exact solvers (optimal latency at bound B)
        names = list(exact_results)
        for i, name_a in enumerate(names):
            for name_b in names[i + 1:]:
                a, b = exact_results[name_a], exact_results[name_b]
                if _flags_agree(
                    sess, "exact-bounded-latency-disagreement",
                    name_a, a, name_b, b, bound, "period",
                ):
                    sess.expect(
                        _close(a.latency, b.latency, _LOOSE_REL),
                        "exact-bounded-latency-disagreement",
                        f"period <= {bound!r}: {name_a} latency {a.latency!r} "
                        f"!= {name_b} latency {b.latency!r}",
                    )
        exact_feasible = [r for r in exact_results.values() if r.feasible]
        optimum = min((r.latency for r in exact_feasible), default=None)
        period_optima[bound] = optimum
        any_infeasible = any(not r.feasible for r in exact_results.values())

        for name in period_solvers + (["greedy-replication"] if comm_homog else []):
            if name == "Hetero Sp P" and comm_homog and p > 64:
                continue  # nothing new over H1 at scale
            result = _run(sess, name, app, platform, period_bound=bound)
            if result is None:
                continue
            replication = name == "greedy-replication"
            _structural(
                sess, f"{name}@{bound:g}", result, app, platform,
                bound=bound, bounded_metric="period",
                recompute=not replication,
                min_period=None if replication else min_period_truth,
                min_latency=None if replication else latency_opt,
            )
            if replication:
                continue
            if result.feasible and optimum is not None:
                sess.expect(
                    result.latency
                    >= optimum - _LOOSE_REL * max(optimum, 1.0) - _TINY,
                    "heuristic-beats-exact",
                    f"{name}: latency {result.latency!r} beats the exact "
                    f"optimum {optimum!r} at period <= {bound!r}",
                )
            if result.feasible and optimum is None and any_infeasible:
                sess.expect(
                    result.period > bound * (1 - _MARGIN),
                    "heuristic-feasible-exact-infeasible",
                    f"{name}: clearly feasible at period <= {bound!r} "
                    f"(achieves {result.period!r}) but the exact solvers "
                    "report infeasible",
                )
            if name == "H1" and bound == bound_mid:
                sim_candidates.append(result.mapping)
        best_exact = next(iter(exact_feasible), None)
        if best_exact is not None and bound == bound_mid:
            sim_candidates.append(best_exact.mapping)

    # ------------------------------------------------------------------ #
    # fixed-latency family: minimise period under latency <= L
    # ------------------------------------------------------------------ #
    exact_latency_results: dict[str, SolveResult] = {}
    if small_bf:
        result = _run(
            sess, "brute-force-period", app, platform, latency_bound=latency_bound
        )
        if result is not None:
            exact_latency_results["brute-force-period"] = result
    if fully_homog:
        result = _run(
            sess, "hom-dp-period-for-latency", app, platform,
            latency_bound=latency_bound,
        )
        if result is not None:
            exact_latency_results["hom-dp-period-for-latency"] = result
    bounded_optimum = min(
        (r.period for r in exact_latency_results.values() if r.feasible), default=None
    )
    for name, result in exact_latency_results.items():
        _structural(
            sess, f"{name}@L{latency_bound:g}", result, app, platform,
            bound=latency_bound, bounded_metric="latency",
            min_period=min_period_truth, min_latency=latency_opt,
        )
        sess.expect(
            result.feasible,
            "latency-bound-infeasible",
            f"{name}: infeasible at latency <= {latency_bound!r} although the "
            f"Lemma 1 mapping achieves {latency_opt!r}",
        )
        if bounded_optimum is not None and result.feasible:
            sess.expect(
                _close(result.period, bounded_optimum, _LOOSE_REL),
                "exact-bounded-period-disagreement",
                f"latency <= {latency_bound!r}: {name} period {result.period!r} "
                f"!= optimum {bounded_optimum!r}",
            )
    if small_bm:
        result = _run(
            sess, "bitmask-dp-period-for-latency", app, platform,
            latency_bound=latency_bound,
        )
        if result is not None:
            _structural(
                sess, f"bitmask-dp-period-for-latency@L{latency_bound:g}", result,
                app, platform, bound=latency_bound, bounded_metric="latency",
                min_period=min_period_truth, min_latency=latency_opt,
            )
            if bounded_optimum is not None and result.feasible:
                sess.expect(
                    result.period
                    <= bounded_optimum * (1 + _BISECT_REL)
                    + _LOOSE_REL * max(bounded_optimum, 1.0) + _TINY,
                    "exact-bounded-period-disagreement",
                    f"latency <= {latency_bound!r}: bitmask-dp period "
                    f"{result.period!r} above the bisection band of the "
                    f"optimum {bounded_optimum!r}",
                )
    if comm_homog:
        for name in ("H5", "H6"):
            result = _run(sess, name, app, platform, latency_bound=latency_bound)
            if result is None:
                continue
            _structural(
                sess, f"{name}@L{latency_bound:g}", result, app, platform,
                bound=latency_bound, bounded_metric="latency",
                min_period=min_period_truth, min_latency=latency_opt,
            )
            sess.expect(
                result.feasible,
                "latency-bound-infeasible",
                f"{name}: infeasible at latency <= {latency_bound!r} although "
                f"the Lemma 1 mapping achieves {latency_opt!r}",
            )
            if result.feasible and bounded_optimum is not None:
                sess.expect(
                    result.period
                    >= bounded_optimum - _LOOSE_REL * max(bounded_optimum, 1.0) - _TINY,
                    "heuristic-beats-exact",
                    f"{name}: period {result.period!r} beats the exact optimum "
                    f"{bounded_optimum!r} at latency <= {latency_bound!r}",
                )

    # ------------------------------------------------------------------ #
    # frontier extraction: one-run curves must equal the direct solves
    # ------------------------------------------------------------------ #
    # Every frontier-capable solver (H1-H3) promises bit-identical
    # extraction (SolveResult.identity) at any threshold, including below
    # the infeasible knee; bound_lo probes that region, bound_mid/bound_hi
    # the feasible curve.  The direct solves reuse the session cache, so a
    # warm/cold cache cannot change the verdict.
    bound_lo = _positive(0.5 * p_lb)
    thresholds = (bound_lo, bound_mid, bound_hi)
    for name in ("H1", "H2", "H3") if comm_homog else ():
        solver = get_solver(name)
        if not frontier_eligible(solver, solver.default_request(period_bound=bound_lo)):
            continue
        try:
            _, extracted, _ = frontier_solve(solver, app, platform, thresholds)
        except Exception as exc:  # noqa: BLE001 - findings, not aborts
            sess.fail(
                "solver-crash",
                f"frontier:{solver.name}: {type(exc).__name__}: {exc}",
            )
            continue
        for threshold, from_frontier in zip(thresholds, extracted):
            direct = _run(sess, name, app, platform, period_bound=threshold)
            if direct is None or from_frontier is None:
                continue
            sess.expect(
                from_frontier.identity() == direct.identity(),
                "frontier-extraction-mismatch",
                f"{solver.name}@{threshold:g}: frontier extraction "
                f"(feasible={from_frontier.feasible}, "
                f"period={from_frontier.period!r}, "
                f"latency={from_frontier.latency!r}) differs from the direct "
                f"solve (feasible={direct.feasible}, period={direct.period!r}, "
                f"latency={direct.latency!r})",
            )

    # ------------------------------------------------------------------ #
    # local-search family: anytime refinement invariants
    # ------------------------------------------------------------------ #
    # Each local-search solver is run at its default step budget and held to
    # three promises: the result is structurally sound and honestly flagged,
    # it is never worse than the seed mapping it refined (under the solver's
    # lexicographic objective key, compared exactly: the move engine
    # re-evaluates the seed mapping to the seed solver's own bits), and the
    # recorded seed provenance matches an independent run of the named seed
    # solver.  The generic never-beats-a-proven-optimum checks apply
    # exactly as for heuristics.
    small_ls = n <= _LS_MAX_STAGES and p <= _LS_MAX_PROCS
    if small_ls:
        ls_cases: list[tuple[str, dict, float | None, str | None, str, float | None]] = []
        if comm_homog:
            for bound in (bound_mid, bound_hi):
                ls_cases.append(
                    (
                        "local-search-h1",
                        {"period_bound": bound},
                        bound,
                        "period",
                        "latency",
                        period_optima.get(bound),
                    )
                )
            ls_cases.append(
                (
                    "local-search-h6",
                    {"latency_bound": latency_bound},
                    latency_bound,
                    "latency",
                    "period",
                    bounded_optimum,
                )
            )
        ls_cases.append(
            ("local-search-random", {}, None, None, "period", min_period_truth)
        )
        for name, bounds, bound, bounded_metric, optimized, ls_optimum in ls_cases:
            result = _run(
                sess, name, app, platform, max_steps=DEFAULT_STEP_BUDGET, **bounds
            )
            if result is None:
                continue
            label = name if bound is None else f"{name}@{bound:g}"
            _structural(
                sess, label, result, app, platform,
                bound=bound, bounded_metric=bounded_metric,
                min_period=min_period_truth, min_latency=latency_opt,
            )
            if name == "local-search-h6":
                sess.expect(
                    result.feasible,
                    "latency-bound-infeasible",
                    f"{label}: infeasible at latency <= {latency_bound!r} although "
                    f"the Lemma 1 mapping achieves {latency_opt!r}",
                )
            details = result.details or {}
            seed_name = details.get("seed_solver")
            seed_period = details.get("seed_period")
            seed_latency = details.get("seed_latency")
            if not sess.expect(
                seed_name is not None
                and seed_period is not None
                and seed_latency is not None,
                "local-search-seed-provenance",
                f"{label}: result details carry no seed provenance",
            ):
                continue
            key_seed = objective_key(
                seed_period, seed_latency, result.objective, bound
            )
            key_result = objective_key(
                result.period, result.latency, result.objective, bound
            )
            sess.expect(
                key_result <= key_seed,
                "local-search-worse-than-seed",
                f"{label}: refined objective key {key_result!r} is worse than "
                f"its seed's {key_seed!r}",
            )
            if seed_name != "random":
                seed_result = _run(sess, seed_name, app, platform, **bounds)
                if seed_result is not None:
                    sess.expect(
                        (seed_period, seed_latency)
                        == (seed_result.period, seed_result.latency),
                        "local-search-seed-provenance",
                        f"{label}: recorded seed ({seed_period!r}, "
                        f"{seed_latency!r}) != a fresh {seed_name} run "
                        f"({seed_result.period!r}, {seed_result.latency!r})",
                    )
            if ls_optimum is not None and result.feasible:
                achieved = getattr(result, optimized)
                sess.expect(
                    achieved
                    >= ls_optimum - _LOOSE_REL * max(ls_optimum, 1.0) - _TINY,
                    "heuristic-beats-exact",
                    f"{label}: {optimized} {achieved!r} beats the exact "
                    f"optimum {ls_optimum!r}",
                )
            if bounded_metric == "period" and bound == bound_mid:
                sim_candidates.append(result.mapping)

    # ------------------------------------------------------------------ #
    # simulators
    # ------------------------------------------------------------------ #
    if simulate:
        unique: list[IntervalMapping] = []
        for mapping in sim_candidates:
            if mapping not in unique:
                unique.append(mapping)
        for mapping in unique[:4]:
            _check_simulation(sess, app, platform, mapping, n_datasets)

    return sess.report()


def _check_simulation(
    sess: _Session,
    app: PipelineApplication,
    platform: Platform,
    mapping: IntervalMapping,
    n_datasets: int,
) -> None:
    """Both simulators versus the analytical model, on one mapping."""
    ev = evaluate(app, platform, mapping)
    datasets = max(n_datasets, 3 * mapping.n_intervals + 4)
    label = f"mapping {mapping!r}"

    def guarded(kind: str, fn: Callable[[], None]) -> None:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - surfaced as a finding
            sess.fail("simulator-crash", f"{kind} on {label}: {exc}")

    traces: dict[str, object] = {}

    def run_sync() -> None:
        trace = synchronous_schedule(app, platform, mapping, n_datasets=datasets)
        trace.check_no_overlap()
        trace.check_dataset_order()
        traces["sync"] = trace

    def run_event() -> None:
        trace = simulate_mapping(app, platform, mapping, n_datasets=datasets)
        trace.check_no_overlap()
        trace.check_dataset_order()
        traces["event"] = trace

    guarded("synchronous", run_sync)
    guarded("event-driven", run_event)

    sync = traces.get("sync")
    event = traces.get("event")
    if sync is not None:
        sess.expect(
            _close(sync.measured_period(), ev.period, _REL),
            "synchronous-period",
            f"{label}: synchronous period {sync.measured_period()!r} != "
            f"analytical {ev.period!r}",
        )
        sess.expect(
            _close(sync.max_latency, ev.latency, _REL),
            "synchronous-latency",
            f"{label}: synchronous latency {sync.max_latency!r} != "
            f"analytical {ev.latency!r}",
        )
    if event is not None:
        sess.expect(
            _close(event.first_latency, ev.latency, _REL),
            "event-driven-latency",
            f"{label}: event-driven first latency {event.first_latency!r} != "
            f"analytical {ev.latency!r}",
        )
        measured = event.measured_period()
        sess.expect(
            abs(measured - ev.period)
            <= _SIM_PERIOD_REL * max(ev.period, _TINY) + _TINY,
            "event-driven-period",
            f"{label}: event-driven steady-state period {measured!r} deviates "
            f"more than {_SIM_PERIOD_REL:.0%} from analytical {ev.period!r}",
        )
    if sync is not None and event is not None:
        sess.expect(
            abs(event.measured_period() - sync.measured_period())
            <= _SIM_PERIOD_REL * max(sync.measured_period(), _TINY) + _TINY,
            "simulator-disagreement",
            f"{label}: event-driven period {event.measured_period()!r} vs "
            f"synchronous period {sync.measured_period()!r}",
        )
