"""Exact tables: enumerating and solving each oracle instance once changes no result.

The brute-force solvers answer every bound from one evaluated enumeration
per instance, and the bitmask DP memoises its outcome per period bucket.
These tests pin the contract down:

* a golden fixture (``tests/golden/exact_identity.json``) holds the sha256
  of ``SolveResult.identity()`` for the two brute-force and the two bitmask
  solvers over seeded scenarios of every communication-homogeneous family
  plus zero-work and equal-speed instances, at period bounds below, at and
  above the knee and latency bounds below, at and above the optimum,
  generated before the tables existed;
* a hypothesis test runs the brute-force queries over adversarial period
  and latency columns (ties within ``1e-15``, repeated minima, chains of
  ties, bounds that exclude everything) and compares each winner with a
  verbatim copy of the sequential scan the tables replaced;
* count tests show that the bitmask DP runs at most once per period
  bucket, within a bisection and across calls in one scope;
* scope tests show that no table outlives the scope that built it.

Regenerate the fixture (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/test_exact_tables.py --regenerate
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import tables
from repro.core.application import PipelineApplication
from repro.core.costs import evaluate, optimal_latency_mapping, period_lower_bound
from repro.core.identity import digest_document
from repro.core.platform import Platform
from repro.core.exceptions import InfeasibleError
from repro.core.serialization import solve_result_to_dict
from repro.core.tables import instance_tables, tables_for
from repro.exact import brute_force, dp_bitmask
from repro.exact.brute_force import brute_force_min_latency, brute_force_min_period
from repro.exact.dp_bitmask import dp_min_latency_for_period, dp_min_period_for_latency
from repro.heuristics import engine
from repro.scenarios.differential import differential_check
from repro.scenarios.families import FAMILIES, generate_scenarios
from repro.solvers.base import SolveResult
from repro.solvers.registry import get_solver

GOLDEN = Path(__file__).resolve().parent / "golden" / "exact_identity.json"

COMM_HOMOGENEOUS_FAMILIES = [
    name for name in FAMILIES if name != "heterogeneous-links"
]
#: scenarios drawn per communication-homogeneous family
FAMILY_SCENARIOS = 6
#: the differential oracle's size gates for the two exponential solvers
BRUTE_MAX = (8, 5)
BITMASK_MAX = (14, 8)


def _tie_instances():
    """Zero-work and equal-speed instances, where many mappings tie."""
    return [
        (
            "zero-work",
            PipelineApplication(
                works=[0.0] * 6, comm_sizes=[2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0]
            ),
            Platform.communication_homogeneous([1.0, 2.0, 2.0, 4.0], bandwidth=1.0),
        ),
        (
            "all-zero",
            PipelineApplication(works=[0.0] * 5, comm_sizes=[0.0] * 6),
            Platform.communication_homogeneous([1.0, 3.0, 3.0], bandwidth=1.0),
        ),
        (
            "equal-speed",
            PipelineApplication(works=[2.0] * 8, comm_sizes=[1.0] * 9),
            Platform.communication_homogeneous([2.0] * 5, bandwidth=1.0),
        ),
        (
            "equal-speed-wide",
            PipelineApplication(
                works=[1.0, 3.0] * 5, comm_sizes=[1.0, 2.0] * 5 + [1.0]
            ),
            Platform.communication_homogeneous([1.5] * 7, bandwidth=2.0),
        ),
    ]


def _instances():
    """``(label, application, platform)`` of every golden instance."""
    scenarios = generate_scenarios(
        FAMILY_SCENARIOS * len(COMM_HOMOGENEOUS_FAMILIES),
        COMM_HOMOGENEOUS_FAMILIES,
        seed=20,
    )
    out = [(f"{s.family}#{s.index}", s.application, s.platform) for s in scenarios]
    return out + _tie_instances()


def _fits(app, platform, limits) -> bool:
    return app.n_stages <= limits[0] and platform.n_processors <= limits[1]


def _positive(bound: float) -> float:
    return max(float(bound), 1e-6)


def _bounds(app, platform) -> tuple[list[float], list[float]]:
    """Period bounds ``{0.5 p_lb, p_lb, mid, hi}`` and latency bounds
    ``{L*, 1.25 L*, 0.9 L*, inf}`` (``hi`` and ``L*`` from the Lemma 1 mapping)."""
    ev = evaluate(app, platform, optimal_latency_mapping(app, platform))
    p_lb = period_lower_bound(app, platform)
    periods = [0.5 * p_lb, p_lb, 0.5 * (p_lb + ev.period), ev.period]
    latencies = [ev.latency, 1.25 * ev.latency, 0.9 * ev.latency]
    return [_positive(b) for b in periods], [_positive(b) for b in latencies] + [math.inf]


def _identity_digest(result: SolveResult) -> str:
    """sha256 of the canonical JSON of ``result.identity()``."""
    document = solve_result_to_dict(result)
    for name in SolveResult.NONDETERMINISTIC_FIELDS:
        document.pop(name)
    return digest_document(document)


def _cells(app, platform):
    """``(solver, bound keyword, bound)`` of every golden cell of an instance."""
    periods, latencies = _bounds(app, platform)
    cells = []
    if _fits(app, platform, BRUTE_MAX):
        cells += [("brute-force-period", "latency_bound", b) for b in [None] + latencies]
        cells += [("brute-force-latency", "period_bound", b) for b in [None] + periods]
    if platform.is_communication_homogeneous and _fits(app, platform, BITMASK_MAX):
        cells += [("bitmask-dp-latency-for-period", "period_bound", b) for b in periods]
        cells += [("bitmask-dp-period-for-latency", "latency_bound", b) for b in latencies]
    return cells


def compute_digests() -> dict[str, str]:
    """``cell label -> identity digest`` over every golden cell."""
    digests: dict[str, str] = {}
    for label, app, platform in _instances():
        for t, (name, keyword, bound) in enumerate(_cells(app, platform)):
            result = get_solver(name).run(app, platform, **{keyword: bound})
            digests[f"{label}/{name}/{t}"] = _identity_digest(result)
    return digests


# --------------------------------------------------------------------------- #
# golden identities
# --------------------------------------------------------------------------- #
class TestGoldenIdentity:
    def test_every_cell_matches_the_fixture(self):
        expected = json.loads(GOLDEN.read_text())
        actual = compute_digests()
        assert actual.keys() == expected.keys()
        changed = sorted(k for k in expected if actual[k] != expected[k])
        assert not changed, f"{len(changed)} cells changed, e.g. {changed[:5]}"

    def test_the_fixture_covers_every_solver_and_family(self):
        labels = json.loads(GOLDEN.read_text())
        solvers = {label.split("/")[1] for label in labels}
        assert solvers == {
            "brute-force-period",
            "brute-force-latency",
            "bitmask-dp-latency-for-period",
            "bitmask-dp-period-for-latency",
        }
        families = {label.split("#")[0] for label in labels}
        # large-chain instances are beyond both exponential solvers' gates
        assert families >= set(COMM_HOMOGENEOUS_FAMILIES) - {"large-chain"}


# --------------------------------------------------------------------------- #
# brute force: the filtered selection against the scan it replaced
# --------------------------------------------------------------------------- #
def _reference_scan(primary, secondary, allowed):
    """The brute-force selection loop before the tables, over columns.

    ``primary`` is the minimised objective, ``secondary`` the tie-breaker and
    ``allowed`` the loop's bound test of each mapping, all in enumeration
    order; the comparisons are copied unchanged.
    """
    best = None
    best_primary = best_secondary = float("inf")
    for i in range(len(primary)):
        pri, sec = float(primary[i]), float(secondary[i])
        if not allowed[i]:
            continue
        if best is None or pri < best_primary - 1e-15 or (
            abs(pri - best_primary) <= 1e-15 and sec < best_secondary
        ):
            best, best_primary, best_secondary = i, pri, sec
    return best


#: n=4 stages on p=3 processors: 39 mappings
_SMALL_APP = PipelineApplication(works=[1.0, 2.0, 3.0, 4.0], comm_sizes=[1.0] * 5)
_SMALL_PLATFORM = Platform.communication_homogeneous([1.0, 2.0, 3.0], bandwidth=1.0)
_N_MAPPINGS = 39

#: bases around which the columns cluster: zero, small values where 1e-15
#: spans several ulps, the 8.0 binade edge, and a large value
_BASES = [0.0, 1e-3, 1.0, 3.0, 7.999999999999999, 8.0, 1e6]


@st.composite
def _columns(draw):
    """A column of near-equal values: a base plus a few ulps per entry."""
    base = draw(st.sampled_from(_BASES))
    ulp = math.ulp(base) if base else 1e-16
    steps = draw(
        st.lists(st.integers(0, 12), min_size=_N_MAPPINGS, max_size=_N_MAPPINGS)
    )
    return np.array([base + k * ulp for k in steps])


def _query(kind, periods, latencies, bound):
    """Answer a query from injected columns; the mapping number, or None."""
    with instance_tables():
        enumeration = brute_force._Enumeration(4, 3)
        assert enumeration.size == _N_MAPPINGS
        tables_for(_SMALL_APP, _SMALL_PLATFORM).brute_force = brute_force._Table(
            enumeration, periods, latencies
        )
        numbers = {enumeration.mapping(k): k for k in range(enumeration.size)}
        try:
            if kind == "period":
                mapping, _ = brute_force_min_period(
                    _SMALL_APP, _SMALL_PLATFORM, latency_bound=bound
                )
            else:
                mapping, _ = brute_force_min_latency(
                    _SMALL_APP, _SMALL_PLATFORM, period_bound=bound
                )
        except InfeasibleError:
            return None
    return numbers[mapping]


def _expected(kind, periods, latencies, bound):
    if kind == "period":
        primary, secondary, bounded = periods, latencies, latencies
    else:
        primary, secondary, bounded = latencies, periods, periods
    allowed = [bound is None or not float(x) > bound + 1e-12 for x in bounded]
    return _reference_scan(primary, secondary, allowed)


def _climbing_chain():
    """Latencies climbing by 4 ulps (within 1e-15 of the one before) while
    periods fall: the scan accepts every step, far past the filter's slack."""
    latencies = np.array([1.0 + 4 * k * math.ulp(1.0) for k in range(_N_MAPPINGS)])
    periods = np.array([float(_N_MAPPINGS - k) for k in range(_N_MAPPINGS)])
    return periods, latencies


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["period", "latency"]),
    periods=_columns(),
    latencies=_columns(),
    bound=st.one_of(
        st.none(), st.sampled_from([-1.0, 0.0]), st.sampled_from(_BASES)
    ),
)
@example(kind="latency", periods=_climbing_chain()[0], latencies=_climbing_chain()[1], bound=None)
def test_selection_matches_the_sequential_scan(kind, periods, latencies, bound):
    got = _query(kind, periods, latencies, bound)
    assert got == _expected(kind, periods, latencies, bound)


def test_a_climbing_tie_chain_falls_back_to_the_full_scan(monkeypatch):
    scanned = []
    scan = brute_force._scan

    def recording(indices, primary, secondary):
        scanned.append(len(indices))
        return scan(indices, primary, secondary)

    monkeypatch.setattr(brute_force, "_scan", recording)
    periods, latencies = _climbing_chain()
    want = _expected("latency", periods, latencies, None)
    assert want == _N_MAPPINGS - 1  # every step of the chain was accepted
    assert _query("latency", periods, latencies, None) == want
    # the filter kept the start of the chain, the check caught the climb
    assert scanned[0] < _N_MAPPINGS and scanned[1:] == [_N_MAPPINGS]


def test_a_bound_that_excludes_everything_raises():
    periods = np.full(_N_MAPPINGS, 2.0)
    with pytest.raises(InfeasibleError):
        brute_force_min_latency(_SMALL_APP, _SMALL_PLATFORM, period_bound=1e-9)
    assert _query("latency", periods, periods, 1.0) is None
    assert _query("period", periods, periods, 1.0) is None


# --------------------------------------------------------------------------- #
# bitmask DP: one run per period bucket
# --------------------------------------------------------------------------- #
@pytest.fixture
def dp_runs(monkeypatch):
    """Record the bucket of every DP run, and count the bucket lookups."""
    runs: list[int] = []
    lookups: list[int] = []
    run_dp = dp_bitmask._run_dp
    bucket = dp_bitmask._Buckets.bucket

    def recording_run(app, platform, buckets, k):
        runs.append(k)
        return run_dp(app, platform, buckets, k)

    def counting_bucket(self, period_bound):
        lookups.append(period_bound)
        return bucket(self, period_bound)

    monkeypatch.setattr(dp_bitmask, "_run_dp", recording_run)
    monkeypatch.setattr(dp_bitmask._Buckets, "bucket", counting_bucket)
    return runs, lookups


def _bitmask_instance():
    scenario = generate_scenarios(1, ["heterogeneous-chain"], seed=3)[0]
    app, platform = scenario.application, scenario.platform
    assert _fits(app, platform, BITMASK_MAX)
    latency = evaluate(app, platform, optimal_latency_mapping(app, platform)).latency
    return app, platform, 1.25 * latency


class TestBuckets:
    def test_a_bisection_runs_the_dp_once_per_bucket(self, dp_runs):
        runs, lookups = dp_runs
        app, platform, bound = _bitmask_instance()
        dp_min_period_for_latency(app, platform, bound)
        assert len(runs) == len(set(runs))
        assert len(lookups) > len(runs)  # the bisection revisited buckets

    def test_later_calls_in_a_scope_reuse_the_buckets(self, dp_runs):
        runs, _ = dp_runs
        app, platform, bound = _bitmask_instance()
        with instance_tables():
            mapping, period = dp_min_period_for_latency(app, platform, bound)
            seen = list(runs)
            assert dp_min_period_for_latency(app, platform, bound) == (mapping, period)
            dp_min_latency_for_period(app, platform, period)
            get_solver("bitmask-dp-latency-for-period").run(
                app, platform, period_bound=period
            )
            assert runs == seen
            buckets = tables_for(app, platform).bitmask
            fresh = next(
                b for b in (0.9 * period, 0.7 * period, 0.5 * period, 1e-9)
                if buckets.bucket(b) not in seen
            )
            with contextlib.suppress(InfeasibleError):
                dp_min_latency_for_period(app, platform, fresh)
            assert len(runs) == len(seen) + 1
        # a new scope starts with no buckets
        dp_min_latency_for_period(app, platform, period)
        assert len(runs) == len(seen) + 2

    def test_infeasible_buckets_are_memoised_with_the_callers_bound(self, dp_runs):
        runs, _ = dp_runs
        app, platform, _ = _bitmask_instance()
        with instance_tables():
            for bound in (1e-9, 2e-9):
                with pytest.raises(InfeasibleError, match=f"period <= {bound:g}"):
                    dp_min_latency_for_period(app, platform, bound)
        assert runs == [0]

    def test_the_bucket_key_reads_the_dps_cycle_table(self):
        app, platform, _ = _bitmask_instance()
        buckets = dp_bitmask._Buckets(app, platform)
        cycles = buckets.sorted_cycles
        for k, cycle in enumerate(cycles[:-1]):
            if cycles[k + 1] > cycle + 1e-12:
                # a bound whose tolerance reaches exactly this cycle time
                assert buckets.bucket(cycle - 1e-12) >= k
                assert buckets.bucket(cycle) == k + 1
        assert buckets.bucket(cycles[-1]) == len(cycles)
        assert buckets.bucket(-1.0) == 0


def _reference_dp(app, platform, period_bound):
    """``dp_min_latency_for_period`` before the buckets, verbatim (``None``
    for infeasible): it recomputes every cycle time and breaks early."""
    n = app.n_stages
    p = platform.n_processors
    b = platform.uniform_bandwidth
    b_in = platform.input_bandwidth
    b_out = platform.output_bandwidth
    speeds = platform.speeds
    comm = app.comm_sizes
    prefix = np.concatenate(([0.0], np.cumsum(app.works)))

    INF = float("inf")
    size = 1 << p
    table = np.full((n + 1, size), INF)
    table[0, 0] = 0.0
    choices = [dict() for _ in range(n + 1)]

    for i in range(n):
        row = table[i]
        active_masks = np.nonzero(np.isfinite(row))[0]
        if active_masks.size == 0:
            continue
        for mask in active_masks:
            base_latency = float(row[mask])
            for u in range(p):
                bit = 1 << u
                if mask & bit:
                    continue
                s = float(speeds[u])
                in_bw = b_in if i == 0 else b
                input_time = comm[i] / in_bw if comm[i] else 0.0
                for e in range(i, n):
                    work_time = float(prefix[e + 1] - prefix[i]) / s
                    out_bw = b_out if e == n - 1 else b
                    output_time = comm[e + 1] / out_bw if comm[e + 1] else 0.0
                    cycle = input_time + work_time + output_time
                    if cycle > period_bound + 1e-12:
                        if input_time + work_time > period_bound + 1e-12:
                            break
                        continue
                    new_latency = base_latency + input_time + work_time
                    new_mask = mask | bit
                    if new_latency < table[e + 1, new_mask] - 1e-15:
                        table[e + 1, new_mask] = new_latency
                        choices[e + 1][new_mask] = (i, mask, u)

    final_row = table[n]
    finite = np.isfinite(final_row)
    if not finite.any():
        return None
    best_mask = int(np.argmin(np.where(finite, final_row, np.inf)))
    intervals, processors = [], []
    i, mask = n, best_mask
    while i > 0:
        prev_i, prev_mask, proc = choices[i][mask]
        intervals.append((prev_i, i - 1))
        processors.append(proc)
        i, mask = prev_i, prev_mask
    return list(reversed(intervals)), list(reversed(processors))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(COMM_HOMOGENEOUS_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_bucketed_dp_matches_the_reference_dp(family, seed, data):
    """Warm and cold buckets answer exactly what the old DP computes, at
    bounds on, just inside and just outside interval cycle times."""
    app, platform = FAMILIES[family].build(np.random.default_rng(seed))
    if not _fits(app, platform, (10, 6)):
        return
    cycles = dp_bitmask._Buckets(app, platform).sorted_cycles
    picks = data.draw(
        st.lists(st.sampled_from(cycles), min_size=1, max_size=4), label="cycles"
    )
    bounds = [c + d for c in picks for d in (-2e-12, -1e-12, 0.0, 1e-12)]
    bounds += [0.5 * cycles[0], 2.0 * cycles[-1]]
    with instance_tables():
        for bound in bounds:
            want = _reference_dp(app, platform, bound)
            try:
                mapping, _ = dp_min_latency_for_period(app, platform, bound)
            except InfeasibleError:
                assert want is None, bound
                continue
            got = ([(iv.start, iv.end) for iv in mapping.intervals], list(mapping.processors))
            assert got == want, bound


# --------------------------------------------------------------------------- #
# scope: tables live exactly as long as the scope that built them
# --------------------------------------------------------------------------- #
@pytest.fixture
def entries_seen(monkeypatch):
    """Weak references to every table entry the solvers bind."""
    seen: list[tuple[weakref.ref, int | None]] = []
    table_for = tables.tables_for

    def recording(app, platform):
        entry = table_for(app, platform)
        registry = tables._TABLES.get()
        seen.append((weakref.ref(entry), None if registry is None else id(registry)))
        return entry

    for module in (brute_force, dp_bitmask, engine):
        monkeypatch.setattr(module, "tables_for", recording)
    return seen


def _assert_dropped(seen):
    assert seen, "no table was built"
    assert tables._TABLES.get() is None
    assert all(ref() is None for ref, _ in seen)


class TestScope:
    def test_no_table_survives_outside_a_scope(self, entries_seen):
        app, platform, bound = _bitmask_instance()
        brute_force_min_latency(_SMALL_APP, _SMALL_PLATFORM)
        dp_min_latency_for_period(app, platform, 1e9)
        assert {registry for _, registry in entries_seen} == {None}
        _assert_dropped(entries_seen)

    def test_tables_are_dropped_when_the_outermost_scope_exits(self):
        with instance_tables() as outer:
            brute_force_min_period(_SMALL_APP, _SMALL_PLATFORM)
            with instance_tables() as inner:
                assert inner is outer
                brute_force_min_latency(_SMALL_APP, _SMALL_PLATFORM)
            entry = outer[(id(_SMALL_APP), id(_SMALL_PLATFORM))]
            assert entry.brute_force is not None
            assert tables_for(_SMALL_APP, _SMALL_PLATFORM) is entry
            ref = weakref.ref(entry)
            del entry, inner, outer
        assert tables._TABLES.get() is None
        assert ref() is None
        assert tables_for(_SMALL_APP, _SMALL_PLATFORM) is not tables_for(
            _SMALL_APP, _SMALL_PLATFORM
        )

    def test_differential_check_shares_one_entry_per_instance(
        self, entries_seen, monkeypatch
    ):
        app, platform, _ = _bitmask_instance()
        assert _fits(app, platform, BRUTE_MAX)
        chunks = []
        evaluate_packed = brute_force.evaluate_packed

        def counting(*args):
            chunks.append(len(args[-1]) - 1)
            return evaluate_packed(*args)

        monkeypatch.setattr(brute_force, "evaluate_packed", counting)
        assert differential_check(app, platform, simulate=False).ok
        # five brute-force queries, one evaluated enumeration
        size = brute_force._Enumeration(app.n_stages, platform.n_processors).size
        assert sum(chunks) == size
        entries = {id(ref()) for ref, _ in entries_seen}
        registries = {registry for _, registry in entries_seen}
        # brute force, the bitmask DP and the heuristics read one entry
        assert len(entries) == 1 and len(registries) == 1 and None not in registries
        _assert_dropped(entries_seen)


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_exact_tables.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
