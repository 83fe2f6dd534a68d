"""Split tables: ranking each bottleneck split once changes no result.

:meth:`SplittingState.best_two_way_split` ranks every candidate of a split
key once and answers each later query — whatever its latency cap — from
that ranking.  These tests pin the contract down three ways:

* a golden fixture (``tests/golden/heuristic_identity.json``) holds the
  sha256 of ``SolveResult.identity()`` for H1–H6 and the two ablation
  heuristics on the paper panels and every communication-homogeneous
  scenario family, generated before the tables existed;
* a hypothesis test drives random states of every family and compares each
  query, field by field, against a copy of the selection loop the tables
  replaced (cold and warm tables, caps below, at and above the candidates);
* scope tests show that no table outlives the call that opened its scope.

Regenerate the fixture (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/test_split_table.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import tables
from repro.core.identity import digest_document
from repro.core.mapping import Interval
from repro.core.serialization import solve_result_to_dict
from repro.core.tables import instance_tables
from repro.experiments.ablation import (
    _OrderedSplittingMonoPeriod,
    _RatioSplittingPeriod,
)
from repro.experiments.sweep import run_sweep
from repro.generators.experiments import (
    experiment_config,
    generate_instances,
)
from repro.heuristics import (
    Objective,
    SelectionRule,
    SplitCandidate,
    SplittingMonoPeriod,
    SplittingState,
    all_heuristics,
    engine,
    get_heuristic,
)
from repro.scenarios.families import FAMILIES, generate_scenarios
from repro.server import DaemonConfig, DaemonThread, ServiceClient
from repro.solvers.base import SolveResult
from repro.solvers.service import solve_many

GOLDEN = Path(__file__).resolve().parent / "golden" / "heuristic_identity.json"

#: the eight Figs. 2-7 panels (E1-E4 at p=10 and p=100), at a small n
PANELS = [(family, p) for family in ("E1", "E2", "E3", "E4") for p in (10, 100)]
PANEL_STAGES = 12
PANEL_INSTANCES = 2
#: scenarios per communication-homogeneous family
FAMILY_SCENARIOS = 3
N_THRESHOLDS = 9
COMM_HOMOGENEOUS_FAMILIES = [
    name for name in FAMILIES if name != "heterogeneous-links"
]


def _heuristics():
    """H1-H6 plus the two ablation variants, each with a stable label."""
    return [(h.key, h) for h in all_heuristics()] + [
        ("A-ratio", _RatioSplittingPeriod()),
        ("A-order-random", _OrderedSplittingMonoPeriod("random", seed=0)),
    ]


def _instances():
    """``(label, application, platform)`` of every golden instance."""
    out = []
    for i, (family, p) in enumerate(PANELS):
        config = experiment_config(
            family, PANEL_STAGES, p, n_instances=PANEL_INSTANCES
        )
        for inst in generate_instances(config, seed=100 + i):
            out.append((f"{config.label}#{inst.index}", inst.application, inst.platform))
    scenarios = generate_scenarios(
        FAMILY_SCENARIOS * len(COMM_HOMOGENEOUS_FAMILIES),
        COMM_HOMOGENEOUS_FAMILIES,
        seed=7,
    )
    for s in scenarios:
        out.append((f"{s.family}#{s.index}", s.application, s.platform))
    return out


def _thresholds(app, platform) -> tuple[list[float], list[float]]:
    """Period and latency grids reaching below and above the reachable range."""
    best = SplittingMonoPeriod().run(app, platform, period_bound=1e-9)
    single = SplittingMonoPeriod().run(app, platform, period_bound=1e300)
    periods = np.linspace(0.9 * best.period, 1.05 * single.period, N_THRESHOLDS)
    latencies = np.linspace(0.95 * single.latency, 1.1 * best.latency, N_THRESHOLDS)
    return [float(x) for x in periods], [float(x) for x in latencies]


def _identity_digest(result: SolveResult) -> str:
    """sha256 of the canonical JSON of ``result.identity()``."""
    document = solve_result_to_dict(result)
    for name in SolveResult.NONDETERMINISTIC_FIELDS:
        document.pop(name)
    return digest_document(document)


def compute_digests() -> dict[str, str]:
    """``cell label -> identity digest`` over every golden cell."""
    digests: dict[str, str] = {}
    heuristics = _heuristics()
    for label, app, platform in _instances():
        periods, latencies = _thresholds(app, platform)
        for key, heuristic in heuristics:
            fixed_period = heuristic.objective == Objective.MIN_LATENCY_FOR_PERIOD
            for t, bound in enumerate(periods if fixed_period else latencies):
                if fixed_period:
                    result = heuristic.run(app, platform, period_bound=bound)
                else:
                    result = heuristic.run(app, platform, latency_bound=bound)
                digests[f"{label}/{key}/{t}"] = _identity_digest(
                    SolveResult.from_heuristic(result, solver=heuristic.name)
                )
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


# --------------------------------------------------------------------------- #
# field-by-field parity with the per-query selection the tables replaced
# --------------------------------------------------------------------------- #
_EPS = 1e-12


def _reference_select(state, j, pieces, rule, latency_cap, require_improvement):
    """The selection loop as it was before split tables (one query, no reuse)."""
    old_cycle = state._cycles[j]
    old_latency = state.latency
    other_max = state._other_max_cycle(j)
    base_latency = state._base_latency_without(j)

    best = None
    best_rank = None
    improvement_margin = _EPS * (1.0 + old_cycle)
    cap = None
    if latency_cap is not None:
        cap = latency_cap * (1 + 1e-9) + 1e-12

    for piece in pieces:
        cycles = np.vstack(piece["cycles"])
        contribs = np.vstack(piece["contribs"])
        local_max = cycles.max(axis=0)
        new_latency = base_latency + contribs.sum(axis=0)

        mask = np.ones(local_max.shape, dtype=bool)
        if require_improvement:
            mask &= local_max < old_cycle - improvement_margin
        if cap is not None:
            mask &= new_latency <= cap
        if not mask.any():
            continue

        if rule == SelectionRule.MONO:
            score = local_max
        else:
            delta_lat = new_latency - old_latency
            delta_per = old_cycle - cycles
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    delta_per > improvement_margin,
                    delta_lat[np.newaxis, :] / delta_per,
                    np.inf,
                )
            score = ratios.max(axis=0)

        candidate_indices = np.nonzero(mask)[0]
        sub_rank = np.lexsort(
            (
                new_latency[candidate_indices],
                local_max[candidate_indices],
                score[candidate_indices],
            )
        )
        idx = int(candidate_indices[sub_rank[0]])
        rank = (float(score[idx]), float(local_max[idx]), float(new_latency[idx]))
        if best_rank is None or rank < best_rank:
            best = SplitCandidate(
                interval_index=j,
                new_intervals=tuple(piece["interval_builder"](idx)),
                new_processors=tuple(piece["processors"]),
                new_cycles=tuple(float(cycles[k, idx]) for k in range(cycles.shape[0])),
                new_contributions=tuple(
                    float(contribs[k, idx]) for k in range(contribs.shape[0])
                ),
                new_period=float(max(other_max, local_max[idx])),
                new_latency=float(new_latency[idx]),
                old_cycle=float(old_cycle),
                old_latency=float(old_latency),
                score=float(score[idx]),
            )
            best_rank = rank
    return best


def _reference_pieces(state, j, new_proc):
    """The two orientations of splitting interval ``j`` with ``new_proc``."""
    iv = state.intervals[j]
    d, e = iv.start, iv.end
    proc_j = state.processors[j]
    s_j = float(state._speeds[proc_j])
    s_q = float(state._speeds[new_proc])
    cuts = np.arange(d, e)
    in1, w1, mid = state._part_times(np.full_like(cuts, d), cuts)
    _, w2, out2 = state._part_times(cuts + 1, np.full_like(cuts, e))

    def builder(idx):
        cut = int(cuts[idx])
        return [Interval(d, cut), Interval(cut + 1, e)]

    pieces = []
    for first_speed, second_speed, procs in (
        (s_j, s_q, (proc_j, new_proc)),
        (s_q, s_j, (new_proc, proc_j)),
    ):
        pieces.append(
            {
                "cycles": [in1 + w1 / first_speed + mid, mid + w2 / second_speed + out2],
                "contribs": [in1 + w1 / first_speed, mid + w2 / second_speed],
                "processors": procs,
                "interval_builder": builder,
            }
        )
    return pieces


def _reference_two_way(state, j, new_proc, rule, latency_cap, require_improvement):
    if state.intervals[j].start == state.intervals[j].end:
        return None
    return _reference_select(
        state, j, _reference_pieces(state, j, new_proc), rule, latency_cap,
        require_improvement,
    )


def _candidate_latencies(state, j, new_proc, require_improvement) -> list[float]:
    """Sorted new latencies of every candidate (the caps to probe around)."""
    if state.intervals[j].start == state.intervals[j].end:
        return []
    out = set()
    base = state._base_latency_without(j)
    margin = _EPS * (1.0 + state._cycles[j])
    for piece in _reference_pieces(state, j, new_proc):
        local_max = np.vstack(piece["cycles"]).max(axis=0)
        latency = base + np.vstack(piece["contribs"]).sum(axis=0)
        if require_improvement:
            latency = latency[local_max < state._cycles[j] - margin]
        out.update(latency.tolist())
    return sorted(out)


def _fields(candidate):
    """Every field of a candidate as exact reprs (bitwise float equality)."""
    if candidate is None:
        return None
    return {f.name: repr(getattr(candidate, f.name)) for f in dataclasses.fields(candidate)}


def _caps(latencies: list[float], data) -> list[float | None]:
    """No cap, caps below, at and above the candidates, and between two."""
    caps: list[float | None] = [None]
    if not latencies:
        return caps + [1.0]
    lo, hi = latencies[0], latencies[-1]
    at = latencies[data.draw(st.integers(0, len(latencies) - 1), label="at")]
    caps += [
        lo * 0.5,
        lo * (1 - 1e-6),
        at,
        (at - 1e-12) / (1 + 1e-9),  # the cap tolerance lands exactly on ``at``
        hi * 1.5,
    ]
    if len(latencies) > 1:
        k = data.draw(st.integers(0, len(latencies) - 2), label="between")
        caps.append(0.5 * (latencies[k] + latencies[k + 1]))
    return caps


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(COMM_HOMOGENEOUS_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_best_two_way_split_matches_the_reference_selection(family, seed, data):
    app, platform = FAMILIES[family].build(np.random.default_rng(seed))
    with instance_tables():
        state = SplittingState(app, platform)
        initial = None
        if state.n_unused:
            # fill the initial state's table entry; a twin state reads it below
            initial = (0, state.next_unused(1)[0])
            state.best_two_way_split(*initial)
        # walk to a random state through reference-selected splits
        for _ in range(data.draw(st.integers(0, 6), label="walk")):
            unused = state.next_unused(1)
            if not unused:
                break
            j = data.draw(st.integers(0, state.n_intervals - 1), label="walk j")
            rule = data.draw(st.sampled_from([SelectionRule.MONO, SelectionRule.RATIO]))
            step = _reference_two_way(state, j, unused[0], rule, None, True)
            if step is not None:
                state.apply(step)
        n_unused = state.n_unused
        if n_unused == 0:
            return
        for _ in range(data.draw(st.integers(1, 4), label="queries")):
            j = data.draw(st.integers(0, state.n_intervals - 1), label="j")
            new_proc = state.next_unused(n_unused)[
                data.draw(st.integers(0, n_unused - 1), label="new proc")
            ]
            rule = data.draw(st.sampled_from([SelectionRule.MONO, SelectionRule.RATIO]))
            require = data.draw(st.booleans(), label="require_improvement")
            latencies = _candidate_latencies(state, j, new_proc, require)
            # the first cap queries a cold table, every later one a warm one
            for cap in _caps(latencies, data):
                got = state.best_two_way_split(
                    j, new_proc, rule=rule, latency_cap=cap, require_improvement=require
                )
                want = _reference_two_way(state, j, new_proc, rule, cap, require)
                assert _fields(got) == _fields(want), (family, seed, j, rule, require, cap)
        # a second state of the same pair reads the table the first one filled
        if initial is not None:
            twin = SplittingState(app, platform)
            for cap in (None, twin.latency * 1.2):
                got = twin.best_two_way_split(*initial, latency_cap=cap)
                want = _reference_two_way(twin, *initial, SelectionRule.MONO, cap, True)
                assert _fields(got) == _fields(want)


@pytest.mark.parametrize(
    "perturb",
    [
        pytest.param(lambda c, x, j: c.__setitem__(j, c[j] * 1.01), id="old_cycle"),
        pytest.param(lambda c, x, j: x.__setitem__(j, x[j] + 1.0), id="old_latency"),
        pytest.param(
            lambda c, x, j: (x.__setitem__(1 - j, x[1 - j] + 1.0),
                             x.__setitem__(j, x[j] - 1.0)),
            id="base_latency",
        ),
    ],
)
def test_the_rank_floats_are_part_of_the_key(perturb):
    """Same split geometry, one different state float: a fresh ranking."""
    config = experiment_config("E2", 12, 6, n_instances=1)
    inst = generate_instances(config, seed=9)[0]
    app, platform = inst.application, inst.platform

    def split_once():
        state = SplittingState(app, platform)
        state.apply(state.best_two_way_split(0, state.next_unused(1)[0]))
        return state

    with instance_tables():
        first = split_once()
        j = 0  # the long interval: it has improving splits
        query = (j, first.next_unused(1)[0], SelectionRule.RATIO)
        first.best_two_way_split(*query)
        other = split_once()
        perturb(other._cycles, other._contribs, j)
        got = other.best_two_way_split(*query)
        assert got is not None
        assert _fields(got) == _fields(_reference_two_way(other, *query, None, True))


# --------------------------------------------------------------------------- #
# scope: tables live exactly as long as the call that opened them
# --------------------------------------------------------------------------- #
@pytest.fixture
def tables_seen(monkeypatch):
    """Record every table a state binds.

    Each record is ``(weakref to the table, table id, registry id or None,
    thread name)``.  Only ids are kept: a strong reference would keep the
    tables alive.
    """
    seen = []
    table_for = engine.tables_for

    def recording(app, platform):
        table = table_for(app, platform)
        registry = tables._TABLES.get()
        seen.append(
            (
                weakref.ref(table),
                id(table),
                None if registry is None else id(registry),
                threading.current_thread().name,
            )
        )
        return table

    monkeypatch.setattr(engine, "tables_for", recording)
    return seen


def _assert_dropped(seen):
    assert seen, "no splitting state was built"
    assert tables._TABLES.get() is None
    assert all(ref() is None for ref, _, _, _ in seen)


@pytest.fixture(scope="module")
def pair():
    config = experiment_config("E2", 10, 6, n_instances=1)
    inst = generate_instances(config, seed=5)[0]
    return inst.application, inst.platform


class TestScope:
    def test_no_table_survives_a_heuristic_run(self, pair, tables_seen):
        best = SplittingMonoPeriod().run(*pair, period_bound=1e-9)
        get_heuristic("H4").run(*pair, period_bound=1.2 * best.period)
        tables_seen[:1] = []  # the H1 run above had its own scope
        # every bisection pass joined the run's one scope and table
        assert len(tables_seen) > 2
        assert len({table for _, table, _, _ in tables_seen}) == 1
        assert None not in {registry for _, _, registry, _ in tables_seen}
        _assert_dropped(tables_seen)

    def test_no_table_survives_solve_many(self, pair, tables_seen):
        solve_many([pair], ["H5", "H6"], latency_bound=pair[0].total_work)
        # both heuristics of the batch shared the instance's one table
        assert len({table for _, table, _, _ in tables_seen}) == 1
        _assert_dropped(tables_seen)

    def test_no_table_survives_run_sweep(self, tables_seen):
        config = experiment_config("E1", 8, 5, n_instances=2)
        run_sweep(config, n_thresholds=3, seed=1)
        _assert_dropped(tables_seen)

    def test_nested_scope_reuses_the_outer_scope(self, pair):
        with instance_tables() as outer:
            with instance_tables() as inner:
                assert inner is outer
            assert tables._TABLES.get() is outer
            get_heuristic("H6").run(*pair, latency_bound=pair[0].total_work)
            # the run joined the open scope: its table is still here
            assert list(outer) == [(id(pair[0]), id(pair[1]))]
            state = SplittingState(*pair)
            assert state._tables is outer[(id(pair[0]), id(pair[1]))]
        assert tables._TABLES.get() is None

    def test_a_state_outside_any_scope_gets_a_private_table(self, pair):
        assert SplittingState(*pair)._tables is not SplittingState(*pair)._tables

    def test_daemon_solver_thread_gets_its_own_scope(self, tmp_path, pair, tables_seen):
        sock = str(tmp_path / "daemon.sock")
        with instance_tables() as mine:
            with DaemonThread(DaemonConfig(socket_path=sock, workers=1)):
                with ServiceClient(sock) as client:
                    client.solve(*pair, "H4", period_bound=1e-9)
            assert not mine  # the daemon's tables never entered this scope
        threads = {name for _, _, _, name in tables_seen}
        assert threads and all(name.startswith("repro-solve") for name in threads)
        registries = {registry for _, _, registry, _ in tables_seen}
        assert None not in registries
        assert id(mine) not in registries
        _assert_dropped(tables_seen)


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_split_table.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
