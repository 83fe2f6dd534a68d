"""Split tables: ranking each bottleneck split once changes no result.

A trajectory-trie node (:mod:`repro.heuristics.engine`) ranks every
candidate of its bottleneck split once — through the instance's split
table for a 2-way split — and answers each later query, whatever its
latency cap, from that ranking.  These tests pin the contract down three
ways:

* a golden fixture (``tests/golden/heuristic_identity.json``) holds the
  sha256 of ``SolveResult.identity()`` for H1–H6 and the two ablation
  heuristics on the paper panels and every communication-homogeneous
  scenario family, generated before the tables existed, plus H1–H3 on
  deep panels (n=40, p=100) whose 3-way walks split many times, and
  H2/H3 on deeper ones (E1 n=120 p=12, E3 n=100 p=100) whose 3-way
  rankings hold thousands of candidates each;
* a hypothesis test walks the tries of every family and compares each
  child, field by field, with a from-scratch selection
  (``tests/splitting_reference.py``): every edge of the uncapped 3-way
  path, and on a random 2-way path cold and warm rankings, a second trie
  reading the first one's table, caps below, at and above the candidates;
* scope tests show that no table, and no trajectory-trie node, outlives
  the call that opened its scope, and that no 3-way ranking outlives the
  step that built it.

Regenerate the fixture (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/test_split_table.py --regenerate
"""

from __future__ import annotations

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
    SplittingMonoPeriod,
    all_heuristics,
    engine,
    get_heuristic,
    trajectory,
)
from repro.heuristics.base import stop_limit
from repro.scenarios.families import FAMILIES, generate_scenarios
from repro.server import DaemonConfig, DaemonThread, ServiceClient
from repro.solvers.base import SolveResult
from repro.solvers.service import solve_many
from splitting_reference import (
    candidate_latencies,
    reference_step,
    state_fields,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "heuristic_identity.json"

#: the eight Figs. 2-7 panels (E1-E4 at p=10 and p=100), at a small n
PANELS = [(family, p) for family in ("E1", "E2", "E3", "E4") for p in (10, 100)]
PANEL_STAGES = 12
PANEL_INSTANCES = 2
#: deep paper panels for the 3-way walks: E1-E4 at n=40, p=100, where H1-H3
#: split many times over long intervals
DEEP_PANELS = [(family, 100) for family in ("E1", "E2", "E3", "E4")]
DEEP_STAGES = 40
DEEP_HEURISTICS = ("H1", "H2", "H3")
#: deeper 3-way panels, (family, stages, processors): long bottleneck
#: intervals whose 3-way rankings hold thousands of candidates
DEEPER_PANELS = [("E1", 120, 12), ("E3", 100, 100)]
DEEPER_HEURISTICS = ("H2", "H3")
DEEPER_THRESHOLDS = 6
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


def _panel_instances(panels, n_stages, seed):
    """``(label, application, platform)`` of the paper-panel instances."""
    out = []
    for i, (family, p) in enumerate(panels):
        config = experiment_config(family, n_stages, p, n_instances=PANEL_INSTANCES)
        for inst in generate_instances(config, seed=seed + i):
            out.append((f"{config.label}#{inst.index}", inst.application, inst.platform))
    return out


def _instances():
    """``(label, application, platform)`` of every golden instance."""
    out = _panel_instances(PANELS, PANEL_STAGES, 100)
    scenarios = generate_scenarios(
        FAMILY_SCENARIOS * len(COMM_HOMOGENEOUS_FAMILIES),
        COMM_HOMOGENEOUS_FAMILIES,
        seed=7,
    )
    for s in scenarios:
        out.append((f"{s.family}#{s.index}", s.application, s.platform))
    return out


def _thresholds(app, platform, n=N_THRESHOLDS) -> tuple[list[float], list[float]]:
    """Period and latency grids reaching below and above the reachable range."""
    best = SplittingMonoPeriod().run(app, platform, period_bound=1e-9)
    single = SplittingMonoPeriod().run(app, platform, period_bound=1e300)
    periods = np.linspace(0.9 * best.period, 1.05 * single.period, n)
    latencies = np.linspace(0.95 * single.latency, 1.1 * best.latency, n)
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
    deep = [(key, h) for key, h in heuristics if key in DEEP_HEURISTICS]
    deeper = [(key, h) for key, h in heuristics if key in DEEPER_HEURISTICS]
    cases = [(instance, heuristics, N_THRESHOLDS) for instance in _instances()] + [
        (instance, deep, N_THRESHOLDS)
        for instance in _panel_instances(DEEP_PANELS, DEEP_STAGES, 200)
    ]
    for i, (family, n_stages, p) in enumerate(DEEPER_PANELS):
        cases += [
            (instance, deeper, DEEPER_THRESHOLDS)
            for instance in _panel_instances([(family, p)], n_stages, 300 + i)
        ]
    for (label, app, platform), cell_heuristics, n_thresholds in cases:
        periods, latencies = _thresholds(app, platform, n_thresholds)
        for key, heuristic in cell_heuristics:
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
# field-by-field parity with a from-scratch selection
# --------------------------------------------------------------------------- #
RULES = [SelectionRule.MONO, SelectionRule.RATIO]


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


def _child(node, cap):
    return node.child(None if cap is None else stop_limit(cap))


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
def test_trie_children_match_the_reference_selection(family, seed, data):
    app, platform = FAMILIES[family].build(np.random.default_rng(seed))
    inst = engine._Instance(app, platform)
    rule = data.draw(st.sampled_from(RULES), label="rule")
    with instance_tables():
        # every edge of the uncapped 3-way path
        node = trajectory(app, platform, rule, 3)
        while node is not None:
            got = node.child(None)
            assert state_fields(got) == state_fields(
                reference_step(inst, node, rule, 3, None)
            ), (family, seed, rule, node.depth)
            node = got
        # a random capped walk down the 2-way trie; at each node the first
        # cap queries a cold ranking, every later one a warm one
        node = trajectory(app, platform, rule)
        for _ in range(data.draw(st.integers(0, 6), label="walk")):
            children = []
            for cap in _caps(candidate_latencies(inst, node, 2), data):
                got = _child(node, cap)
                want = reference_step(inst, node, rule, 2, cap)
                assert state_fields(got) == state_fields(want), (family, seed, rule, cap)
                if got is not None:
                    children.append(got)
            if not children:
                break
            node = children[data.draw(st.integers(0, len(children) - 1), label="next")]
        # a trie under an explicit order reads the rankings tabled above
        order = tuple(platform.processors_by_speed(descending=True))
        twin = trajectory(app, platform, rule, 2, order)
        assert twin is not trajectory(app, platform, rule)
        for cap in (None, twin.latency * 1.2):
            got = _child(twin, cap)
            assert state_fields(got) == state_fields(
                reference_step(inst, twin, rule, 2, cap)
            )


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
    config = experiment_config("E1", 12, 6, n_instances=1)
    inst = generate_instances(config, seed=9)[0]
    app, platform = inst.application, inst.platform

    with instance_tables():
        first = trajectory(app, platform, SelectionRule.RATIO).child(None)
        assert first.child(None) is not None  # tables the bottleneck split
        j = int(np.argmax(first.cycles))
        cycles, contribs = list(first.cycles), list(first.contribs)
        perturb(cycles, contribs, j)
        other = engine.TrajectoryNode(
            first._trie, first.intervals, first.processors, tuple(cycles),
            tuple(contribs), first.unused, (),
        )
        got = other.child(None)
        assert got is not None
        assert other._split[1] is not first._split[1]
        want = reference_step(engine._Instance(app, platform), other, SelectionRule.RATIO, 2, None)
        assert state_fields(got) == state_fields(want)


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


@pytest.fixture
def nodes_seen(monkeypatch):
    """Weak references to every trajectory-trie node built.

    No ``gc.collect()`` runs before they are checked: a node that outlives
    its scope only through a reference cycle still counts as alive.
    """
    seen = []
    init = engine.TrajectoryNode.__init__

    def recording(node, *args):
        init(node, *args)
        seen.append(weakref.ref(node))

    monkeypatch.setattr(engine.TrajectoryNode, "__init__", recording)
    return seen


@pytest.fixture
def rankings_seen(monkeypatch):
    """``(weak reference, parts per split)`` of every split ranking built."""
    seen = []

    class Recording(engine._Ranking):
        def __init__(self, inst, d, e, procs, *args):
            super().__init__(inst, d, e, procs, *args)
            seen.append((weakref.ref(self), len(procs)))

    monkeypatch.setattr(engine, "_Ranking", Recording)
    return seen


def _assert_dropped(seen, nodes=()):
    assert seen, "no trajectory was built"
    assert tables._TABLES.get() is None
    assert all(ref() is None for ref, _, _, _ in seen)
    assert all(ref() is None for ref in nodes), "a trie node outlived its scope"


@pytest.fixture(scope="module")
def pair():
    config = experiment_config("E2", 10, 6, n_instances=1)
    inst = generate_instances(config, seed=5)[0]
    return inst.application, inst.platform


class TestScope:
    def test_no_table_survives_a_heuristic_run(self, pair, tables_seen, nodes_seen):
        best = SplittingMonoPeriod().run(*pair, period_bound=1e-9)
        get_heuristic("H4").run(*pair, period_bound=1.2 * best.period)
        tables_seen[:1] = []  # the H1 run above had its own scope
        # the bisection passes walked one trie, in the run's one scope
        assert len(tables_seen) == 1
        assert None not in {registry for _, _, registry, _ in tables_seen}
        assert len(nodes_seen) > 2
        _assert_dropped(tables_seen, nodes_seen)

    def test_no_table_survives_solve_many(self, pair, tables_seen, nodes_seen):
        solve_many([pair], ["H5", "H6"], latency_bound=pair[0].total_work)
        # both heuristics of the batch shared the instance's one table
        assert len({table for _, table, _, _ in tables_seen}) == 1
        assert nodes_seen
        _assert_dropped(tables_seen, nodes_seen)

    def test_three_way_nodes_die_with_their_scope(
        self, pair, tables_seen, nodes_seen, rankings_seen
    ):
        with instance_tables():
            for key in ("H2", "H3"):
                get_heuristic(key).run(*pair, period_bound=1e-9)
            three_way = [ref for ref, parts in rankings_seen if parts == 3]
            assert len(nodes_seen) > 2  # both walks split
            # a 3-way ranking is dropped as soon as its node's child exists
            assert three_way and all(ref() is None for ref in three_way)
        assert all(parts == 3 for _, parts in rankings_seen)
        _assert_dropped(tables_seen, nodes_seen)

    def test_no_table_survives_run_sweep(self, tables_seen, nodes_seen):
        config = experiment_config("E1", 8, 5, n_instances=2)
        run_sweep(config, n_thresholds=3, seed=1)
        assert nodes_seen
        _assert_dropped(tables_seen, nodes_seen)

    def test_nested_scope_reuses_the_outer_scope(self, pair):
        with instance_tables() as outer:
            with instance_tables() as inner:
                assert inner is outer
            assert tables._TABLES.get() is outer
            get_heuristic("H6").run(*pair, latency_bound=pair[0].total_work)
            # the run joined the open scope: its table is still here
            assert list(outer) == [(id(pair[0]), id(pair[1]))]
            entry = outer[(id(pair[0]), id(pair[1]))]
            root = trajectory(*pair, SelectionRule.RATIO)
            assert entry.trajectories == {(SelectionRule.RATIO, 2, None): root}
        assert tables._TABLES.get() is None

    def test_a_trie_outside_any_scope_is_private(self, pair):
        rule = SelectionRule.MONO
        assert trajectory(*pair, rule) is not trajectory(*pair, rule)

    def test_daemon_solver_thread_gets_its_own_scope(
        self, tmp_path, pair, tables_seen, nodes_seen
    ):
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
        assert nodes_seen
        _assert_dropped(tables_seen, nodes_seen)


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_split_table.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
