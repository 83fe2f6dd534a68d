"""Trajectory tries: walking shared states changes no heuristic result.

Every heuristic of Section 4 — H1–H3 to their period, H4's splitting
passes, the H5/H6 loop — walks the instance's trajectory trie
(:func:`repro.heuristics.engine.trajectory`) instead of replaying its
split loop from scratch.  These tests pin that down:

* a hypothesis test compares every walk, field by field, with loops that
  take each step from scratch (``tests/splitting_reference.py``), run
  outside any table scope, on every communication-homogeneous scenario
  family, at latency caps and period bounds on, just inside and just
  outside the values where the walk changes course;
* node-count tests show that a campaign of H1–H6 builds one node per
  distinct trajectory prefix of each trie — per (rule, width, processor
  order) — and that repeating it in the same scope builds none.

The golden fixture of ``tests/test_split_table.py`` pins the results of
H1–H6 on the paper panels as well.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import tables
from repro.core.costs import evaluate
from repro.core.tables import instance_tables, tables_for
from repro.generators.experiments import experiment_config, generate_instances
from repro.heuristics import SelectionRule, get_heuristic, trajectory
from repro.heuristics.base import reached, stop_limit
from repro.scenarios.families import FAMILIES
from splitting_reference import initial_state, reference_walk

COMM_HOMOGENEOUS_FAMILIES = [
    name for name in FAMILIES if name != "heterogeneous-links"
]

#: the trie each heuristic walks: ``(rule, width)``
WALKS = {
    "H1": (SelectionRule.MONO, 2),
    "H2": (SelectionRule.MONO, 3),
    "H3": (SelectionRule.RATIO, 3),
    "H4": (SelectionRule.RATIO, 2),
    "H5": (SelectionRule.MONO, 2),
    "H6": (SelectionRule.RATIO, 2),
}


# --------------------------------------------------------------------------- #
# the heuristics with every step taken from scratch, outside any scope
# --------------------------------------------------------------------------- #
def _recorder(seen):
    """A ``visit`` callback counting every trajectory prefix in ``seen``."""
    if seen is None:
        return None
    path = []

    def visit(state):
        path.append((state.intervals, state.processors))
        seen[tuple(path)] += 1

    return visit


def _reference_pass(app, platform, period_bound, authorized_latency, seen=None):
    """One H4 splitting pass."""
    assert tables._TABLES.get() is None, "the reference runs outside any scope"
    return reference_walk(
        app, platform, SelectionRule.RATIO, 2, period_bound, authorized_latency,
        _recorder(seen),
    )


def _result(key, app, platform, mapping, bound, n_splits, history):
    """``key``'s result at ``mapping``, its point from a fresh ``evaluate``."""
    ev = evaluate(app, platform, mapping)
    return get_heuristic(key)._make_result(
        mapping, (ev.period, ev.latency), bound, n_splits, history
    )


def _reference_h4(app, platform, bound, seen=None):
    """H4's ``_solve``: an unconstrained pass, then the latency bisection."""
    h4 = get_heuristic("H4")
    state, n_splits, history = _reference_pass(app, platform, bound, None, seen)
    if not reached(state.period, bound):
        return _result("H4", app, platform, state.mapping(), bound, n_splits, history)

    best_state, best_splits, best_history = state, n_splits, history
    lo = history[0][1]
    hi = state.latency
    for _ in range(h4.n_search_iterations):
        if hi - lo <= h4.search_rel_tol * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        trial_state, trial_splits, trial_history = _reference_pass(
            app, platform, bound, mid, seen
        )
        if reached(trial_state.period, bound):
            hi = mid
            if trial_state.latency < best_state.latency - 1e-12:
                best_state, best_splits, best_history = (
                    trial_state,
                    trial_splits,
                    trial_history,
                )
        else:
            lo = mid
    return _result(
        "H4", app, platform, best_state.mapping(), bound, best_splits, best_history
    )


def _reference_fixed_period(key, app, platform, bound, seen=None):
    """H1–H3: split uncapped until the period is reached."""
    assert tables._TABLES.get() is None, "the reference runs outside any scope"
    rule, width = WALKS[key]
    state, n_splits, history = reference_walk(
        app, platform, rule, width, bound, None, _recorder(seen)
    )
    return _result(key, app, platform, state.mapping(), bound, n_splits, history)


def _reference_fixed_latency(key, app, platform, bound, seen=None):
    """H5/H6: split under the latency bound until the walk stalls."""
    assert tables._TABLES.get() is None, "the reference runs outside any scope"
    rule, width = WALKS[key]
    visit = _recorder(seen)
    if reached(initial_state(app, platform).latency, bound):
        state, n_splits, history = reference_walk(
            app, platform, rule, width, None, bound, visit
        )
    else:  # even the initial mapping is too slow: a period bound that stops at once
        state, n_splits, history = reference_walk(
            app, platform, rule, width, float("inf"), None, visit
        )
    return _result(key, app, platform, state.mapping(), bound, n_splits, history)


def _reference(query, app, platform):
    """A query answered by the from-scratch loops (outside any scope)."""
    kind, bound, cap = query
    if kind == "pass":
        state, n_splits, history = _reference_pass(app, platform, bound, cap)
        return (state.mapping(), n_splits, history)
    if kind == "H4":
        return _reference_h4(app, platform, bound)
    if kind in ("H1", "H2", "H3"):
        return _reference_fixed_period(kind, app, platform, bound)
    return _reference_fixed_latency(kind, app, platform, bound)


def _walk(query, app, platform):
    """The same query answered by the trie walks (inside an open scope)."""
    kind, bound, cap = query
    if kind == "pass":
        root = trajectory(app, platform, SelectionRule.RATIO)
        node = root.walk(bound, None if cap is None else stop_limit(cap))
        return (node.mapping(), node.depth, list(node.history))
    if kind in ("H1", "H2", "H3", "H4"):
        return get_heuristic(kind).run(app, platform, period_bound=bound)
    return get_heuristic(kind).run(app, platform, latency_bound=bound)


def _fields(outcome):
    """Every field as an exact repr (bitwise float equality)."""
    if dataclasses.is_dataclass(outcome):
        return {f.name: repr(getattr(outcome, f.name)) for f in dataclasses.fields(outcome)}
    return repr(outcome)


# --------------------------------------------------------------------------- #
# where the walks change course
# --------------------------------------------------------------------------- #
def _bounds_around(limit: float) -> list[float]:
    """Bounds whose :func:`stop_limit` lands just under, on and just over ``limit``.

    ``on`` is the largest bound whose limit does not exceed ``limit`` (equal
    to it whenever a float bound maps there exactly).
    """
    on = (limit - 1e-12) / (1 + 1e-9)
    while stop_limit(on) > limit:
        on = np.nextafter(on, -np.inf)
    while stop_limit(np.nextafter(on, np.inf)) <= limit:
        on = np.nextafter(on, np.inf)
    outside = np.nextafter(on, -np.inf)
    while stop_limit(outside) >= limit:
        outside = np.nextafter(outside, -np.inf)
    inside = np.nextafter(on, np.inf)
    return [float(outside), float(on), float(inside)]


def _turning_points(app, platform, rule, budget=40):
    """Floor latencies and periods met by walks of the ``rule`` trie.

    A breadth-first walk from the root over every child index reachable
    under some limit, within ``budget`` nodes.  Runs in a throwaway scope.
    """
    floors, periods = set(), set()
    with instance_tables():
        frontier = [trajectory(app, platform, rule)]
        visited = 0
        while frontier and visited < budget:
            node = frontier.pop(0)
            visited += 1
            periods.add(node.period)
            if node.child(None) is None:
                continue
            _, ranking = node._split
            limits = sorted({-floor for floor in ranking.neg_floor})
            floors.update(limits)
            frontier.extend(node.child(limit) for limit in limits)
    return sorted(floors), sorted(periods)


def _draw(data, values, n, label):
    if not values:
        return []
    picks = data.draw(
        st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=n), label=label
    )
    return [values[k] for k in picks]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(COMM_HOMOGENEOUS_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_trie_walks_match_the_replaced_loops(family, seed, data):
    app, platform = FAMILIES[family].build(np.random.default_rng(seed))
    mono_floors, _ = _turning_points(app, platform, SelectionRule.MONO)
    ratio_floors, ratio_periods = _turning_points(app, platform, SelectionRule.RATIO)
    queries = []
    for key, floors in (("H5", mono_floors), ("H6", ratio_floors)):
        for floor in _draw(data, floors, 3, f"{key} floors"):
            queries += [(key, b, None) for b in _bounds_around(floor) if b > 0]
    for key in ("H1", "H2", "H3"):
        rule, width = WALKS[key]
        _, _, history = reference_walk(app, platform, rule, width, None, None)
        for period in _draw(data, [point[0] for point in history], 2, f"{key} periods"):
            queries += [(key, b, None) for b in _bounds_around(period) if b > 0]
    periods = _draw(data, ratio_periods, 2, "H4 periods")
    for period in periods:
        queries += [("H4", b, None) for b in _bounds_around(period) if b > 0]
    for cap in _draw(data, ratio_floors, 3, "H4 caps"):
        period = periods[0] if periods else 0.0
        queries += [("pass", period, c) for c in _bounds_around(cap)]
        queries.append(("pass", 0.0, cap))  # the whole capped walk
    queries.append(("pass", 0.0, None))

    want = [_fields(_reference(q, app, platform)) for q in queries]
    with instance_tables():
        # twice: cold nodes first, then every node warm
        for _ in range(2):
            for q, w in zip(queries, want):
                assert _fields(_walk(q, app, platform)) == w, (family, seed, q)


# --------------------------------------------------------------------------- #
# one node per distinct prefix
# --------------------------------------------------------------------------- #
def _nodes(root) -> int:
    """Nodes built in the trie under ``root``."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node._children.values())
    return count


def _campaign():
    """Small paper panels: instances and each instance's period and latency bounds."""
    out = []
    for family, p in (("E1", 10), ("E2", 6), ("E3", 10), ("E4", 6)):
        config = experiment_config(family, 14, p, n_instances=2)
        for inst in generate_instances(config, seed=11):
            app, platform = inst.application, inst.platform
            with instance_tables():
                root = trajectory(app, platform, SelectionRule.RATIO)
                fastest = root.walk()
            periods = np.linspace(0.9 * fastest.period, 1.05 * root.period, 8)
            latencies = np.linspace(0.95 * root.latency, 1.1 * fastest.latency, 8)
            out.append((app, platform, periods.tolist(), latencies.tolist()))
    return out


def _run_campaign(campaign):
    for app, platform, periods, latencies in campaign:
        for key in ("H1", "H2", "H3", "H4"):
            for bound in periods:
                get_heuristic(key).run(app, platform, period_bound=bound)
        for key in ("H5", "H6"):
            for bound in latencies:
                get_heuristic(key).run(app, platform, latency_bound=bound)


def _trie_nodes(campaign) -> dict[tuple[int, tuple], int]:
    """Nodes built per (instance, trie key ``(rule, width, order)``)."""
    return {
        (i, key): _nodes(root)
        for i, (app, platform, _, _) in enumerate(campaign)
        for key, root in tables_for(app, platform).trajectories.items()
    }


def test_a_campaign_builds_one_node_per_distinct_prefix():
    campaign = _campaign()
    prefixes: dict[tuple[int, tuple], Counter] = {}
    for i, (app, platform, periods, latencies) in enumerate(campaign):

        def seen(key):
            rule, width = WALKS[key]
            return prefixes.setdefault((i, (rule, width, None)), Counter())

        for bound in periods:
            for key in ("H1", "H2", "H3"):
                _reference_fixed_period(key, app, platform, bound, seen(key))
            _reference_h4(app, platform, bound, seen("H4"))
        for bound in latencies:
            for key in ("H5", "H6"):
                _reference_fixed_latency(key, app, platform, bound, seen(key))
    with instance_tables():
        _run_campaign(campaign)
        built = _trie_nodes(campaign)
    assert built == {key: len(seen) for key, seen in prefixes.items()}
    # every heuristic walked a trie: 2-way and 3-way, under both rules
    assert {key for _, key in built} == {(rule, width, None) for rule, width in WALKS.values()}
    # the from-scratch loops visited the same states several times over
    visits = sum(sum(seen.values()) for seen in prefixes.values())
    assert visits > 3 * sum(built.values())


def test_repeating_a_campaign_in_one_scope_builds_no_node():
    campaign = _campaign()
    with instance_tables():
        _run_campaign(campaign)
        first = _trie_nodes(campaign)
        _run_campaign(campaign)
        assert _trie_nodes(campaign) == first
    assert sum(first.values()) > 2 * len(campaign)  # the walks did split
