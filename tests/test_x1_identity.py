"""X1 (``Hetero Sp P``): incremental scoring changes no result.

X1 scores each split candidate from the interval terms the split touches
and builds one mapping per step.  These tests pin that down two ways:

* a golden fixture (``tests/golden/x1_identity.json``) holds the sha256 of
  ``SolveResult.identity()`` for X1 over seeded scenarios of every family
  (heterogeneous links and communication-homogeneous ones), at period
  bounds below, at and above each instance's knee and at every period of
  its trajectory, generated while X1 still evaluated every candidate
  mapping in full;
* a hypothesis test compares each run on random instances and bounds with
  the from-scratch loop of ``tests/x1_reference.py``, half of them on
  platforms whose link bandwidths span 0.2-50, and two pinned instances
  check that a neighbour's new link term carries to later steps.

Regenerate the fixture (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/test_x1_identity.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.costs import evaluate, optimal_latency_mapping, period_lower_bound
from repro.core.identity import digest_document
from repro.core.serialization import solve_result_to_dict
from repro.extensions.heterogeneous_links import HeterogeneousSplittingPeriod
from repro.generators.applications import random_pipeline
from repro.generators.platforms import random_fully_heterogeneous_platform
from repro.scenarios.families import FAMILIES, generate_scenarios
from repro.solvers.base import SolveResult
from x1_reference import reference_run

GOLDEN = Path(__file__).resolve().parent / "golden" / "x1_identity.json"

#: scenarios per family, plus extra heterogeneous-link ones
FAMILY_SCENARIOS = 3
HETERO_SCENARIOS = 8


def _instances():
    """``(label, application, platform)`` of every golden instance."""
    groups = [
        (11, generate_scenarios(FAMILY_SCENARIOS * len(FAMILIES), list(FAMILIES), seed=11)),
        (12, generate_scenarios(HETERO_SCENARIOS, ["heterogeneous-links"], seed=12)),
    ]
    return [
        (f"{s.family}#{s.index}@{seed}", s.application, s.platform)
        for seed, group in groups
        for s in group
    ]


def _bounds(app, platform) -> list[float]:
    """Bounds below, at and above the knee, and at every trajectory period.

    The knee is the smallest period X1 reaches; the oracle's two bounds
    (between the lower bound and the Lemma 1 period, and the Lemma 1
    period itself) are included too.
    """
    knee_run = HeterogeneousSplittingPeriod().run(app, platform, period_bound=1e-9)
    knee = knee_run.period
    single = evaluate(app, platform, optimal_latency_mapping(app, platform)).period
    p_lb = period_lower_bound(app, platform)
    bounds = [0.5 * p_lb, 0.999 * knee, knee, 1.001 * knee,
              0.5 * (p_lb + single), single, 1.5 * single]
    bounds += [period for period, _ in knee_run.history]
    return [max(float(b), 1e-6) for b in bounds]


def _digest(result) -> str:
    """sha256 of the canonical JSON of the X1 result's ``identity()``."""
    document = solve_result_to_dict(
        SolveResult.from_heuristic(result, solver=HeterogeneousSplittingPeriod.name)
    )
    for name in SolveResult.NONDETERMINISTIC_FIELDS:
        document.pop(name)
    return digest_document(document)


def compute_digests() -> dict[str, str]:
    """``cell label -> identity digest`` over every golden cell."""
    digests: dict[str, str] = {}
    heuristic = HeterogeneousSplittingPeriod()
    for label, app, platform in _instances():
        for t, bound in enumerate(_bounds(app, platform)):
            result = heuristic.run(app, platform, period_bound=bound)
            digests[f"{label}/X1/{t}"] = _digest(result)
    return digests


class TestGoldenIdentity:
    def test_every_cell_matches_the_fixture(self):
        expected = json.loads(GOLDEN.read_text())
        actual = compute_digests()
        assert actual.keys() == expected.keys()
        changed = sorted(k for k in expected if actual[k] != expected[k])
        assert not changed, f"{len(changed)} cells changed, e.g. {changed[:5]}"

    def test_the_fixture_covers_every_family(self):
        labels = json.loads(GOLDEN.read_text())
        assert {label.split("#")[0] for label in labels} == set(FAMILIES)


#: random instances whose link bandwidths span 0.2-50, so a neighbour's link
#: term often decides a later step
WIDE_LINKS = "wide-links"


def _build(source: str, seed: int):
    if source != WIDE_LINKS:
        return FAMILIES[source].build(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(8, 19)), int(rng.integers(4, 13))
    app = random_pipeline(n, work_range=(1, 20), comm_range=(1, 100), seed=rng)
    return app, random_fully_heterogeneous_platform(p, bandwidth_range=(0.2, 50.0), seed=rng)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    # every family, and as many draws again of wide-link instances
    source=st.sampled_from(list(FAMILIES) + [WIDE_LINKS] * len(FAMILIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_x1_matches_the_reference_loop(source, seed, data):
    app, platform = _build(source, seed)
    knee = reference_run(app, platform, 1e-9)
    periods = [period for period, _ in knee.history]
    kind = data.draw(st.sampled_from(["trajectory", "scaled", "tiny"]), label="kind")
    if kind == "trajectory":
        bound = data.draw(st.sampled_from(periods), label="period")
    elif kind == "scaled":
        bound = periods[0] * data.draw(st.floats(0.05, 1.5), label="scale")
    else:
        bound = 1e-9
    want = reference_run(app, platform, bound)
    got = HeterogeneousSplittingPeriod().run(app, platform, period_bound=bound)
    assert _digest(got) == _digest(want), (source, seed, bound)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda: FAMILIES["heterogeneous-links"].build(np.random.default_rng(220)),
            id="heterogeneous-links-220",
        ),
        pytest.param(
            lambda: (
                random_pipeline(10, work_range=(1, 20), comm_range=(1, 100), seed=268),
                random_fully_heterogeneous_platform(6, seed=268),
            ),
            id="random-hetero-268",
        ),
    ],
)
def test_a_neighbours_new_link_term_carries_to_later_steps(build):
    """Instances where a neighbour's link to a new processor sets a later step.

    After a split hands the part next to a neighbour to a new processor,
    the neighbour's cycle time changes with the new link; a later step's
    bottleneck and period must see that.  Few instances show it (2 of 600
    seeds searched), so these two are pinned.
    """
    app, platform = build()
    want = reference_run(app, platform, 1e-9)
    got = HeterogeneousSplittingPeriod().run(app, platform, period_bound=1e-9)
    assert _digest(got) == _digest(want)


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_x1_identity.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
