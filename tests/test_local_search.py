"""The anytime local-search solver family: behaviour, budgets, determinism.

Four contracts are under test:

* **refinement** — :func:`repro.solvers.local_search.refine` never worsens
  its seed mapping under the lexicographic objective key, terminates at a
  local optimum, and honours ``max_steps`` exactly;
* **budget plumbing** — anytime solvers demand a budget everywhere
  (``default_request``, the CLI, the spec layer) and drop cleanly out of
  budget-less group selections (``solvers_for_platform``, ``batch``);
* **determinism** — same seed and step budget ⇒ byte-identical
  ``SolveResult`` at any worker count and under cold/warm caches, while
  wall-clock ``time_budget`` runs bypass the cache entirely;
* **corpus** — the curated ``local-search-improves-seed`` fixtures really
  are instances where the search strictly improves on its seed heuristic.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.cache import SolveCache
from repro.cli import main
from repro.core.costs import evaluate, optimal_latency_mapping, period_lower_bound
from repro.core.exceptions import ConfigurationError
from repro.generators.experiments import experiment_config, generate_instances
from repro.scenarios import load_corpus
from repro.solvers import (
    DEFAULT_STEP_BUDGET,
    Capability,
    Objective,
    SolveRequest,
    get_solver,
    objective_key,
    random_seed_mapping,
    refine,
    solve_many,
    solve_with_cache,
    solvers_for_platform,
)

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
LS_NAMES = ("local-search-h1", "local-search-h6", "local-search-random")


@pytest.fixture(scope="module")
def instances():
    config = experiment_config("E2", 6, 5, n_instances=4)
    return generate_instances(config, seed=11)


def _tight_period_bound(app, platform) -> float:
    """A period bound between the lower bound and the Lemma 1 cycle time."""
    ev = evaluate(app, platform, optimal_latency_mapping(app, platform))
    return max(0.5 * (period_lower_bound(app, platform) + ev.period), 1e-6)


class TestRefine:
    def test_zero_steps_returns_the_seed(self, instances):
        inst = instances[0]
        app, platform = inst.application, inst.platform
        mapping = optimal_latency_mapping(app, platform)
        ev = evaluate(app, platform, mapping)
        outcome = refine(
            app, platform, mapping, objective=Objective.MIN_LATENCY, max_steps=0
        )
        assert outcome.steps == 0
        assert outcome.mapping == mapping
        assert (outcome.period, outcome.latency) == (ev.period, ev.latency)
        assert outcome.history == ((ev.period, ev.latency),)

    def test_history_keys_strictly_decrease(self, instances):
        inst = instances[0]
        app, platform = inst.application, inst.platform
        bound = _tight_period_bound(app, platform)
        outcome = refine(
            app,
            platform,
            random_seed_mapping(app, platform),
            objective=Objective.MIN_LATENCY_FOR_PERIOD,
            bound=bound,
            max_steps=DEFAULT_STEP_BUDGET,
        )
        keys = [
            objective_key(p, l, Objective.MIN_LATENCY_FOR_PERIOD, bound)
            for p, l in outcome.history
        ]
        assert len(outcome.history) == outcome.steps + 1
        assert all(b < a for a, b in zip(keys, keys[1:]))

    def test_unbudgeted_run_reaches_a_local_optimum(self, instances):
        inst = instances[1]
        app, platform = inst.application, inst.platform
        bound = _tight_period_bound(app, platform)
        outcome = refine(
            app,
            platform,
            random_seed_mapping(app, platform),
            objective=Objective.MIN_LATENCY_FOR_PERIOD,
            bound=bound,
        )
        # a second pass from the optimum finds nothing left to improve
        again = refine(
            app,
            platform,
            outcome.mapping,
            objective=Objective.MIN_LATENCY_FOR_PERIOD,
            bound=bound,
        )
        assert again.steps == 0
        assert again.mapping == outcome.mapping

    def test_unknown_objective_rejected(self, instances):
        inst = instances[0]
        with pytest.raises(ConfigurationError):
            refine(
                inst.application,
                inst.platform,
                optimal_latency_mapping(inst.application, inst.platform),
                objective="maximise-throughput",
            )

    def test_random_seed_mapping_is_a_pure_function_of_the_instance(
        self, instances
    ):
        inst = instances[2]
        a = random_seed_mapping(inst.application, inst.platform)
        b = random_seed_mapping(inst.application, inst.platform)
        assert a == b
        a.validate(inst.application, inst.platform)


class TestSolvers:
    def test_registered_with_anytime_capability(self):
        for name in LS_NAMES:
            solver = get_solver(name)
            assert Capability.ANYTIME in solver.capabilities
            assert solver.needs_budget
            assert solver.family == "extension"

    def test_default_request_without_budget_raises(self):
        with pytest.raises(ConfigurationError, match="anytime"):
            get_solver("local-search-h1").default_request(period_bound=5.0)

    def test_never_worse_than_seed_and_provenance(self, instances):
        for inst in instances:
            app, platform = inst.application, inst.platform
            bound = _tight_period_bound(app, platform)
            result = get_solver("local-search-h1").run(
                app, platform, period_bound=bound, max_steps=DEFAULT_STEP_BUDGET
            )
            details = result.details
            assert details["seed_solver"] == "Sp mono P"
            seed = get_solver("H1").run(app, platform, period_bound=bound)
            assert details["seed_period"] == seed.period
            assert details["seed_latency"] == seed.latency
            key_seed = objective_key(
                seed.period, seed.latency, result.objective, bound
            )
            key_result = objective_key(
                result.period, result.latency, result.objective, bound
            )
            # never worse, compared exactly: the move engine re-evaluates
            # the seed mapping to the bits the seed heuristic reported
            assert result.history[len(seed.history)] == (seed.period, seed.latency)
            assert key_result <= key_seed
            # history = seed trajectory + one point per improving move
            assert len(result.history) >= len(seed.history) + 1
            assert details["steps"] >= 0

    def test_max_steps_truncates_the_search(self, instances):
        inst = instances[0]
        app, platform = inst.application, inst.platform
        full = get_solver("local-search-random").run(
            app, platform, max_steps=DEFAULT_STEP_BUDGET
        )
        if full.details["steps"] < 2:
            pytest.skip("instance converges in fewer than 2 steps")
        capped = get_solver("local-search-random").run(app, platform, max_steps=1)
        assert capped.details["steps"] == 1
        key = objective_key(capped.period, capped.latency, capped.objective, None)
        full_key = objective_key(full.period, full.latency, full.objective, None)
        assert full_key < key  # more budget, strictly better local optimum

    def test_solve_without_budget_raises(self, instances):
        inst = instances[0]
        with pytest.raises(ConfigurationError, match="anytime"):
            get_solver("local-search-h1").run(
                inst.application, inst.platform, period_bound=5.0
            )


class TestInapplicableSolverPath:
    """Satellite fix: budget-less selections skip anytime solvers cleanly."""

    def test_solvers_for_platform_skips_without_request(self, instances):
        platform = instances[0].platform
        names = {s.name for s in solvers_for_platform(platform, "all")}
        assert not names & set(LS_NAMES)

    def test_solvers_for_platform_skips_budget_less_request(self, instances):
        platform = instances[0].platform
        request = SolveRequest.fixed_period(5.0)
        names = {
            s.name for s in solvers_for_platform(platform, "all", request=request)
        }
        assert not names & set(LS_NAMES)

    def test_solvers_for_platform_includes_budgeted_request(self, instances):
        platform = instances[0].platform
        request = SolveRequest.fixed_period(5.0, max_steps=8)
        names = {
            s.name for s in solvers_for_platform(platform, "all", request=request)
        }
        assert {"local-search-h1", "local-search-h6", "local-search-random"} <= names

    def test_solve_cli_group_skips_with_note(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "4", "2", "1",
                "--solver", "extensions",
                "--period", "6",
                "--latency", "40",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "LS-H1" in out
        assert "needs --max-steps" in out

    def test_solve_cli_single_solver_requires_budget(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "4", "2", "1",
                "--solver", "local-search-h1",
                "--period", "6",
            ]
        )
        assert rc == 2
        assert "needs --max-steps" in capsys.readouterr().err

    def test_solve_cli_runs_with_max_steps(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "4", "2", "1",
                "--solver", "local-search-h1",
                "--period", "6",
                "--max-steps", "16",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "local-search-h1" in out

    def test_batch_cli_skips_without_budget_and_runs_with_it(self, capsys):
        base = [
            "batch",
            "--family", "E2",
            "--stages", "5",
            "--processors", "4",
            "--instances", "2",
            "--solver", "local-search-random",
        ]
        rc = main(base)
        captured = capsys.readouterr()
        assert rc == 2
        assert "needs --max-steps" in captured.err
        rc = main(base + ["--max-steps", "8"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "LS-R" in captured.out  # the batch table prints solver keys


class TestDeterminism:
    """Same seed + step budget ⇒ byte-identical results, however executed."""

    def _identities(self, outcome):
        return [
            pickle.dumps(r.identity()) for row in outcome.results for r in row
        ]

    def test_serial_equals_pooled(self, instances):
        serial = solve_many(
            instances,
            LS_NAMES,
            period_bound=8.0,
            latency_bound=60.0,
            max_steps=32,
        )
        pooled = solve_many(
            instances,
            LS_NAMES,
            period_bound=8.0,
            latency_bound=60.0,
            max_steps=32,
            workers=3,
            batch_size=2,
        )
        assert self._identities(serial) == self._identities(pooled)

    def test_cold_and_warm_cache_identical(self, instances):
        cache = SolveCache()
        kwargs = dict(period_bound=8.0, latency_bound=60.0, max_steps=32)
        cold = solve_many(instances, LS_NAMES, cache=cache, **kwargs)
        warm = solve_many(instances, LS_NAMES, cache=cache, **kwargs)
        assert self._identities(cold) == self._identities(warm)
        assert warm.stats.n_solved == 0
        assert warm.stats.n_cache_hits == len(instances) * len(LS_NAMES)

    def test_time_budget_bypasses_the_cache(self, instances):
        cache = SolveCache()
        kwargs = dict(period_bound=8.0, latency_bound=60.0, time_budget=0.05)
        first = solve_many(instances, LS_NAMES, cache=cache, **kwargs)
        second = solve_many(instances, LS_NAMES, cache=cache, **kwargs)
        assert first.stats.n_cache_hits == 0
        assert second.stats.n_cache_hits == 0
        assert second.stats.n_solved == second.stats.n_unique

    def test_scalar_cache_round_trip(self, instances):
        inst = instances[0]
        solver = get_solver("local-search-h1")
        request = solver.default_request(period_bound=8.0, max_steps=16)
        cache = SolveCache()
        cold = solve_with_cache(
            solver, inst.application, inst.platform, request, cache
        )
        warm = solve_with_cache(
            solver, inst.application, inst.platform, request, cache
        )
        assert not cold.cache_hit and warm.cache_hit
        assert cold.identity() == warm.identity()

    def test_budget_is_part_of_the_request_identity(self):
        a = SolveRequest.fixed_period(5.0, max_steps=8)
        b = SolveRequest.fixed_period(5.0, max_steps=16)
        plain = SolveRequest.fixed_period(5.0)
        assert a.canonical_hash() != b.canonical_hash()
        assert a.canonical_hash() != plain.canonical_hash()


class TestCorpusImprovements:
    """The curated fixtures where local search strictly beats its seed."""

    def _entries(self):
        return [
            entry
            for entry in load_corpus(CORPUS_DIR)
            if entry.check == "local-search-improves-seed"
        ]

    def test_at_least_three_fixtures_exist(self):
        assert len(self._entries()) >= 3

    def test_local_search_strictly_improves_on_its_seed(self):
        for entry in self._entries():
            app, platform = entry.application, entry.platform
            if platform.is_communication_homogeneous:
                name = "local-search-h1"
                bound = _tight_period_bound(app, platform)
                bounds = {"period_bound": bound}
            else:
                name = "local-search-random"
                bound = None
                bounds = {}
            result = get_solver(name).run(
                app, platform, max_steps=DEFAULT_STEP_BUDGET, **bounds
            )
            details = result.details
            assert details["steps"] >= 1, f"{entry.label}: search never moved"
            key_seed = objective_key(
                details["seed_period"],
                details["seed_latency"],
                result.objective,
                bound,
            )
            key_result = objective_key(
                result.period, result.latency, result.objective, bound
            )
            assert key_result < key_seed, (
                f"{entry.label}: {name} did not strictly improve on "
                f"{details['seed_solver']}"
            )
