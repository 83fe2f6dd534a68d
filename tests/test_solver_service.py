"""The batch solve service: dedupe, memoise, shard, back-fill — bytes equal.

:func:`repro.solvers.service.solve_many` sits between the experiment
drivers and the registry, so its contract is the repository's determinism
contract: the returned *solutions* are byte-identical (through
``SolveResult.identity()``)

* to running every solver directly, instance by instance;
* at any ``workers=`` / ``batch_size=`` value;
* with a cold cache, a warm cache, a shared on-disk cache or none at all.

On top of that it must do *less work*: repeated instances are solved once,
and warm caches solve nothing.  :func:`~repro.solvers.service.
solve_frontier_many` shares the pipeline and adds the one routing rule:
only an instance asking one frontier-capable solver several thresholds is
answered by a frontier solve.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache import SolveCache
from repro.experiments.failure import failure_thresholds
from repro.experiments.sweep import run_sweep, sweep_results_equal
from repro.generators.experiments import experiment_config, generate_instances
from repro.scenarios.differential import differential_check
from repro.solvers.base import SolveRequest
from repro.solvers.registry import get_solver
from repro.solvers.service import as_instance_pair, solve_frontier_many, solve_many


@pytest.fixture(scope="module")
def config():
    return experiment_config("E2", 6, 5, n_instances=5)


@pytest.fixture(scope="module")
def instances(config):
    return generate_instances(config, seed=13)


def _identities(outcome):
    return [pickle.dumps(r.identity()) for row in outcome.results for r in row]


class TestShapes:
    def test_as_instance_pair_accepts_records_and_tuples(self, instances):
        inst = instances[0]
        assert as_instance_pair(inst) == (inst.application, inst.platform)
        assert as_instance_pair((inst.application, inst.platform)) == (
            inst.application,
            inst.platform,
        )

    def test_results_are_instance_major(self, instances):
        outcome = solve_many(
            instances, ["H1", "H5"], period_bound=8.0, latency_bound=40.0
        )
        assert outcome.solvers == ("Sp mono P", "Sp mono L")
        assert len(outcome.results) == len(instances)
        assert all(len(row) == 2 for row in outcome.results)
        assert outcome.for_solver(0) == tuple(row[0] for row in outcome.results)
        for row in outcome.results:
            assert row[0].solver == "Sp mono P"
            assert row[1].solver == "Sp mono L"

    def test_empty_stream(self):
        outcome = solve_many([], ["H1"], period_bound=8.0)
        assert outcome.results == ()
        assert outcome.stats.n_tasks == 0


class TestAgainstDirectRuns:
    def test_matches_per_instance_solver_runs(self, instances):
        outcome = solve_many(instances, ["H1"], period_bound=8.0)
        direct = [
            get_solver("H1").run(i.application, i.platform, period_bound=8.0)
            for i in instances
        ]
        assert [r[0].identity() for r in outcome.results] == [
            d.identity() for d in direct
        ]


class TestDedupe:
    def test_repeated_instances_are_solved_once(self, instances):
        stream = list(instances) * 3
        outcome = solve_many(stream, ["H1"], period_bound=8.0)
        stats = outcome.stats
        assert stats.n_tasks == 3 * len(instances)
        assert stats.n_unique == len(instances)
        assert stats.n_deduplicated == 2 * len(instances)
        assert stats.n_solved == len(instances)
        # duplicates point at byte-identical results
        n = len(instances)
        for i in range(n):
            assert (
                outcome.results[i][0].identity()
                == outcome.results[i + n][0].identity()
                == outcome.results[i + 2 * n][0].identity()
            )

    def test_dedupe_is_by_numbers_not_by_name(self, instances):
        from repro.core.application import PipelineApplication

        inst = instances[0]
        clone = PipelineApplication(
            inst.application.works, inst.application.comm_sizes, name="clone"
        )
        stream = [inst, (clone, inst.platform)]
        outcome = solve_many(stream, ["H1"], period_bound=8.0)
        assert outcome.stats.n_unique == 1


class TestDeterminism:
    def test_workers_byte_identical(self, instances):
        stream = list(instances) * 2
        serial = solve_many(
            stream, ["H1", "H5"], period_bound=8.0, latency_bound=40.0
        )
        pooled = solve_many(
            stream,
            ["H1", "H5"],
            period_bound=8.0,
            latency_bound=40.0,
            workers=3,
            batch_size=2,
        )
        assert _identities(serial) == _identities(pooled)

    def test_cold_vs_warm_byte_identical(self, instances):
        stream = list(instances) * 2
        cache = SolveCache()
        cold = solve_many(stream, ["H1"], period_bound=8.0, cache=cache)
        warm = solve_many(stream, ["H1"], period_bound=8.0, cache=cache)
        assert _identities(cold) == _identities(warm)
        assert cold.stats.n_solved == len(instances)
        assert warm.stats.n_solved == 0
        assert warm.stats.n_cache_hits == len(instances)
        assert all(r.cache_hit for row in warm.results for r in row)

    def test_disk_cache_spans_service_calls(self, tmp_path, instances):
        cold = solve_many(
            instances,
            ["H1"],
            period_bound=8.0,
            cache=SolveCache(directory=tmp_path / "store"),
        )
        warm = solve_many(
            instances,
            ["H1"],
            period_bound=8.0,
            cache=SolveCache(directory=tmp_path / "store"),
        )
        assert warm.stats.n_solved == 0
        assert _identities(cold) == _identities(warm)


class TestDriversThroughTheService:
    def test_sweep_identical_with_and_without_cache(self, config, instances):
        plain = run_sweep(config, n_thresholds=4, instances=instances)
        cached = run_sweep(
            config, n_thresholds=4, instances=instances, cache=SolveCache()
        )
        assert sweep_results_equal(plain, cached)

    def test_failure_thresholds_identical_with_and_without_cache(
        self, config, instances
    ):
        plain = failure_thresholds(config, instances=instances)
        cached = failure_thresholds(
            config, instances=instances, cache=SolveCache()
        )
        assert [(r.heuristic, r.per_instance) for r in plain] == [
            (r.heuristic, r.per_instance) for r in cached
        ]

    def test_differential_report_identical_with_warm_cache(self, instances):
        inst = instances[0]
        cache = SolveCache()
        plain = differential_check(inst.application, inst.platform)
        cold = differential_check(inst.application, inst.platform, cache=cache)
        warm = differential_check(inst.application, inst.platform, cache=cache)
        assert plain == cold == warm
        assert cache.stats.hits > 0  # the warm pass reused the fan-out


class TestSingleRouter:
    """One rule for the whole mixed list: frontier per (instance, solver)."""

    @staticmethod
    def _mixed_tasks(instances):
        first, second = instances[0], instances[1]
        h1, h4 = get_solver("H1"), get_solver("H4")
        bitmask = get_solver("bitmask-dp-latency-for-period")
        tasks = [(first, h1, h1.default_request(period_bound=b)) for b in (8.0, 10.0, 12.0)]
        tasks.append((second, h1, h1.default_request(period_bound=10.0)))
        tasks += [(first, h4, h4.default_request(period_bound=b)) for b in (8.0, 12.0)]
        tasks.append((second, h4, h4.default_request(period_bound=9.0)))
        # a stray latency bound makes the request frontier-ineligible
        tasks.append(
            (
                second,
                bitmask,
                SolveRequest(
                    bitmask.objective, period_bound=12.0, latency_bound=80.0
                ),
            )
        )
        return tasks

    @pytest.mark.parametrize("workers", [None, 2])
    def test_mixed_list_matches_per_task_solve_many(self, instances, workers):
        tasks = self._mixed_tasks(instances)
        results, stats = solve_frontier_many(tasks, workers=workers, batch_size=1)
        assert len(results) == len(tasks)
        for (item, solver, request), result in zip(tasks, results):
            direct = solve_many(
                [item],
                [solver],
                period_bound=request.period_bound,
                latency_bound=request.latency_bound,
            ).results[0][0]
            assert result.identity() == direct.identity()
        # only instance A's three H1 thresholds share a frontier solve
        assert stats.n_frontier_groups == 1
        assert stats.n_frontier_extracted == 3
        assert stats.n_tasks == stats.n_unique == len(tasks)
        assert stats.n_solved == 1 + (len(tasks) - 3)

    def test_a_reused_frontier_document_is_not_stored_again(self, instances):
        """A warm document that answered new thresholds unchanged is neither
        copied into the cache again nor rewritten on disk."""
        cache = SolveCache()
        h1 = get_solver("H1")

        def stores(bounds):
            before = cache.stats.stores
            tasks = [(instances[0], h1, h1.default_request(period_bound=b)) for b in bounds]
            _, stats = solve_frontier_many(tasks, cache=cache)
            assert stats.n_frontier_groups == 1
            return cache.stats.stores - before

        assert stores((8.0, 10.0)) == 3  # two results and the new document
        assert stores((12.0, 14.0)) == 2  # two results; the document is reused

    def test_warm_cache_serves_the_mixed_list(self, instances):
        tasks = self._mixed_tasks(instances)
        cache = SolveCache()
        cold, _ = solve_frontier_many(tasks, cache=cache)
        warm, stats = solve_frontier_many(tasks, cache=cache)
        assert [r.identity() for r in warm] == [r.identity() for r in cold]
        assert stats.n_solved == 0
        assert stats.n_cache_hits == len(tasks)
        assert stats.n_frontier_groups == 0
