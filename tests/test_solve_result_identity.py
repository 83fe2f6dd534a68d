"""`SolveResult.identity()`: the single run-provenance exclusion point.

The parallel engine's contract is that every *solution* field of a result is
byte-identical between serial, pooled and cache-served runs; only the
``wall_time`` stamp (measures the actual run), the ``cache_hit`` flag and
the ``backend`` stamp (both record *how* the result was obtained)
legitimately differ.  These tests pin down the contract's single
implementation point:

* ``identity()`` covers every dataclass field except the declared
  nondeterministic ones — automatically, so a future field cannot silently
  escape determinism comparisons;
* two runs of the same solve differ (at most) on the provenance stamps and
  compare equal through ``identity()``, byte-for-byte (pickled);
* the remaining fields are byte-stable across worker counts;
* a warm cache replay has the same ``identity()`` as its cold solve.
"""

from __future__ import annotations

import dataclasses
import pickle

from repro.experiments.runner import run_solver
from repro.generators.experiments import experiment_config, generate_instances
from repro.solvers.base import SolveResult
from repro.solvers.registry import get_solver


def _instances(n: int = 4):
    config = experiment_config("E2", 6, 5, n_instances=n)
    return generate_instances(config, seed=11)


class TestIdentityContract:
    def test_identity_covers_every_field_except_run_provenance(self):
        field_names = {f.name for f in dataclasses.fields(SolveResult)}
        instance = _instances(1)[0]
        result = get_solver("H1").run(
            instance.application, instance.platform, period_bound=10.0
        )
        identity = result.identity()
        assert set(identity) == field_names - {"wall_time", "cache_hit", "backend"}
        assert SolveResult.NONDETERMINISTIC_FIELDS == (
            "wall_time", "cache_hit", "backend",
        )

    def test_identity_ignores_wall_time_only(self):
        instance = _instances(1)[0]
        solver = get_solver("bitmask-dp-latency-for-period")
        first = solver.run(instance.application, instance.platform, period_bound=20.0)
        second = solver.run(instance.application, instance.platform, period_bound=20.0)
        # two measured runs: identical solutions, (almost surely) distinct stamps
        assert first.identity() == second.identity()
        assert first.wall_time > 0.0 and second.wall_time > 0.0
        # a result that differs on a *solution* field must not compare equal
        tweaked = dataclasses.replace(first, period=first.period + 1.0)
        assert tweaked.identity() != first.identity()

    def test_identity_byte_stable_across_workers(self):
        instances = _instances(5)
        serial = run_solver("H1", instances, 8.0)
        pooled = run_solver("H1", instances, 8.0, workers=3, batch_size=2)
        serial_bytes = [pickle.dumps(r.result.identity()) for r in serial]
        pooled_bytes = [pickle.dumps(r.result.identity()) for r in pooled]
        assert serial_bytes == pooled_bytes

    def test_identity_ignores_cache_hit(self):
        from repro.cache import SolveCache

        instances = _instances(3)
        cache = SolveCache()
        cold = run_solver("H1", instances, 8.0, cache=cache)
        warm = run_solver("H1", instances, 8.0, cache=cache)
        assert all(not r.result.cache_hit for r in cold)
        assert all(r.result.cache_hit for r in warm)
        assert [pickle.dumps(a.result.identity()) for a in cold] == [
            pickle.dumps(b.result.identity()) for b in warm
        ]

    def test_backend_stamp_excluded_from_identity_and_cache_key(self):
        """The kernels are bit-identical, so the stamp must not split the
        cache: a result solved on numpy serves a request made with the
        compiled engine on, and ``identity()`` compares equal across the
        stamps."""
        from repro.cache import SolveCache
        from tests.kernel_engine import engine_disabled

        instances = _instances(3)
        cache = SolveCache()
        with engine_disabled():
            cold = run_solver("H1", instances, 8.0, cache=cache)
        warm = run_solver("H1", instances, 8.0, cache=cache)
        assert all(r.result.backend == "numpy" for r in cold)
        # every request hit despite the different kernels in use
        assert all(r.result.cache_hit for r in warm)
        assert [pickle.dumps(a.result.identity()) for a in cold] == [
            pickle.dumps(b.result.identity()) for b in warm
        ]
