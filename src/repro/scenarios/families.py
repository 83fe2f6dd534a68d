"""Scenario families: parameterised random-instance generators for the fuzzer.

The experiment generators (:mod:`repro.generators.experiments`) reproduce the
paper's E1–E4 streams — useful for figures, but deliberately tame: every
platform is communication homogeneous, every cost is drawn from a friendly
uniform range.  The differential harness needs the opposite: instances that
probe the corners where solvers disagree.  Each :class:`ScenarioFamily` below
is a deterministic ``rng -> (application, platform)`` builder covering one
such corner:

========================  =====================================================
``homogeneous-chain``     identical speeds and links (every exact solver,
                          including the homogeneous DPs, applies)
``heterogeneous-chain``   the paper's communication-homogeneous setting
``heterogeneous-links``   fully heterogeneous platforms (per-link bandwidths)
``single-stage``          one-stage pipelines (every mapping is Lemma 1's)
``zero-cost-stages``      zero works and zero communication sizes mixed in
``extreme-skew``          costs and speeds spread over six orders of magnitude
``bottleneck-link``       tiny bandwidths: communications dominate everything
``large-chain``           big ``n``/``p`` (heuristics + simulators only; the
                          exponential solvers are size-gated out)
========================  =====================================================

Scenario streams are deterministic and chunk-invariant: scenario ``i`` of a
run is derived from its own pre-spawned :class:`numpy.random.SeedSequence`,
exactly like the experiment engine's instance streams, so a fuzz run is
byte-identical at any worker count.  :func:`scenario_instances` converts a
stream into :class:`repro.generators.experiments.Instance` records so scenario
families plug into the sweep/failure/ablation drivers unchanged.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.application import PipelineApplication
from ..core.identity import instance_digest
from ..core.platform import Platform
from ..generators.experiments import ExperimentConfig, Instance
from ..utils.parallel import parallel_map
from ..utils.rng import spawn_seed_sequences
from ..utils.validation import suggest_names

__all__ = [
    "Scenario",
    "ScenarioFamily",
    "FAMILIES",
    "family_names",
    "get_family",
    "resolve_families",
    "generate_scenarios",
    "scenario_sweep_config",
    "scenario_instances",
]

#: instance builder signature: rng -> (application, platform)
Builder = Callable[[np.random.Generator], "tuple[PipelineApplication, Platform]"]


@dataclass(frozen=True)
class Scenario:
    """One generated problem instance, tagged with its family and position."""

    family: str
    index: int
    application: PipelineApplication
    platform: Platform

    @property
    def digest(self) -> str:
        """Canonical instance hash (see :mod:`repro.core.identity`)."""
        return instance_digest(self.application, self.platform)


@dataclass(frozen=True)
class ScenarioFamily:
    """A named, parameterised distribution over problem instances.

    ``build`` must be a module-level function of the rng alone so families
    pickle by reference and a scenario depends only on its seed sequence —
    never on which worker materialises it.
    """

    name: str
    description: str
    build: Builder
    #: indicative upper bounds of the family's sizes, used by the sweep glue
    max_stages: int = 12
    max_processors: int = 8


# --------------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------------- #
def _works(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, size=n)


def _build_homogeneous_chain(rng: np.random.Generator):
    n = int(rng.integers(1, 13))
    p = int(rng.integers(1, 9))
    app = PipelineApplication(
        _works(rng, n, 0.1, 50.0), rng.uniform(0.0, 50.0, size=n + 1)
    )
    platform = Platform.fully_homogeneous(
        p,
        speed=float(rng.integers(1, 21)),
        bandwidth=float(rng.integers(1, 21)),
    )
    return app, platform


def _build_heterogeneous_chain(rng: np.random.Generator):
    n = int(rng.integers(1, 13))
    p = int(rng.integers(1, 9))
    app = PipelineApplication(
        _works(rng, n, 0.1, 100.0), rng.uniform(0.0, 100.0, size=n + 1)
    )
    speeds = rng.integers(1, 21, size=p).astype(float)
    platform = Platform.communication_homogeneous(
        speeds, bandwidth=float(rng.integers(1, 21))
    )
    return app, platform


def _build_heterogeneous_links(rng: np.random.Generator):
    n = int(rng.integers(1, 11))
    p = int(rng.integers(2, 7))
    app = PipelineApplication(
        _works(rng, n, 0.1, 50.0), rng.uniform(0.0, 50.0, size=n + 1)
    )
    speeds = rng.integers(1, 21, size=p).astype(float)
    raw = rng.uniform(0.5, 20.0, size=(p, p))
    matrix = (raw + raw.T) / 2.0
    np.fill_diagonal(matrix, 20.0)
    platform = Platform.fully_heterogeneous(
        speeds,
        matrix,
        input_bandwidth=float(rng.uniform(0.5, 20.0)),
        output_bandwidth=float(rng.uniform(0.5, 20.0)),
    )
    return app, platform


def _build_single_stage(rng: np.random.Generator):
    app = PipelineApplication(
        [float(rng.uniform(0.0, 100.0))], rng.uniform(0.0, 100.0, size=2)
    )
    p = int(rng.integers(1, 9))
    speeds = rng.integers(1, 21, size=p).astype(float)
    platform = Platform.communication_homogeneous(
        speeds, bandwidth=float(rng.integers(1, 21))
    )
    return app, platform


def _build_zero_cost_stages(rng: np.random.Generator):
    n = int(rng.integers(2, 11))
    p = int(rng.integers(1, 9))
    works = _works(rng, n, 0.1, 20.0)
    works[rng.random(n) < 0.3] = 0.0
    comms = rng.uniform(0.1, 20.0, size=n + 1)
    comms[rng.random(n + 1) < 0.4] = 0.0
    speeds = rng.integers(1, 21, size=p).astype(float)
    platform = Platform.communication_homogeneous(
        speeds, bandwidth=float(rng.integers(1, 21))
    )
    return PipelineApplication(works, comms), platform


def _log_uniform(rng: np.random.Generator, lo_exp: float, hi_exp: float, size=None):
    return np.power(10.0, rng.uniform(lo_exp, hi_exp, size=size))


def _build_extreme_skew(rng: np.random.Generator):
    n = int(rng.integers(1, 11))
    p = int(rng.integers(1, 7))
    app = PipelineApplication(
        _log_uniform(rng, -3.0, 3.0, size=n), _log_uniform(rng, -3.0, 3.0, size=n + 1)
    )
    speeds = _log_uniform(rng, -1.0, 2.0, size=p)
    platform = Platform.communication_homogeneous(
        speeds, bandwidth=float(_log_uniform(rng, -2.0, 2.0))
    )
    return app, platform


def _build_bottleneck_link(rng: np.random.Generator):
    n = int(rng.integers(2, 11))
    p = int(rng.integers(2, 9))
    app = PipelineApplication(
        _works(rng, n, 0.1, 5.0), rng.uniform(10.0, 100.0, size=n + 1)
    )
    speeds = rng.integers(1, 21, size=p).astype(float)
    platform = Platform.communication_homogeneous(
        speeds, bandwidth=float(rng.uniform(0.01, 0.5))
    )
    return app, platform


def _build_large_chain(rng: np.random.Generator):
    n = int(rng.integers(24, 49))
    p = int(rng.integers(10, 25))
    app = PipelineApplication(
        _works(rng, n, 0.1, 100.0), rng.uniform(0.0, 100.0, size=n + 1)
    )
    speeds = rng.integers(1, 21, size=p).astype(float)
    platform = Platform.communication_homogeneous(
        speeds, bandwidth=float(rng.integers(1, 21))
    )
    return app, platform


#: the registered families, in canonical (round-robin) order
FAMILIES: dict[str, ScenarioFamily] = {
    family.name: family
    for family in (
        ScenarioFamily(
            "homogeneous-chain",
            "identical speeds and links; every exact solver applies",
            _build_homogeneous_chain,
        ),
        ScenarioFamily(
            "heterogeneous-chain",
            "the paper's communication-homogeneous setting",
            _build_heterogeneous_chain,
        ),
        ScenarioFamily(
            "heterogeneous-links",
            "fully heterogeneous platforms (per-link bandwidths)",
            _build_heterogeneous_links,
            max_stages=10,
            max_processors=6,
        ),
        ScenarioFamily(
            "single-stage",
            "one-stage pipelines: the whole mapping space is Lemma 1",
            _build_single_stage,
            max_stages=1,
        ),
        ScenarioFamily(
            "zero-cost-stages",
            "zero works and zero communication sizes mixed in",
            _build_zero_cost_stages,
            max_stages=10,
        ),
        ScenarioFamily(
            "extreme-skew",
            "costs and speeds spread over six orders of magnitude",
            _build_extreme_skew,
            max_stages=10,
            max_processors=6,
        ),
        ScenarioFamily(
            "bottleneck-link",
            "tiny bandwidths: communications dominate everything",
            _build_bottleneck_link,
            max_stages=10,
        ),
        ScenarioFamily(
            "large-chain",
            "big n/p streams for the polynomial solvers and simulators",
            _build_large_chain,
            max_stages=48,
            max_processors=24,
        ),
    )
}


def family_names() -> list[str]:
    """Registered family names, in canonical round-robin order."""
    return list(FAMILIES)


def get_family(name: str) -> ScenarioFamily:
    """Look up a family by name (with did-you-mean suggestions)."""
    key = name.strip().lower()
    if key not in FAMILIES:
        suggestions = suggest_names(name, list(FAMILIES))
        hint = (
            f" — did you mean {', '.join(map(repr, suggestions))}?" if suggestions else ""
        )
        raise KeyError(
            f"unknown scenario family {name!r}{hint} "
            f"(known families: {', '.join(FAMILIES)})"
        )
    return FAMILIES[key]


def resolve_families(
    selection: str | Iterable[str] | None,
) -> list[ScenarioFamily]:
    """Resolve ``None`` / ``"all"`` / names / glob patterns to families.

    The ``"all"`` sentinel is honoured anywhere it appears — bare or inside a
    list (the CLI's ``--families`` flag always delivers a list).  Entries may
    be shell-style glob patterns (``fnmatch``): ``heterogeneous*`` selects
    every family whose name starts with ``heterogeneous``, in registration
    order.  A pattern matching nothing is an error, like an unknown name.
    Duplicates (a family matched by several entries) collapse to one copy.
    """
    if selection is None:
        return list(FAMILIES.values())
    names = [selection] if isinstance(selection, str) else list(selection)
    if any(name.strip().lower() == "all" for name in names):
        return list(FAMILIES.values())
    resolved: list[ScenarioFamily] = []
    seen: set[str] = set()
    for name in names:
        key = name.strip().lower()
        if any(ch in key for ch in "*?["):
            matches = [
                family
                for fname, family in FAMILIES.items()
                if fnmatch.fnmatchcase(fname, key)
            ]
            if not matches:
                raise KeyError(
                    f"scenario family pattern {name!r} matches nothing "
                    f"(known families: {', '.join(FAMILIES)})"
                )
        else:
            matches = [get_family(name)]
        for family in matches:
            if family.name not in seen:
                seen.add(family.name)
                resolved.append(family)
    return resolved


def _materialise_scenario(
    family_names_: Sequence[str],
    task: tuple[int, np.random.SeedSequence],
) -> Scenario:
    """Build scenario ``index`` from its pre-spawned seed sequence.

    Module level (families referenced by name) so the parallel engine can ship
    tasks to worker processes; the scenario depends only on ``(families,
    index, seed_seq)``.
    """
    index, seed_seq = task
    family = FAMILIES[family_names_[index % len(family_names_)]]
    rng = np.random.default_rng(seed_seq)
    app, platform = family.build(rng)
    app.name = f"scenario-{family.name}-{index}"
    platform.name = f"scenario-{family.name}-{index}"
    return Scenario(family=family.name, index=index, application=app, platform=platform)


def generate_scenarios(
    count: int,
    families: str | Iterable[str] | None = None,
    seed: int | np.random.Generator | None = 0,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> list[Scenario]:
    """Generate ``count`` scenarios, round-robin over the selected families.

    Scenario ``i`` is a pure function of ``(families, i, seed)``: the seed
    sequences are spawned up front and each scenario derives its own rng, so
    the stream is identical at any ``workers``/``batch_size`` and a prefix of
    a longer stream equals the shorter stream.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    resolved = resolve_families(families)
    if not resolved:
        raise ValueError("at least one scenario family is required")
    names = [family.name for family in resolved]
    seed_seqs = spawn_seed_sequences(seed, count)
    return parallel_map(
        partial(_materialise_scenario, names),
        list(enumerate(seed_seqs)),
        workers=workers,
        batch_size=batch_size,
    )


# --------------------------------------------------------------------------- #
# experiments-layer glue: scenario streams as sweep inputs
# --------------------------------------------------------------------------- #
def scenario_sweep_config(
    family: str | ScenarioFamily, n_instances: int
) -> ExperimentConfig:
    """An :class:`ExperimentConfig` describing a scenario-family stream.

    The experiment drivers carry a config for reporting (labels, instance
    counts); scenario families are not range-parameterised, so the ranges
    below are nominal and only the label/description/sizes matter.
    """
    resolved = family if isinstance(family, ScenarioFamily) else get_family(family)
    return ExperimentConfig(
        family=f"scenario:{resolved.name}",
        description=resolved.description,
        n_stages=resolved.max_stages,
        n_processors=resolved.max_processors,
        work_range=(0.0, 1.0),
        comm_fixed=1.0,
        n_instances=n_instances,
    )


def scenario_instances(
    count: int,
    families: str | Iterable[str] | None = None,
    seed: int | np.random.Generator | None = 0,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
) -> list[Instance]:
    """A scenario stream as experiment :class:`Instance` records.

    Drop-in replacement for :func:`repro.generators.experiments.
    generate_instances`: ``run_sweep(config, instances=scenario_instances(...))``
    sweeps the heuristics over a scenario family instead of an E1–E4 stream.
    (Families producing non-communication-homogeneous platforms require
    solvers that support them, e.g. the heterogeneous-links extension.)
    """
    scenarios = generate_scenarios(
        count, families, seed, workers=workers, batch_size=batch_size
    )
    configs = {
        name: scenario_sweep_config(name, count)
        for name in {s.family for s in scenarios}
    }
    return [
        Instance(
            index=s.index,
            application=s.application,
            platform=s.platform,
            config=configs[s.family],
        )
        for s in scenarios
    ]
