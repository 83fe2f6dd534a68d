"""Scenario engine and differential verification harness.

The scenario layer earns trust in the solver stack the way the related
structural-analysis reproductions do: by validating against large randomised
samples instead of hand-picked examples.  It is organised bottom-up:

* :mod:`~repro.scenarios.families` — parameterised scenario families
  (homogeneous/heterogeneous chains, degenerate and adversarial corners) and
  deterministic stream generation, including experiment-layer glue;
* :mod:`~repro.scenarios.differential` — the cross-checking oracle: every
  applicable solver against every other and against both simulators;
* :mod:`~repro.scenarios.shrink` — greedy counterexample minimisation;
* :mod:`~repro.scenarios.corpus` — the versioned regression corpus replayed
  by the tier-1 tests (``tests/corpus/``);
* :mod:`~repro.scenarios.harness` — :func:`run_fuzz`, streaming thousands of
  scenarios through the oracle on the shared process pool (the CLI ``fuzz``
  subcommand).

Canonical instance identity lives in :mod:`repro.core.identity`; its two
entry points are re-exported here for the scenario layer's callers.
"""

from ..core.identity import canonical_instance_document, instance_digest
from .corpus import (
    CORPUS_SCHEMA,
    CorpusEntry,
    counterexample_document,
    load_corpus,
    load_corpus_entry,
    save_counterexample,
)
from .differential import CheckFailure, DifferentialReport, differential_check
from .families import (
    FAMILIES,
    Scenario,
    ScenarioFamily,
    family_names,
    generate_scenarios,
    get_family,
    resolve_families,
    scenario_instances,
    scenario_sweep_config,
)
from .harness import Counterexample, FuzzReport, render_fuzz_report, run_fuzz
from .shrink import ShrinkResult, shrink_instance

__all__ = [
    "CORPUS_SCHEMA",
    "CorpusEntry",
    "counterexample_document",
    "load_corpus",
    "load_corpus_entry",
    "save_counterexample",
    "CheckFailure",
    "DifferentialReport",
    "differential_check",
    "FAMILIES",
    "Scenario",
    "ScenarioFamily",
    "family_names",
    "generate_scenarios",
    "get_family",
    "resolve_families",
    "scenario_instances",
    "scenario_sweep_config",
    "Counterexample",
    "FuzzReport",
    "render_fuzz_report",
    "run_fuzz",
    "canonical_instance_document",
    "instance_digest",
    "ShrinkResult",
    "shrink_instance",
]
