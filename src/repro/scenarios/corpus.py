"""Versioned regression corpus of shrunk counterexamples.

Every disagreement the fuzzer finds — once shrunk to a minimal instance — is
worth keeping forever: the corpus under ``tests/corpus/`` is replayed by the
tier-1 test suite on every run, so a bug found once by fuzzing can never
silently return.  Each corpus entry is one JSON file:

.. code-block:: json

    {
      "schema": 1,
      "family": "zero-cost-stages",
      "check": "exact-bounded-latency-disagreement",
      "note": "free-form provenance",
      "digest": "sha256 of the canonical instance document",
      "instance": {"application": {...}, "platform": {...}}
    }

The ``schema`` field versions the format (loaders reject unknown versions
instead of misreading them); ``digest`` is recomputed on load so hand-edited
fixtures whose numbers no longer match their filename/digest are caught
immediately.  File names are ``<family>-<check>-<digest prefix>.json``:
content addressed by (family, check, instance), so re-persisting the same
counterexample is a no-op and two different counterexamples — including two
different checks failing on the *same* minimal instance — can never collide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..core.application import PipelineApplication
from ..core.identity import instance_digest
from ..core.platform import Platform
from ..core.serialization import (
    SerializationError,
    application_from_dict,
    application_to_dict,
    platform_from_dict,
    platform_to_dict,
)

__all__ = [
    "CORPUS_SCHEMA",
    "CorpusEntry",
    "counterexample_document",
    "save_counterexample",
    "load_corpus_entry",
    "load_corpus",
]

#: current corpus file format version
CORPUS_SCHEMA = 1

#: digest prefix length used in file names (48 bits: collision-safe here)
_NAME_DIGEST_LEN = 12


@dataclass(frozen=True)
class CorpusEntry:
    """One regression instance loaded from the corpus."""

    path: Path | None
    family: str
    check: str
    note: str
    digest: str
    application: PipelineApplication
    platform: Platform

    @property
    def label(self) -> str:
        return f"{self.family}-{self.digest[:_NAME_DIGEST_LEN]}"


def counterexample_document(
    app: PipelineApplication,
    platform: Platform,
    *,
    family: str,
    check: str,
    note: str = "",
) -> dict[str, Any]:
    """The JSON document persisting one shrunk counterexample."""
    return {
        "schema": CORPUS_SCHEMA,
        "family": str(family),
        "check": str(check),
        "note": str(note),
        "digest": instance_digest(app, platform),
        "instance": {
            "application": application_to_dict(app),
            "platform": platform_to_dict(platform),
        },
    }


def save_counterexample(
    directory: str | Path,
    app: PipelineApplication,
    platform: Platform,
    *,
    family: str,
    check: str,
    note: str = "",
) -> Path:
    """Persist a counterexample into ``directory`` (created if missing).

    Returns the path of the written file.  Content-addressed naming makes the
    write idempotent: saving the same instance twice overwrites the identical
    file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    document = counterexample_document(
        app, platform, family=family, check=check, note=note
    )
    path = directory / f"{family}-{check}-{document['digest'][:_NAME_DIGEST_LEN]}.json"
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _entry_from_document(
    document: Mapping[str, Any], path: Path | None = None
) -> CorpusEntry:
    schema = document.get("schema")
    if schema != CORPUS_SCHEMA:
        raise SerializationError(
            f"unsupported corpus schema {schema!r} (expected {CORPUS_SCHEMA}) "
            f"in {path or '<document>'}"
        )
    instance = document.get("instance")
    if not isinstance(instance, Mapping):
        raise SerializationError(f"corpus entry {path or '<document>'} has no instance")
    app = application_from_dict(instance["application"])
    platform = platform_from_dict(instance["platform"])
    digest = instance_digest(app, platform)
    stored = str(document.get("digest", ""))
    if stored and stored != digest:
        raise SerializationError(
            f"corpus entry {path or '<document>'} digest mismatch: stored "
            f"{stored[:16]}..., recomputed {digest[:16]}... (was the instance "
            "hand-edited without refreshing the digest?)"
        )
    return CorpusEntry(
        path=path,
        family=str(document.get("family", "unknown")),
        check=str(document.get("check", "unknown")),
        note=str(document.get("note", "")),
        digest=digest,
        application=app,
        platform=platform,
    )


def load_corpus_entry(path: str | Path) -> CorpusEntry:
    """Load and verify one corpus file."""
    path = Path(path)
    document = json.loads(path.read_text(encoding="utf-8"))
    return _entry_from_document(document, path)


def load_corpus(directory: str | Path) -> list[CorpusEntry]:
    """Load every ``*.json`` entry of a corpus directory, sorted by file name.

    A missing directory is an empty corpus (the repository starts with one);
    a malformed entry raises — a corrupt regression fixture must fail loudly,
    not be skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_corpus_entry(path) for path in sorted(directory.glob("*.json"))]
