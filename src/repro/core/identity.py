"""Canonical content-addressed identity of problem instances (core layer).

Everything above the core re-solves the *same* (application, platform)
instances over and over — sweeps revisit an instance per threshold, the fuzz
harness revisits shrunk variants, and the solve cache (:mod:`repro.cache`)
memoises whole solver runs.  All of them need one stable identity for an
instance: Python's ``hash()`` is salted per process and the object reprs
carry display names, so neither qualifies.

This module is the single home of that identity (it started life in the
scenario layer; corpus fixtures keep their digests byte for byte):

* :func:`canonical_instance_document` — a name-free, JSON-safe document
  holding exactly the numbers that define the instance (stage works,
  communication sizes, processor speeds, link bandwidths, I/O bandwidths);
* :func:`instance_digest` — the SHA-256 hex digest of that document's
  canonical JSON encoding (sorted keys, compact separators, shortest
  round-trip float repr);
* :func:`application_payload` / :func:`platform_payload` — the canonical
  JSON bytes of each half, cached **on the object** (the underlying numpy
  vectors are frozen at construction, so the payload can never go stale).
  ``instance_digest`` is assembled from these cached halves, which makes
  hashing the same objects repeatedly — the common case in a batch-solve
  workload — a couple of dictionary lookups instead of a serialisation.

Display names are deliberately excluded throughout: ``scenario-extreme-
skew-17`` and a hand-written copy of the same instance hash identically,
and renaming every stage or processor never changes any digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .application import PipelineApplication
    from .platform import Platform

__all__ = [
    "canonical_document_payload",
    "digest_document",
    "canonical_instance_document",
    "application_payload",
    "platform_payload",
    "instance_digest",
]

#: serialisation fields that carry identity/display metadata, not numbers
_METADATA_KEYS = ("name", "type")


def canonical_document_payload(document: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes of a document: sorted keys, compact separators.

    JSON floats use Python's shortest round-trip representation, so
    numerically identical documents always produce identical bytes.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def digest_document(document: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a document's canonical JSON encoding."""
    return hashlib.sha256(canonical_document_payload(document)).hexdigest()


def _stripped(document: dict[str, Any]) -> dict[str, Any]:
    """Remove the display-metadata fields from a serialisation document."""
    for key in _METADATA_KEYS:
        document.pop(key, None)
    return document


def application_payload(app: "PipelineApplication") -> bytes:
    """Canonical JSON bytes of an application's name-free document, cached.

    Derived from :func:`repro.core.serialization.application_to_dict` with
    the display metadata stripped, so the hashed encoding can never drift
    from the persisted one.  The result is memoised on the application (its
    work/communication vectors are frozen at construction).
    """
    payload = app._canonical_payload
    if payload is None:
        from .serialization import application_to_dict

        payload = canonical_document_payload(_stripped(application_to_dict(app)))
        object.__setattr__(app, "_canonical_payload", payload)
    return payload


def platform_payload(platform: "Platform") -> bytes:
    """Canonical JSON bytes of a platform's name-free document, cached.

    The twin of :func:`application_payload` for
    :func:`repro.core.serialization.platform_to_dict`; memoised on the
    platform (speed vector and bandwidth matrix are frozen at construction).
    """
    payload = platform._canonical_payload
    if payload is None:
        from .serialization import platform_to_dict

        payload = canonical_document_payload(_stripped(platform_to_dict(platform)))
        object.__setattr__(platform, "_canonical_payload", payload)
    return payload


def canonical_instance_document(
    app: "PipelineApplication", platform: "Platform"
) -> dict[str, Any]:
    """Name-free, JSON-safe document capturing exactly the instance numbers.

    Derived from the shared serialisation converters
    (:func:`~repro.core.serialization.application_to_dict` /
    :func:`~repro.core.serialization.platform_to_dict`) with the display
    metadata stripped, so the hashed encoding can never drift from the
    persisted one: a field added to the instance model changes both in the
    same place.
    """
    from .serialization import application_to_dict, platform_to_dict

    return {
        "application": _stripped(application_to_dict(app)),
        "platform": _stripped(platform_to_dict(platform)),
    }


def instance_digest(app: "PipelineApplication", platform: "Platform") -> str:
    """SHA-256 hex digest of the canonical instance document.

    Stable across processes and sessions, and byte-identical to hashing the
    canonical JSON encoding of :func:`canonical_instance_document` directly
    (which ``tests/test_identity_properties.py`` pins down): with sorted
    keys and compact separators the outer document serialises to exactly
    ``{"application":<app payload>,"platform":<platform payload>}``, so the
    digest is assembled from the two cached per-object payloads.
    """
    sha = hashlib.sha256()
    sha.update(b'{"application":')
    sha.update(application_payload(app))
    sha.update(b',"platform":')
    sha.update(platform_payload(platform))
    sha.update(b"}")
    return sha.hexdigest()
