"""Durable, versioned serving artifacts (the cold-start substrate).

Everything the serving stack builds in memory — trained CRN weights, the
queries pool with its true cardinalities, the encoding index's slab shape,
and the full :class:`repro.serving.ServingConfig` — can be persisted as one
schema-validated, checksummed *bundle* (:mod:`~repro.artifacts.bundle`) and
kept in a generation-keyed *store* (:mod:`~repro.artifacts.store`) with an
atomic ``latest`` pointer, ``promote``, and ``rollback``.

A restart then boots from the promoted snapshot
(:meth:`repro.serving.ServingClient.from_artifact`) instead of retraining:
weights are restored, the pool is replayed entry-for-entry, the index is
re-warmed, the inference plan is recompiled, and the restored model
generation is stamped back onto the service — so
:attr:`repro.serving.EstimateResult.model_generation` provenance is
continuous across process restarts, and the booted client's estimates are
bit-identical to the client that produced the snapshot
(``benchmarks/bench_cold_start.py`` pins both properties).

Failure surface: :class:`repro.serving.ArtifactSchemaError` for invalid
manifests, :class:`repro.serving.ArtifactChecksumError` for corrupt bytes,
:class:`repro.serving.ArtifactNotFoundError` for missing generations — all
under :class:`repro.serving.ArtifactError`.
"""

from repro.artifacts.bundle import (
    BUNDLE_FILES,
    LoadedBundle,
    load_bundle,
    query_from_mapping,
    query_to_mapping,
    save_bundle,
)
from repro.artifacts.schema import (
    MANIFEST_FILENAME,
    MANIFEST_FORMAT_VERSION,
    ArtifactManifest,
    FileDigest,
    file_digest,
    verify_files,
)
from repro.artifacts.store import POINTER_FILENAME, ArtifactStore

__all__ = [
    "ArtifactManifest",
    "ArtifactStore",
    "BUNDLE_FILES",
    "FileDigest",
    "LoadedBundle",
    "MANIFEST_FILENAME",
    "MANIFEST_FORMAT_VERSION",
    "POINTER_FILENAME",
    "file_digest",
    "load_bundle",
    "query_from_mapping",
    "query_to_mapping",
    "save_bundle",
    "verify_files",
]
