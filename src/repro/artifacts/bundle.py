"""Snapshot bundles: everything a serving stack needs to boot cold.

One bundle is one directory holding four data files plus the manifest that
describes and checksums them (:mod:`repro.artifacts.schema`):

* ``model.npz`` — the trained CRN's parameters, written by
  :func:`repro.nn.serialization.save_parameters` (format-versioned, with a
  per-parameter shape/dtype header).  The architecture needed to rebuild the
  network lives in the manifest's ``model`` section.
* ``pool.json`` — the queries pool as structural JSON: every entry's query
  (tables, joins, predicates — *not* SQL text, so no parser round-trip can
  perturb it) and its true cardinality, in pool iteration order.  Replaying
  the entries in order reproduces the pool — and therefore the
  :class:`repro.serving.PoolEncodingIndex` slab rows — exactly.
* ``config.json`` — the full :meth:`repro.serving.ServingConfig.to_mapping`
  snapshot: every section survives the round trip with the config layer's
  unknown-field rejection intact.
* ``index.json`` — prebuilt index slab metadata: the per-FROM-signature
  eligible row counts the warmed index is expected to hold, plus whether
  its slabs were float32 (``f32_mirrors``, a name kept from when float32
  slabs were mirrors of float64 ones).  The slab *matrices* are
  deliberately not serialized — they are a pure function of (weights, pool)
  and rebuild bit-identically from the encoding cache at boot; the metadata
  lets the loader verify the rebuild landed where the saver stood.

Writes are crash-safe by ordering: data files first, ``manifest.json`` last,
so a torn save is a directory without a manifest — recognizably incomplete,
never a bundle that validates.  Loads verify every file's SHA-256 against
the manifest before anything is deserialized
(:class:`repro.serving.ArtifactChecksumError` on the first mismatch), so a
truncated or bit-rotted bundle refuses to boot rather than half-loading.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.artifacts.schema import (
    MANIFEST_FILENAME,
    MANIFEST_FORMAT_VERSION,
    ArtifactManifest,
    file_digest,
    verify_files,
)
from repro.core.crn import CRNConfig, CRNModel
from repro.core.queries_pool import PoolEntry, QueriesPool
from repro.nn.serialization import (
    ParameterMismatchError,
    load_parameters,
    save_parameters,
)
from repro.serving.errors import ArtifactNotFoundError, ArtifactSchemaError
from repro.sql.query import (
    ComparisonOperator,
    JoinClause,
    Predicate,
    Query,
    TableRef,
)

__all__ = [
    "BUNDLE_FILES",
    "LoadedBundle",
    "load_bundle",
    "read_config_mapping",
    "query_from_mapping",
    "query_to_mapping",
    "save_bundle",
]

#: The data files every bundle holds (the manifest checksums exactly these).
BUNDLE_FILES = ("model.npz", "pool.json", "config.json", "index.json")


# ---------------------------------------------------------------------- #
# structural query JSON

def query_to_mapping(query: Query) -> dict[str, Any]:
    """``query`` as plain structural JSON (clause lists, not SQL text).

    Serializing the clause objects directly — instead of formatting SQL and
    re-parsing it at load — means the round trip is exact by construction:
    JSON preserves float predicate values bit-for-bit (``repr`` round-trip),
    and the query's canonical clause ordering is re-derived by
    :class:`~repro.sql.query.Query` itself on rebuild.
    """
    return {
        "tables": [[table.name, table.alias] for table in query.tables],
        "joins": [
            [join.left_alias, join.left_column, join.right_alias, join.right_column]
            for join in query.joins
        ],
        "predicates": [
            [pred.alias, pred.column, pred.operator.value, pred.value]
            for pred in query.predicates
        ],
    }


def query_from_mapping(mapping: Mapping[str, Any]) -> Query:
    """Rebuild a query from :func:`query_to_mapping` output.

    Raises:
        ArtifactSchemaError: when the mapping is not a valid query record.
    """
    try:
        tables = tuple(TableRef(name, alias) for name, alias in mapping["tables"])
        joins = tuple(JoinClause(*parts) for parts in mapping.get("joins", ()))
        predicates = tuple(
            Predicate(alias, column, ComparisonOperator.from_symbol(symbol), value)
            for alias, column, symbol, value in mapping.get("predicates", ())
        )
        return Query(tables, joins, predicates)
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactSchemaError(f"invalid pool query record: {error}") from error


# ---------------------------------------------------------------------- #
# index slab metadata

def _index_metadata(pool: QueriesPool, pool_index=None) -> dict[str, Any]:
    """Expected post-warm slab shape, derived from the pool itself.

    Slab rows are the bucket's positive-cardinality entries in insertion
    order, so the expected row counts are a pure pool property; the live
    index only contributes whether its slabs are float32.
    """
    signatures = []
    for signature in pool.from_signatures():
        entries, _ = pool.bucket_snapshot(signature)
        rows = sum(1 for entry in entries if entry.cardinality > 0)
        signatures.append({"signature": [list(pair) for pair in signature], "rows": rows})
    f32_mirrors = False
    if pool_index is not None:
        f32_mirrors = bool(pool_index.stats_snapshot().get("pool_index_f32_mirrors", 0.0))
    return {"signatures": signatures, "f32_mirrors": f32_mirrors}


# ---------------------------------------------------------------------- #
# save / load

def save_bundle(
    directory: Path,
    *,
    model: CRNModel,
    pool: QueriesPool,
    config_mapping: Mapping[str, Any],
    generation: int,
    source: str,
    pool_index=None,
    notes: str = "",
) -> ArtifactManifest:
    """Write one complete snapshot bundle into ``directory``.

    The directory must already exist (the store creates it); data files are
    written first and ``manifest.json`` strictly last, so an interrupted
    save can never leave a directory that passes validation.

    Returns:
        The manifest that was written.
    """
    directory = Path(directory)
    save_parameters(model, directory / "model.npz")
    pool_payload = {
        "entries": [
            {"query": query_to_mapping(entry.query), "cardinality": entry.cardinality}
            for entry in pool
        ]
    }
    (directory / "pool.json").write_text(json.dumps(pool_payload) + "\n")
    (directory / "config.json").write_text(
        json.dumps(dict(config_mapping), indent=2, sort_keys=True) + "\n"
    )
    (directory / "index.json").write_text(
        json.dumps(_index_metadata(pool, pool_index), indent=2) + "\n"
    )
    manifest = ArtifactManifest(
        format_version=MANIFEST_FORMAT_VERSION,
        generation=generation,
        created_unix=time.time(),
        source=source,
        model={
            "vector_size": model.vector_size,
            "hidden_size": model.config.hidden_size,
            "pooling": model.config.pooling,
            "use_expand": model.config.use_expand,
            "seed": model.config.seed,
        },
        files={name: file_digest(directory / name) for name in BUNDLE_FILES},
        notes=notes,
    )
    manifest.write(directory / MANIFEST_FILENAME)
    return manifest


@dataclass(frozen=True)
class LoadedBundle:
    """One verified, fully deserialized snapshot bundle.

    Attributes:
        manifest: the validated manifest (generation, digests, architecture).
        model: the rebuilt CRN with the snapshot's weights restored.
        pool: the replayed queries pool, entry-for-entry in saved order.
        config_mapping: the raw :meth:`~repro.serving.ServingConfig.to_mapping`
            snapshot — callers pass it through
            :meth:`~repro.serving.ServingConfig.from_mapping` with the
            runtime objects a mapping cannot carry (database, oracle, model).
        index_meta: the expected post-warm index shape (``index.json``).
    """

    manifest: ArtifactManifest
    model: CRNModel
    pool: QueriesPool
    config_mapping: dict[str, Any]
    index_meta: dict[str, Any]


def _read_json(path: Path, description: str) -> Any:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactSchemaError(
            f"cannot read {description} {str(path)!r}: {error}"
        ) from error


def read_config_mapping(directory: Path) -> dict[str, Any]:
    """The raw saved config mapping (``config.json``) of the bundle in ``directory``."""
    config_mapping = _read_json(Path(directory) / "config.json", "bundle config")
    if not isinstance(config_mapping, dict):
        raise ArtifactSchemaError(
            f"bundle config at {str(directory)!r} must be a JSON object"
        )
    return config_mapping


def load_bundle(directory: Path) -> LoadedBundle:
    """Read, verify, and deserialize the bundle in ``directory``.

    Every manifest-listed file's SHA-256 is checked *before* any
    deserialization, so nothing is ever built from corrupt bytes.

    Raises:
        ArtifactNotFoundError: no bundle (no manifest) at ``directory``.
        ArtifactChecksumError: any file fails its digest or size check.
        ArtifactSchemaError: the manifest, a data file, or the weights
            archive is structurally invalid.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise ArtifactNotFoundError(
            f"no artifact bundle at {str(directory)!r} (missing {MANIFEST_FILENAME})"
        )
    manifest = ArtifactManifest.read(manifest_path)
    missing = sorted(set(BUNDLE_FILES) - set(manifest.files))
    if missing:
        raise ArtifactSchemaError(
            f"manifest at {str(directory)!r} does not list required bundle "
            f"file(s) {missing}"
        )
    verify_files(directory, manifest)

    config_mapping = read_config_mapping(directory)
    index_meta = _read_json(directory / "index.json", "bundle index metadata")

    pool_payload = _read_json(directory / "pool.json", "bundle pool")
    try:
        records = pool_payload["entries"]
    except (TypeError, KeyError):
        raise ArtifactSchemaError(
            f"bundle pool at {str(directory)!r} must be {{'entries': [...]}}"
        ) from None
    entries = []
    for record in records:
        try:
            entries.append(
                PoolEntry(query_from_mapping(record["query"]), int(record["cardinality"]))
            )
        except ArtifactSchemaError:
            raise
        except (TypeError, KeyError, ValueError, OverflowError) as error:
            raise ArtifactSchemaError(
                f"invalid pool entry record {record!r}: {error}"
            ) from error
    pool = QueriesPool(entries)

    spec = manifest.model
    try:
        model = CRNModel(
            int(spec["vector_size"]),
            CRNConfig(
                hidden_size=int(spec["hidden_size"]),
                pooling=str(spec["pooling"]),
                use_expand=bool(spec["use_expand"]),
                seed=int(spec["seed"]),
            ),
        )
    except (TypeError, ValueError) as error:
        raise ArtifactSchemaError(
            f"manifest model section cannot rebuild a CRN: {error}"
        ) from error
    try:
        load_parameters(model, directory / "model.npz")
    except ParameterMismatchError as error:
        # The bytes passed their checksum, so this is a save-time
        # inconsistency between the manifest's architecture and the archive —
        # a schema problem, not corruption.
        raise ArtifactSchemaError(
            f"bundle weights do not match the manifest's architecture: {error}"
        ) from error

    return LoadedBundle(
        manifest=manifest,
        model=model,
        pool=pool,
        config_mapping=config_mapping,
        index_meta=index_meta if isinstance(index_meta, dict) else {},
    )
