"""The artifact manifest: schema-validated, checksummed bundle metadata.

Every snapshot bundle (:mod:`repro.artifacts.bundle`) carries one
``manifest.json`` describing exactly what the bundle holds: the manifest
format version, the model generation the snapshot serves, the CRN
architecture needed to rebuild the network before its weights are restored,
and a per-file SHA-256 digest table.  The manifest is the *contract* between
the process that saved the snapshot and the process that boots from it —
following the deduplicated, schema-checked results-database pattern: a
record is either fully valid against the schema or rejected with an error
naming the offending field, never half-trusted.

Validation is strict in both directions: missing required fields and
*unknown* fields both raise :class:`repro.serving.ArtifactSchemaError` (a
typo in a hand-edited manifest must not silently become a default), and
every file digest is checked byte-for-byte at load time
(:func:`verify_files` → :class:`repro.serving.ArtifactChecksumError`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.serving.errors import ArtifactChecksumError, ArtifactSchemaError

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_FORMAT_VERSION",
    "ArtifactManifest",
    "FileDigest",
    "file_digest",
    "verify_files",
]

#: Bumped when the bundle layout changes incompatibly.  A loader refuses
#: manifests from a newer format instead of guessing at their layout.
MANIFEST_FORMAT_VERSION = 1

#: The manifest's file name inside a bundle directory.
MANIFEST_FILENAME = "manifest.json"

#: Model-architecture fields the manifest must carry to rebuild the CRN
#: before loading its weights (mirrors ``CRNModel(vector_size, CRNConfig)``).
_MODEL_FIELDS = ("vector_size", "hidden_size", "pooling", "use_expand", "seed")


def file_digest(path: Path) -> "FileDigest":
    """Hash one file's bytes into its manifest record."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    return FileDigest(sha256=digest.hexdigest(), size_bytes=size)


@dataclass(frozen=True)
class FileDigest:
    """One bundle file's integrity record: SHA-256 plus byte size."""

    sha256: str
    size_bytes: int

    def __post_init__(self) -> None:
        if len(self.sha256) != 64 or any(
            c not in "0123456789abcdef" for c in self.sha256
        ):
            raise ArtifactSchemaError(
                f"sha256 must be a 64-character lowercase hex digest, "
                f"got {self.sha256!r}"
            )
        if self.size_bytes < 0:
            raise ArtifactSchemaError(
                f"size_bytes must be non-negative, got {self.size_bytes!r}"
            )


@dataclass(frozen=True)
class ArtifactManifest:
    """One snapshot bundle's self-description.

    Attributes:
        format_version: the manifest layout version
            (:data:`MANIFEST_FORMAT_VERSION`).
        generation: the served model generation this snapshot serves — the
            same number stamped into every
            :attr:`repro.serving.EstimateResult.model_generation`, so a
            response, its swap record, and its on-disk snapshot all key on
            one value.
        created_unix: wall-clock save time (``time.time()``).
        source: what produced the snapshot — ``"build"`` for a freshly wired
            stack, ``"promote"`` for an adaptation-accepted candidate,
            ``"manual"`` for operator saves.
        model: the CRN architecture (``vector_size`` plus the ``CRNConfig``
            fields), enough to rebuild the network the weights belong to.
        files: per-file :class:`FileDigest` records, keyed by the bundle-
            relative file name.  The manifest itself is never listed (it
            cannot contain its own digest).
        notes: free-form operator annotation.
    """

    format_version: int
    generation: int
    created_unix: float
    source: str
    model: dict[str, Any]
    files: dict[str, FileDigest]
    notes: str = ""
    _KNOWN_FIELDS = (
        "format_version",
        "generation",
        "created_unix",
        "source",
        "model",
        "files",
        "notes",
    )

    def __post_init__(self) -> None:
        if self.format_version != MANIFEST_FORMAT_VERSION:
            raise ArtifactSchemaError(
                f"unsupported manifest format_version {self.format_version!r}; "
                f"this build reads version {MANIFEST_FORMAT_VERSION}"
            )
        if not isinstance(self.generation, int) or isinstance(self.generation, bool):
            raise ArtifactSchemaError(
                f"generation must be an int, got {self.generation!r}"
            )
        if self.generation <= 0:
            raise ArtifactSchemaError(
                f"generation must be positive, got {self.generation}"
            )
        if not self.source:
            raise ArtifactSchemaError("source must be non-empty")
        missing = [name for name in _MODEL_FIELDS if name not in self.model]
        unknown = sorted(set(self.model) - set(_MODEL_FIELDS))
        if missing or unknown:
            raise ArtifactSchemaError(
                f"manifest model section must carry exactly {list(_MODEL_FIELDS)}; "
                f"missing={missing}, unknown={unknown}"
            )
        if not self.files:
            raise ArtifactSchemaError("manifest lists no files; an empty bundle is invalid")
        for name in self.files:
            if not name or "/" in name or name == MANIFEST_FILENAME:
                raise ArtifactSchemaError(
                    f"invalid bundle file name {name!r}: names are flat "
                    f"(no directories) and the manifest cannot list itself"
                )

    # ------------------------------------------------------------------ #
    # JSON round-trip

    def to_mapping(self) -> dict[str, Any]:
        """The manifest as a JSON-ready plain dict."""
        return {
            "format_version": self.format_version,
            "generation": self.generation,
            "created_unix": self.created_unix,
            "source": self.source,
            "model": dict(self.model),
            "files": {
                name: {"sha256": digest.sha256, "size_bytes": digest.size_bytes}
                for name, digest in self.files.items()
            },
            "notes": self.notes,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ArtifactManifest":
        """Validate and rebuild a manifest from :meth:`to_mapping` output.

        Raises:
            ArtifactSchemaError: on missing fields, unknown fields, or
                malformed values — each named in the message.
        """
        if not isinstance(mapping, Mapping):
            raise ArtifactSchemaError(
                f"manifest must be a JSON object, got {type(mapping).__name__}"
            )
        unknown = sorted(set(mapping) - set(cls._KNOWN_FIELDS))
        if unknown:
            raise ArtifactSchemaError(
                f"unknown manifest field(s) {unknown}; expected a subset of "
                f"{list(cls._KNOWN_FIELDS)}"
            )
        required = [name for name in cls._KNOWN_FIELDS if name != "notes"]
        missing = [name for name in required if name not in mapping]
        if missing:
            raise ArtifactSchemaError(f"manifest is missing required field(s) {missing}")
        raw_files = mapping["files"]
        if not isinstance(raw_files, Mapping):
            raise ArtifactSchemaError(
                f"manifest files must be an object, got {type(raw_files).__name__}"
            )
        files: dict[str, FileDigest] = {}
        for name, record in raw_files.items():
            if not isinstance(record, Mapping) or set(record) != {"sha256", "size_bytes"}:
                raise ArtifactSchemaError(
                    f"file record for {name!r} must be "
                    f"{{'sha256', 'size_bytes'}}, got {record!r}"
                )
            files[str(name)] = FileDigest(
                sha256=str(record["sha256"]), size_bytes=int(record["size_bytes"])
            )
        model = mapping["model"]
        if not isinstance(model, Mapping):
            raise ArtifactSchemaError(
                f"manifest model must be an object, got {type(model).__name__}"
            )
        try:
            created = float(mapping["created_unix"])
        except (TypeError, ValueError):
            raise ArtifactSchemaError(
                f"created_unix must be a number, got {mapping['created_unix']!r}"
            ) from None
        return cls(
            format_version=mapping["format_version"],
            generation=mapping["generation"],
            created_unix=created,
            source=str(mapping["source"]),
            model=dict(model),
            files=files,
            notes=str(mapping.get("notes", "")),
        )

    @classmethod
    def read(cls, path: Path) -> "ArtifactManifest":
        """Read and validate ``manifest.json`` at ``path``.

        Raises:
            ArtifactSchemaError: on unparseable JSON or a schema violation.
        """
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ArtifactSchemaError(
                f"cannot read manifest {str(path)!r}: {error}"
            ) from error
        return cls.from_mapping(raw)

    def write(self, path: Path) -> None:
        """Write the manifest to ``path`` (the bundle's final step)."""
        path.write_text(json.dumps(self.to_mapping(), indent=2, sort_keys=True) + "\n")


def verify_files(directory: Path, manifest: ArtifactManifest) -> None:
    """Check every manifest-listed file's bytes against its recorded digest.

    Raises:
        ArtifactChecksumError: naming the first offending file, with both
            digests (or the size mismatch for a truncated file).  A missing
            listed file is also a checksum failure: the bundle as recorded
            no longer exists.
    """
    for name, recorded in manifest.files.items():
        path = directory / name
        if not path.is_file():
            raise ArtifactChecksumError(
                f"bundle file {name!r} listed in the manifest is missing "
                f"from {str(directory)!r}"
            )
        actual = file_digest(path)
        if actual.size_bytes != recorded.size_bytes:
            raise ArtifactChecksumError(
                f"bundle file {name!r} is {actual.size_bytes} bytes, manifest "
                f"records {recorded.size_bytes} (truncated or torn write)"
            )
        if actual.sha256 != recorded.sha256:
            raise ArtifactChecksumError(
                f"bundle file {name!r} fails its checksum: sha256 "
                f"{actual.sha256} != recorded {recorded.sha256}"
            )
