"""The generational artifact store: durable snapshots with promote/rollback.

Layout on disk, under one *store root* directory::

    <root>/
        gen-1/            one bundle per generation (repro.artifacts.bundle)
        gen-2/
        latest.json       the pointer: {"generation": 2, "previous": 1}

The pointer is the only mutable state.  It is written atomically (temp file
+ ``os.replace`` on the same filesystem), so a crash mid-promote leaves the
old pointer fully intact — there is no window where ``latest`` names a
half-written target.  Because the pointer records the *previous* generation
alongside the current one, :meth:`ArtifactStore.rollback` is a pure pointer
swap: re-point ``latest`` at ``previous`` and remember where it came from,
without deleting any bundle.  Promote and rollback are therefore symmetric
and both reversible.

Generation numbers are the service's model generations
(:attr:`repro.serving.EstimationService.generation`): the adaptation loop
persists each accepted candidate under the generation the swap produced, so
a served :class:`repro.serving.EstimateResult`, its swap record in the
:class:`repro.observability.EventStore`, and its on-disk snapshot all join
on one number.

Saves stage into a hidden temp directory and rename into place, so a
killed save never leaves a partially written ``gen-N/`` that a later
:meth:`~ArtifactStore.load` could trip over.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import Any, Mapping

from repro.artifacts.bundle import LoadedBundle, load_bundle, save_bundle
from repro.artifacts.schema import (
    MANIFEST_FILENAME,
    ArtifactManifest,
    verify_files,
)
from repro.serving.errors import ArtifactNotFoundError, ArtifactSchemaError

__all__ = ["ArtifactStore", "POINTER_FILENAME"]

#: The atomic ``latest`` pointer's file name inside the store root.
POINTER_FILENAME = "latest.json"

_GENERATION_DIR = re.compile(r"^gen-(\d+)$")


class ArtifactStore:
    """A directory-backed, generation-keyed store of snapshot bundles.

    Args:
        root: the store directory (created, with parents, when missing).
        recorder: optional :class:`repro.observability.EventRecorder`; when
            set, every save / load / promote / rollback emits its artifact
            lifecycle event, so the event store can answer "which snapshot
            answered this request" by joining generations.
    """

    def __init__(self, root: str | os.PathLike, recorder=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    # paths and enumeration

    def path(self, generation: int) -> Path:
        """The bundle directory of ``generation`` (may not exist yet)."""
        if generation <= 0:
            raise ArtifactSchemaError(f"generation must be positive, got {generation}")
        return self.root / f"gen-{generation}"

    def generations(self) -> list[int]:
        """All generations with a complete (manifest-bearing) bundle, sorted."""
        found = []
        for entry in self.root.iterdir():
            match = _GENERATION_DIR.match(entry.name)
            if match and (entry / MANIFEST_FILENAME).is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    # ------------------------------------------------------------------ #
    # the latest pointer

    def pointer(self) -> dict[str, Any]:
        """The raw pointer state: ``{"generation": int|None, "previous": int|None}``."""
        path = self.root / POINTER_FILENAME
        if not path.is_file():
            return {"generation": None, "previous": None}
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ArtifactSchemaError(
                f"cannot read store pointer {str(path)!r}: {error}"
            ) from error
        if not isinstance(raw, dict) or "generation" not in raw:
            raise ArtifactSchemaError(
                f"store pointer {str(path)!r} must be an object with a "
                f"'generation' field, got {raw!r}"
            )
        return {"generation": raw["generation"], "previous": raw.get("previous")}

    def latest(self) -> int | None:
        """The promoted generation, or ``None`` when nothing is promoted yet."""
        return self.pointer()["generation"]

    def _write_pointer(self, generation: int, previous: int | None) -> None:
        # Temp file + os.replace on the same filesystem: readers see either
        # the old pointer or the new one, never a torn write.
        target = self.root / POINTER_FILENAME
        staging = self.root / f".{POINTER_FILENAME}.tmp"
        staging.write_text(
            json.dumps({"generation": generation, "previous": previous}) + "\n"
        )
        os.replace(staging, target)

    # ------------------------------------------------------------------ #
    # save / load / verify

    def save(
        self,
        *,
        model,
        pool,
        config_mapping: Mapping[str, Any],
        generation: int,
        source: str,
        pool_index=None,
        notes: str = "",
        promote: bool = False,
    ) -> ArtifactManifest:
        """Persist one snapshot bundle as ``generation``.

        The bundle is staged into a hidden sibling directory and renamed
        into place, so an interrupted save leaves no visible ``gen-N/``.
        Re-saving an existing generation replaces its bundle (the staging
        rename makes the replacement all-or-nothing at the directory level).

        Args:
            promote: additionally re-point ``latest`` at this generation
                once the bundle is fully on disk.
        """
        final = self.path(generation)
        staging = self.root / f".gen-{generation}.staging"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            manifest = save_bundle(
                staging,
                model=model,
                pool=pool,
                config_mapping=config_mapping,
                generation=generation,
                source=source,
                pool_index=pool_index,
                notes=notes,
            )
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._emit_saved(manifest)
        if promote:
            self.promote(generation)
        return manifest

    def load(self, generation: int | None = None) -> LoadedBundle:
        """Read, checksum-verify, and deserialize one generation's bundle.

        Args:
            generation: which generation to load; ``None`` loads whatever
                ``latest`` points at.

        Raises:
            ArtifactNotFoundError: nothing promoted (for ``None``), or the
                named generation has no bundle.
            ArtifactChecksumError / ArtifactSchemaError: the bundle is
                corrupt or invalid (see :func:`repro.artifacts.load_bundle`).
        """
        if generation is None:
            generation = self.latest()
            if generation is None:
                raise ArtifactNotFoundError(
                    f"artifact store {str(self.root)!r} has no promoted "
                    f"generation (empty latest pointer)"
                )
        bundle = load_bundle(self.path(generation))
        self._emit_loaded(bundle.manifest)
        return bundle

    def verify(self, generation: int) -> ArtifactManifest:
        """Validate one generation's manifest and every file digest.

        Returns the manifest on success; raises the bundle's typed error
        otherwise.  Cheaper than :meth:`load` — nothing is deserialized.
        """
        directory = self.path(generation)
        manifest_path = directory / MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise ArtifactNotFoundError(
                f"no artifact bundle for generation {generation} at "
                f"{str(directory)!r}"
            )
        manifest = ArtifactManifest.read(manifest_path)
        if manifest.generation != generation:
            raise ArtifactSchemaError(
                f"bundle at {str(directory)!r} records generation "
                f"{manifest.generation}, directory says {generation}"
            )
        verify_files(directory, manifest)
        return manifest

    # ------------------------------------------------------------------ #
    # promote / rollback

    def promote(self, generation: int) -> dict[str, Any]:
        """Atomically re-point ``latest`` at ``generation``.

        The target bundle is checksum-verified *first* — a corrupt bundle
        cannot be promoted.  Returns the new pointer state.
        """
        self.verify(generation)
        current = self.pointer()
        previous = current["generation"] if current["generation"] != generation else current["previous"]
        self._write_pointer(generation, previous)
        self._emit_promoted(generation, previous)
        return {"generation": generation, "previous": previous}

    def rollback(self) -> dict[str, Any]:
        """Re-point ``latest`` back at the previous generation.

        A pure pointer swap — no bundle is deleted, and the generations
        trade places (rolling back twice returns to where you started).

        Raises:
            ArtifactNotFoundError: nothing is promoted, there is no recorded
                previous generation, or the previous bundle is gone.
        """
        current = self.pointer()
        if current["generation"] is None:
            raise ArtifactNotFoundError(
                f"artifact store {str(self.root)!r} has no promoted "
                f"generation to roll back from"
            )
        previous = current["previous"]
        if previous is None:
            raise ArtifactNotFoundError(
                f"generation {current['generation']} has no recorded previous "
                f"generation to roll back to"
            )
        self.verify(previous)
        self._write_pointer(previous, current["generation"])
        self._emit_rolled_back(previous, current["generation"])
        return {"generation": previous, "previous": current["generation"]}

    # ------------------------------------------------------------------ #
    # observability (no-ops without a recorder)

    def _emit_saved(self, manifest: ArtifactManifest) -> None:
        if self.recorder is not None:
            from repro.observability.events import ArtifactSaved

            self.recorder.emit(
                ArtifactSaved(
                    generation=manifest.generation,
                    source=manifest.source,
                    size_bytes=sum(d.size_bytes for d in manifest.files.values()),
                )
            )

    def _emit_loaded(self, manifest: ArtifactManifest) -> None:
        if self.recorder is not None:
            from repro.observability.events import ArtifactLoaded

            self.recorder.emit(
                ArtifactLoaded(generation=manifest.generation, source=manifest.source)
            )

    def _emit_promoted(self, generation: int, previous: int | None) -> None:
        if self.recorder is not None:
            from repro.observability.events import ArtifactPromoted

            self.recorder.emit(
                ArtifactPromoted(generation=generation, previous=previous)
            )

    def _emit_rolled_back(self, generation: int, previous: int | None) -> None:
        if self.recorder is not None:
            from repro.observability.events import ArtifactRolledBack

            self.recorder.emit(
                ArtifactRolledBack(generation=generation, rolled_back_from=previous)
            )
