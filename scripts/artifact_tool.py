#!/usr/bin/env python
"""Operate on a versioned artifact store: inspect, verify, promote, rollback.

The serving stack persists checksummed snapshot bundles (CRN weights, the
queries pool with its cardinalities, index slab metadata, and the full
``ServingConfig`` mapping) into a :class:`repro.artifacts.ArtifactStore`
directory — one ``gen-<N>/`` bundle per model generation plus an atomic
``latest.json`` pointer.  This script is the operator's handle on that
directory; nothing here ever deserializes model weights, so every command
is safe to run against a store a live client is serving from.

Subcommands::

    artifact_tool.py inspect  ROOT [--generation N] [--json]
    artifact_tool.py verify   ROOT [--generation N]     # checksums + config
    artifact_tool.py promote  ROOT GENERATION           # re-point latest
    artifact_tool.py rollback ROOT                      # latest -> previous

``inspect`` lists every generation (manifest metadata, file sizes, which
one ``latest`` points at); ``verify`` re-hashes a bundle's files against
its manifest and fails loudly on a mismatch, then runs the retired-field
check a boot runs on the saved config
(:func:`repro.serving.client.upgrade_saved_config`), so a retired field
saved at a refused value fails here with the boot's message (the remaining
fields are validated only by a boot); ``promote`` re-points
``latest`` at any verified generation; ``rollback`` swaps ``latest`` back
to the previous generation (the swap is symmetric, so a second rollback
undoes the first).  No command deletes a bundle.

Exit codes: 0 ok, 2 usage error (missing store / unknown generation),
3 verification failure (checksum mismatch, truncated or torn bundle, a
saved config section that is not an object, a retired field saved at a
refused value) — CI's cold-start smoke treats nonzero as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.artifacts import ArtifactStore  # noqa: E402
from repro.artifacts.bundle import read_config_mapping  # noqa: E402
from repro.serving.client import upgrade_saved_config  # noqa: E402
from repro.serving.errors import (  # noqa: E402
    ArtifactChecksumError,
    ArtifactError,
    ArtifactNotFoundError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CORRUPT = 3


def _open_store(root: str) -> ArtifactStore | None:
    path = Path(root)
    if not path.is_dir():
        print(f"error: no such artifact store: {root}", file=sys.stderr)
        return None
    return ArtifactStore(path)


def _manifest_row(store: ArtifactStore, generation: int) -> dict:
    from repro.artifacts.schema import MANIFEST_FILENAME, ArtifactManifest

    directory = store.path(generation)
    manifest = ArtifactManifest.read(directory / MANIFEST_FILENAME)
    return {
        "generation": manifest.generation,
        "source": manifest.source,
        "created_unix": manifest.created_unix,
        "format_version": manifest.format_version,
        "model": dict(manifest.model),
        "files": {
            name: {"sha256": digest.sha256, "size_bytes": digest.size_bytes}
            for name, digest in manifest.files.items()
        },
        "size_bytes": sum(d.size_bytes for d in manifest.files.values()),
        "notes": manifest.notes,
    }


def cmd_inspect(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    if store is None:
        return EXIT_USAGE
    generations = store.generations()
    if args.generation is not None and args.generation not in generations:
        print(f"error: no such generation: {args.generation}", file=sys.stderr)
        return EXIT_USAGE
    if not generations:
        print(f"error: {args.root} holds no artifact generations", file=sys.stderr)
        return EXIT_USAGE
    pointer = store.pointer()
    selected = [args.generation] if args.generation is not None else generations
    rows = []
    for generation in selected:
        try:
            row = _manifest_row(store, generation)
        except ArtifactError as error:
            print(f"error: gen-{generation}: {error}", file=sys.stderr)
            return EXIT_CORRUPT
        row["latest"] = generation == pointer.get("generation")
        rows.append(row)
    if args.json:
        print(json.dumps({"pointer": pointer, "generations": rows}, indent=2))
        return EXIT_OK
    print(f"artifact store {args.root}")
    if pointer:
        print(
            f"latest -> gen-{pointer['generation']}"
            f" (previous: {pointer['previous'] if pointer['previous'] is not None else '-'})"
        )
    else:
        print("latest -> (unset)")
    for row in rows:
        marker = "*" if row["latest"] else " "
        spec = row["model"]
        print(
            f" {marker} gen-{row['generation']:<4d} source={row['source']:<8s}"
            f" {row['size_bytes']:>10,d} bytes"
            f"  crn(vec={spec['vector_size']}, hidden={spec['hidden_size']},"
            f" pool={spec['pooling']}, seed={spec['seed']})"
        )
        for name, digest in sorted(row["files"].items()):
            print(
                f"     {name:<12s} {digest['size_bytes']:>10,d} bytes"
                f"  sha256:{digest['sha256'][:16]}…"
            )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    if store is None:
        return EXIT_USAGE
    if args.generation is not None:
        targets = [args.generation]
    else:
        pointer = store.pointer()
        if not pointer:
            print(f"error: {args.root} has no latest pointer", file=sys.stderr)
            return EXIT_USAGE
        targets = [pointer["generation"]]
    for generation in targets:
        try:
            store.verify(generation)
            upgrade_saved_config(read_config_mapping(store.path(generation)))
        except ArtifactNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE
        except ArtifactChecksumError as error:
            print(f"error: gen-{generation} failed verification: {error}", file=sys.stderr)
            return EXIT_CORRUPT
        except ArtifactError as error:
            print(f"error: gen-{generation}: {error}", file=sys.stderr)
            return EXIT_CORRUPT
        print(f"gen-{generation}: ok")
    return EXIT_OK


def cmd_promote(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    if store is None:
        return EXIT_USAGE
    before = store.pointer()
    try:
        store.promote(args.generation)
    except ArtifactNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactChecksumError as error:
        print(
            f"error: refusing to promote corrupt gen-{args.generation}: {error}",
            file=sys.stderr,
        )
        return EXIT_CORRUPT
    after = store.pointer()
    was = before.get("generation") if before else None
    print(f"latest: gen-{was if was is not None else '(unset)'} -> gen-{after['generation']}")
    return EXIT_OK


def cmd_rollback(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    if store is None:
        return EXIT_USAGE
    before = store.pointer()
    try:
        store.rollback()
    except ArtifactNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactChecksumError as error:
        print(f"error: rollback target is corrupt: {error}", file=sys.stderr)
        return EXIT_CORRUPT
    after = store.pointer()
    print(
        f"latest: gen-{before['generation']} -> gen-{after['generation']}"
        f" (rollback again to undo)"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="list generations and manifests")
    inspect.add_argument("root", help="artifact store directory")
    inspect.add_argument(
        "--generation", type=int, default=None, help="inspect only this generation"
    )
    inspect.add_argument("--json", action="store_true", help="machine-readable output")
    inspect.set_defaults(func=cmd_inspect)

    verify = sub.add_parser("verify", help="re-hash a bundle against its manifest")
    verify.add_argument("root", help="artifact store directory")
    verify.add_argument(
        "--generation",
        type=int,
        default=None,
        help="verify this generation (default: the one latest points at)",
    )
    verify.set_defaults(func=cmd_verify)

    promote = sub.add_parser("promote", help="re-point latest at a generation")
    promote.add_argument("root", help="artifact store directory")
    promote.add_argument("generation", type=int, help="generation to promote")
    promote.set_defaults(func=cmd_promote)

    rollback = sub.add_parser("rollback", help="re-point latest at the previous generation")
    rollback.add_argument("root", help="artifact store directory")
    rollback.set_defaults(func=cmd_rollback)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
