"""Saving and loading model parameters.

The paper notes the CRN model serialises to roughly 1.5 MB on disk; we persist
parameters as a compressed ``.npz`` archive keyed by parameter name, plus a
metadata header (:data:`METADATA_KEY`) describing the archive: format
version, parameter count, and the expected shape/dtype of every entry.

Loading validates the archive against the *target module* before a single
parameter is assigned: missing keys, extra keys, and per-parameter
shape/dtype mismatches each raise a :class:`ParameterMismatchError` naming
the offending parameter.  A stale or truncated archive therefore fails
up front with a readable error instead of half-loading and crashing deep in
``load_state_dict`` (or, worse, silently serving a chimera of old and new
weights).  An archive without the header is rejected the same way.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Any, Mapping

import numpy as np

from repro.nn.layers import Module

__all__ = [
    "METADATA_KEY",
    "SERIALIZATION_FORMAT_VERSION",
    "ParameterMismatchError",
    "load_parameters",
    "read_parameter_metadata",
    "save_parameters",
]

#: Bumped when the archive layout changes incompatibly.  Version 1 added the
#: metadata header; the header-less version 0 is no longer read.
SERIALIZATION_FORMAT_VERSION = 1

#: Reserved archive entry holding the JSON metadata header.  The name is not
#: a valid parameter name (parameters come from attribute walks), so it can
#: never collide with a real parameter.
METADATA_KEY = "__repro_parameters_meta__"


class ParameterMismatchError(ValueError):
    """An archive does not describe the module it is being loaded into.

    Raised before any parameter is assigned, so a failed load never leaves
    the module half-updated.  The message names every offending parameter.
    """


def _module_spec(module: Module) -> dict[str, dict[str, Any]]:
    """Per-parameter shape/dtype of ``module``, keyed by parameter name."""
    return {
        name: {"shape": list(parameter.data.shape), "dtype": str(parameter.data.dtype)}
        for name, parameter in module.named_parameters()
    }


def save_parameters(module: Module, path: str | os.PathLike) -> None:
    """Save all of ``module``'s parameters to ``path`` (``.npz``).

    Besides one array per parameter, the archive carries a JSON metadata
    header under :data:`METADATA_KEY`: the serialization format version and
    every parameter's expected shape/dtype, so :func:`read_parameter_metadata`
    can describe an archive without a module to compare against.
    """
    state = module.state_dict()
    header = {
        "format_version": SERIALIZATION_FORMAT_VERSION,
        "parameter_count": len(state),
        "parameters": _module_spec(module),
    }
    encoded = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **state, **{METADATA_KEY: encoded})


def read_parameter_metadata(path: str | os.PathLike) -> dict[str, Any]:
    """The archive's metadata header.

    Raises:
        ParameterMismatchError: when the file is not a readable ``.npz``
            archive (truncated, or not an archive at all), or carries no
            :data:`METADATA_KEY` header.
    """
    try:
        with np.load(path) as archive:
            # A missing header is a KeyError, reported like any unreadable archive.
            return json.loads(bytes(archive[METADATA_KEY]).decode("utf-8"))
    except (zipfile.BadZipFile, OSError, ValueError, KeyError) as error:
        raise ParameterMismatchError(
            f"cannot read parameter archive {os.fspath(path)!r}: {error}"
        ) from error


def load_parameters(module: Module, path: str | os.PathLike) -> None:
    """Load parameters saved by :func:`save_parameters` into ``module``.

    The archive is validated against ``module`` *before* anything is
    assigned: every parameter the module owns must be present, nothing extra
    may be present, and each entry's shape and dtype must match the target
    parameter (dtype mismatches are rejected rather than silently cast — an
    archive holding float32 weights for a float64 model is a stale or
    foreign artifact, not a representation choice).

    Raises:
        ParameterMismatchError: naming every missing / unexpected /
            mismatched parameter, or describing an unreadable (or
            header-less) archive.
    """
    try:
        with np.load(path) as archive:
            if METADATA_KEY not in archive.files:
                raise KeyError(f"no {METADATA_KEY} header")
            names = [name for name in archive.files if name != METADATA_KEY]
            state: Mapping[str, np.ndarray] = {name: archive[name] for name in names}
    except (zipfile.BadZipFile, OSError, ValueError, KeyError) as error:
        raise ParameterMismatchError(
            f"cannot read parameter archive {os.fspath(path)!r}: {error}"
        ) from error
    expected = _module_spec(module)
    missing = sorted(set(expected) - set(state))
    unexpected = sorted(set(state) - set(expected))
    problems: list[str] = []
    if missing:
        problems.append(f"missing parameter(s) {missing}")
    if unexpected:
        problems.append(f"unexpected parameter(s) {unexpected}")
    for name in sorted(set(expected) & set(state)):
        spec = expected[name]
        value = state[name]
        if list(value.shape) != spec["shape"]:
            problems.append(
                f"parameter {name!r} has shape {tuple(spec['shape'])}, "
                f"archive provides {tuple(value.shape)}"
            )
        elif str(value.dtype) != spec["dtype"]:
            problems.append(
                f"parameter {name!r} has dtype {spec['dtype']}, "
                f"archive provides {value.dtype}"
            )
    if problems:
        raise ParameterMismatchError(
            f"parameter archive {os.fspath(path)!r} does not match the target "
            f"module: " + "; ".join(problems)
        )
    module.load_state_dict(dict(state))
