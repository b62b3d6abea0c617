"""The parameter archive format, pinned by digest.

``save_parameters`` writes one array per parameter plus a JSON metadata
header (:func:`repro.nn.serialization.read_parameter_metadata`).  Saved
bundles are read back by later code, so the parameter names, their order,
shapes and dtypes, the format version and the He-initialised values of a
seed-fixed model must not drift when the module classes are rewritten.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.mscn import MSCNConfig, MSCNModel
from repro.core.crn import CRNConfig, CRNModel
from repro.nn.serialization import METADATA_KEY, read_parameter_metadata, save_parameters


def crn_model():
    return CRNModel(10, CRNConfig(hidden_size=8, seed=3))


def mscn_model():
    return MSCNModel(6, 4, 9, MSCNConfig(hidden_size=8, seed=2))


MODELS = {"crn": crn_model, "mscn": mscn_model}

#: sha256 of the metadata header as ``json.dumps(..., sort_keys=True)``, and
#: over every archived array's name, dtype, shape and bytes in archive order.
#: Computed at commit af6878b, while the models still held autodiff tensors.
PINNED_METADATA_DIGESTS = {
    "crn": "d24de94929627a27527747812e5144ffa275c3c958a002f80e09a7232f1d29f2",
    "mscn": "a029fb97f3fa31f4df8f95c8fc8982359fcf3e9e35e0b0811a4bedf173c714b6",
}
PINNED_ARRAY_DIGESTS = {
    "crn": "0ab0349ad4914b9e8d48b3713c32a08e44277495e1de12f7a1f6c1a5f0a39006",
    "mscn": "78881f92fbe7055461ce7a6fa575bb566da210bcd8dcf5951c2e8db2ef3bd244",
}


@pytest.fixture(params=sorted(MODELS))
def archive(request, tmp_path):
    path = tmp_path / f"{request.param}.npz"
    save_parameters(MODELS[request.param](), path)
    return request.param, path


def test_metadata_header_matches_the_pinned_digest(archive):
    name, path = archive
    metadata = read_parameter_metadata(path)
    assert metadata["format_version"] == 1
    assert metadata["parameter_count"] == len(metadata["parameters"])
    digest = hashlib.sha256(json.dumps(metadata, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_METADATA_DIGESTS[name]


def test_archived_arrays_match_the_pinned_digest(archive):
    name, path = archive
    digest = hashlib.sha256()
    with np.load(path) as arrays:
        names = [key for key in arrays.files if key != METADATA_KEY]
        assert names == list(read_parameter_metadata(path)["parameters"])
        for key in names:
            value = arrays[key]
            digest.update(f"{key} {value.dtype} {value.shape}\n".encode())
            digest.update(value.tobytes())
    assert digest.hexdigest() == PINNED_ARRAY_DIGESTS[name]
