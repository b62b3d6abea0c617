"""The versioned artifact store: bundles, corruption, cold boot, rollback.

Covers the durability contract end to end:

* manifest schema validation (unknown/missing fields, bad generations);
* store semantics (atomic ``latest`` pointer, promote/rollback symmetry);
* corruption handling — a bit-flipped, truncated, or torn bundle raises a
  typed :class:`ArtifactChecksumError` / :class:`ArtifactNotFoundError`,
  never a silent partial boot;
* :class:`repro.serving.ServingConfig` round-trip through the on-disk
  bundle for **every** section, with unknown-field rejection intact;
* cold boot via :meth:`repro.serving.ServingClient.from_artifact` —
  bit-identical estimates, continuous ``model_generation`` provenance,
  adaptation downgrade without a training result;
* the promote pipeline — an adaptation-accepted model survives client
  shutdown, and ``artifact_tool.py rollback`` restores the prior
  generation;
* the artifact lifecycle on the observability record.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import (
    BUNDLE_FILES,
    ArtifactManifest,
    ArtifactStore,
    file_digest,
    load_bundle,
    query_from_mapping,
    query_to_mapping,
)
from repro.artifacts.schema import MANIFEST_FILENAME
from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, CRNModel, QueriesPool, TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.serving import (
    AdaptationConfig,
    ArtifactChecksumError,
    ArtifactConfig,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    CacheConfig,
    DispatcherConfig,
    FeedbackConfig,
    InferenceConfig,
    ObservabilityConfig,
    PoolConfig,
    ServingClient,
    ServingConfig,
    ServingError,
    TracingConfig,
)
from repro.serving.client import upgrade_saved_config
from repro.serving.config import _SECTION_SPECS

TOOL_PATH = Path(__file__).parent.parent / "scripts" / "artifact_tool.py"
_spec = importlib.util.spec_from_file_location("artifact_tool", TOOL_PATH)
artifact_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_tool)


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=40, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    return build_queries_pool_queries(imdb_small, count=12, seed=23, oracle=imdb_oracle)


@pytest.fixture(scope="module")
def model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))


@pytest.fixture(scope="module")
def trained(imdb_small, imdb_featurizer, imdb_oracle):
    pairs = build_training_pairs(imdb_small, count=60, seed=12, oracle=imdb_oracle)
    return train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=TrainingConfig(epochs=2, batch_size=32),
    )


def make_config(model, imdb_small, imdb_featurizer, pool, **overrides):
    defaults = dict(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def save_generation(store, model, pool, config, generation=1, **kwargs):
    kwargs.setdefault("source", "build")
    return store.save(
        model=model,
        pool=pool,
        config_mapping=config.to_mapping(),
        generation=generation,
        **kwargs,
    )


def rehash(bundle_dir: Path, name: str) -> None:
    """Update the manifest's digest for ``name`` after a deliberate edit."""
    manifest_path = bundle_dir / MANIFEST_FILENAME
    raw = json.loads(manifest_path.read_text())
    digest = file_digest(bundle_dir / name)
    raw["files"][name] = {"sha256": digest.sha256, "size_bytes": digest.size_bytes}
    manifest_path.write_text(json.dumps(raw))


class TestManifestSchema:
    def test_round_trip(self, tmp_path, model, imdb_small, imdb_featurizer, pool):
        store = ArtifactStore(tmp_path)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        manifest = save_generation(store, model, pool, config)
        rebuilt = ArtifactManifest.from_mapping(
            json.loads(json.dumps(manifest.to_mapping()))
        )
        assert rebuilt == manifest
        assert set(manifest.files) == set(BUNDLE_FILES)

    def test_unknown_and_missing_fields_rejected(self):
        base = {
            "format_version": 1,
            "generation": 1,
            "created_unix": 0.0,
            "source": "build",
            "model": {
                "vector_size": 4, "hidden_size": 2, "pooling": "average",
                "use_expand": True, "seed": 0,
            },
            "files": {"model.npz": {"sha256": "0" * 64, "size_bytes": 1}},
        }
        ArtifactManifest.from_mapping(base)  # valid
        with pytest.raises(ArtifactSchemaError, match="unknown manifest field"):
            ArtifactManifest.from_mapping({**base, "compression": "zstd"})
        with pytest.raises(ArtifactSchemaError, match="missing required field"):
            ArtifactManifest.from_mapping({k: v for k, v in base.items() if k != "files"})
        with pytest.raises(ArtifactSchemaError, match="model section"):
            ArtifactManifest.from_mapping({**base, "model": {"vector_size": 4}})
        with pytest.raises(ArtifactSchemaError, match="format_version"):
            ArtifactManifest.from_mapping({**base, "format_version": 99})
        with pytest.raises(ArtifactSchemaError, match="positive"):
            ArtifactManifest.from_mapping({**base, "generation": 0})
        with pytest.raises(ArtifactSchemaError, match="cannot list itself"):
            ArtifactManifest.from_mapping(
                {**base, "files": {MANIFEST_FILENAME: {"sha256": "0" * 64, "size_bytes": 1}}}
            )

    def test_query_structural_round_trip(self, pool):
        for entry in pool:
            mapping = json.loads(json.dumps(query_to_mapping(entry.query)))
            assert query_from_mapping(mapping) == entry.query
        with pytest.raises(ArtifactSchemaError, match="invalid pool query record"):
            query_from_mapping({"joins": []})

    @pytest.mark.parametrize(
        "record",
        [
            {"joins": []},
            {"tables": None},
            {"tables": []},
            {"tables": [["title"]]},
            {"tables": [["", "t"]]},
            {"tables": [["title", "t"], ["movie_companies", "t"]]},
            {"tables": [["title", "t"]], "joins": [["t", "id", "mc"]]},
            {"tables": [["title", "t"]], "joins": [["t", "id", "t", ""]]},
            {"tables": [["title", "t"]], "joins": [[1, "id", "t", "kind_id"]]},
            {"tables": [["title", "t"]], "joins": [["t", "id", "mc", "movie_id"]]},
            {"tables": [["title", "t"]], "predicates": [["t", "year", ">=", 1]]},
            {"tables": [["title", "t"]], "predicates": [["t", "year", ">", "x"]]},
            {"tables": [["title", "t"]], "predicates": [["t", "year", ">", None]]},
            {"tables": [["title", "t"]], "predicates": [["t", "year", ">", float("nan")]]},
            {"tables": [["title", "t"]], "predicates": [["", "year", ">", 1]]},
            {"tables": [["title", "t"]], "predicates": [["mc", "id", "=", 1]]},
            {"tables": [["title", "t"]], "predicates": [["t", "year", ">"]]},
        ],
    )
    def test_malformed_query_record_is_a_schema_error(self, record):
        with pytest.raises(ArtifactSchemaError, match="invalid pool query record"):
            query_from_mapping(record)


class TestStoreSemantics:
    def test_save_load_round_trip(self, tmp_path, model, imdb_small, imdb_featurizer, pool):
        store = ArtifactStore(tmp_path)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        save_generation(store, model, pool, config, promote=True)
        bundle = store.load()
        assert bundle.manifest.generation == 1
        assert list(bundle.pool) == list(pool)
        for restored, original in zip(
            bundle.model.parameters(), model.parameters(), strict=True
        ):
            np.testing.assert_array_equal(restored.data, original.data)

    def test_pointer_promote_rollback_symmetry(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool
    ):
        store = ArtifactStore(tmp_path)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        assert store.latest() is None
        save_generation(store, model, pool, config, generation=1, promote=True)
        save_generation(
            store, model, pool, config, generation=2, source="promote", promote=True
        )
        assert store.pointer() == {"generation": 2, "previous": 1}
        assert store.generations() == [1, 2]
        store.rollback()
        assert store.pointer() == {"generation": 1, "previous": 2}
        store.rollback()  # symmetric: rolling back twice returns
        assert store.pointer() == {"generation": 2, "previous": 1}
        assert store.generations() == [1, 2]  # no bundle was deleted

    def test_load_unpromoted_and_rollback_without_previous(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool
    ):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactNotFoundError, match="empty latest pointer"):
            store.load()
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        save_generation(store, model, pool, config, promote=True)
        with pytest.raises(ArtifactNotFoundError, match="no recorded previous"):
            store.rollback()
        with pytest.raises(ArtifactNotFoundError, match="no artifact bundle"):
            store.load(7)

    def test_artifact_errors_are_serving_errors(self, tmp_path):
        with pytest.raises(ServingError):
            ArtifactStore(tmp_path).load()


class TestCorruption:
    @pytest.fixture()
    def saved(self, tmp_path, model, imdb_small, imdb_featurizer, pool):
        store = ArtifactStore(tmp_path)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        save_generation(store, model, pool, config, promote=True)
        return store

    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_bit_flip_refuses_to_load(self, saved, name):
        path = saved.path(1) / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactChecksumError, match=name):
            saved.load(1)
        with pytest.raises(ArtifactChecksumError, match=name):
            saved.verify(1)

    def test_truncation_names_the_file(self, saved):
        path = saved.path(1) / "model.npz"
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(ArtifactChecksumError, match="truncated or torn"):
            saved.load(1)

    def test_missing_listed_file_is_a_checksum_failure(self, saved):
        (saved.path(1) / "pool.json").unlink()
        with pytest.raises(ArtifactChecksumError, match="missing"):
            saved.load(1)

    @pytest.mark.parametrize("cardinality", ["NaN", "Infinity", "-1", "1e400"])
    def test_non_finite_pool_cardinality_is_a_schema_error(self, saved, cardinality):
        # A hand-edited (then rehashed) pool.json: Python's json reads NaN
        # and Infinity, and a bucket holding them served a NaN or inf estimate.
        path = saved.path(1) / "pool.json"
        payload = json.loads(path.read_text())
        payload["entries"][0]["cardinality"] = "@"
        path.write_text(json.dumps(payload).replace('"@"', cardinality))
        rehash(saved.path(1), "pool.json")
        with pytest.raises(ArtifactSchemaError, match="invalid pool entry record"):
            saved.load(1)

    def test_torn_save_has_no_manifest_and_never_validates(self, saved):
        (saved.path(1) / MANIFEST_FILENAME).unlink()
        with pytest.raises(ArtifactNotFoundError):
            load_bundle(saved.path(1))
        assert saved.generations() == []  # not even enumerated

    def test_corrupt_generation_cannot_be_promoted(self, saved):
        path = saved.path(1) / "model.npz"
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactChecksumError):
            saved.promote(1)

    def test_weights_architecture_mismatch_is_schema_error(self, saved, imdb_featurizer):
        # Valid bytes, wrong contents: a weights archive saved from a
        # different architecture passes its checksum but must not half-load.
        from repro.nn.serialization import save_parameters

        other = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=4, seed=5))
        save_parameters(other, saved.path(1) / "model.npz")
        rehash(saved.path(1), "model.npz")
        with pytest.raises(ArtifactSchemaError, match="architecture"):
            saved.load(1)


class TestConfigRoundTrip:
    def test_every_section_survives_the_bundle(
        self, tmp_path, trained, imdb_small, imdb_featurizer, pool, imdb_oracle
    ):
        # Non-default values in every section, so defaults can't mask a
        # dropped field.
        config = make_config(
            trained.model,
            imdb_small,
            imdb_featurizer,
            pool,
            training_result=trained,
            database=imdb_small,
            oracle=imdb_oracle,
            pool_options=PoolConfig(warm=True),
            caches=CacheConfig(max_featurization_entries=64),
            dispatcher=DispatcherConfig(enabled=False, max_batch=8),
            feedback=FeedbackConfig(enabled=True, max_observations=48),
            adaptation=AdaptationConfig(
                enabled=True, quantile=0.75, min_observations=8, seed=11
            ),
            observability=ObservabilityConfig(enabled=True, capacity=4096, source="rt"),
            tracing=TracingConfig(enabled=True, sample_every=4),
            inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
            artifacts=ArtifactConfig(root=str(tmp_path)),
        )
        store = ArtifactStore(tmp_path)
        save_generation(store, trained.model, pool, config, promote=True)
        bundle = store.load()
        # The on-disk mapping is exactly the JSON round-trip of to_mapping.
        assert bundle.config_mapping == json.loads(json.dumps(config.to_mapping()))
        rebuilt = ServingConfig.from_mapping(
            bundle.config_mapping,
            model=bundle.model,
            featurizer=imdb_featurizer,
            pool=bundle.pool,
            fallback_estimator=config.fallback_estimator,
            training_result=trained,
            database=imdb_small,
            oracle=imdb_oracle,
        )
        # Section-by-section over the spec table, so a future section added
        # to ServingConfig is automatically covered by this test.
        assert len(_SECTION_SPECS) >= 10
        for _, _, attribute in _SECTION_SPECS:
            assert getattr(rebuilt, attribute) == getattr(config, attribute), attribute

    def test_unknown_field_rejection_survives_the_bundle(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool
    ):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        save_generation(store, model, pool, config, promote=True)
        # Doctor the on-disk config (and re-hash it, so the checksum layer
        # passes): the *schema* layer must still reject the unknown field.
        config_path = store.path(1) / "config.json"
        doctored = json.loads(config_path.read_text())
        doctored["caches"]["max_featurization_entry"] = 512
        config_path.write_text(json.dumps(doctored))
        rehash(store.path(1), "config.json")
        store.verify(1)  # checksums pass...
        with pytest.raises(ValueError, match="unknown field"):
            ServingClient.from_artifact(root, database=imdb_small)


    def test_saved_float_max_batch_is_a_schema_error(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool
    ):
        # A bundle saved before integer fields were type-checked can carry a
        # float; booting it used to succeed and fail every estimate.
        root = tmp_path / "store"
        store = ArtifactStore(root)
        mapping = make_config(model, imdb_small, imdb_featurizer, pool).to_mapping()
        mapping["dispatcher"]["max_batch"] = 2.5
        store.save(
            model=model, pool=pool, config_mapping=mapping, generation=1,
            source="build", promote=True,
        )
        with pytest.raises(ArtifactSchemaError, match="max_batch"):
            ServingClient.from_artifact(root, database=imdb_small)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("adaptation", "cooldown_seconds", "5"),
            ("adaptation", "quantile", True),
            ("dispatcher", "enabled", "false"),
        ],
    )
    def test_saved_mistyped_value_is_a_schema_error(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, section, key, value
    ):
        # A string number failed the range check with a TypeError that
        # escaped the schema check, True passed as 1, and a saved "false"
        # switched its section on.
        root = tmp_path / "store"
        store = ArtifactStore(root)
        mapping = make_config(model, imdb_small, imdb_featurizer, pool).to_mapping()
        mapping[section][key] = value
        store.save(
            model=model, pool=pool, config_mapping=mapping, generation=1,
            source="build", promote=True,
        )
        with pytest.raises(ArtifactSchemaError, match=key):
            ServingClient.from_artifact(root, database=imdb_small)

    def test_saved_section_that_is_not_an_object_is_a_schema_error(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, capsys
    ):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        mapping = make_config(model, imdb_small, imdb_featurizer, pool).to_mapping()
        mapping["caches"] = [64]
        store.save(
            model=model, pool=pool, config_mapping=mapping, generation=1,
            source="build", promote=True,
        )
        with pytest.raises(ArtifactSchemaError, match="'caches' must be a JSON object") as refused:
            ServingClient.from_artifact(root, database=imdb_small)
        capsys.readouterr()
        assert artifact_tool.main(["verify", str(root)]) == artifact_tool.EXIT_CORRUPT
        assert capsys.readouterr().err == f"error: gen-1: {refused.value}\n"


class TestRetiredConfigKeys:
    """What a boot does with each field a saved config.json may still carry."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pool", "use_index", False),
            ("dispatcher", "max_wait_ms", 5.0),
            ("inference", "tolerance", 1e-2),
            ("artifacts", "save_on_build", False),
            ("artifacts", "save_on_promote", False),
            ("artifacts", "promote_on_save", False),
            ("adaptation", "warm_on_swap", False),
            ("tracing", "tail_quantile", 0.5),
            ("tracing", "min_tail_observations", 4),
            ("feedback", "epsilon", 0.5),
            ("cluster", "connect_timeout_seconds", 1.0),
            ("cluster", "retry_backoff_seconds", 0.0),
            ("cluster", "deadline_grace_seconds", 2.0),
        ],
    )
    def test_field_that_changed_no_estimate_is_dropped_at_any_value(
        self, section, key, value
    ):
        saved = {section: {key: value}, "caches": {"max_featurization_entries": 8}}
        upgraded = upgrade_saved_config(saved)
        assert key not in upgraded.get(section, {})
        assert upgraded["caches"] == {"max_featurization_entries": 8}
        assert saved[section] == {key: value}  # the saved mapping is not edited

    @pytest.mark.parametrize(
        "key, served, other",
        [
            ("name", "crn", "crn-v2"),
            ("fallback_name", "fallback", "postgres"),
            ("final_function", "median", "trimmed_mean"),
            ("epsilon", 1e-3, 1e-2),
            ("batch_size", 16, 256),
        ],
    )
    def test_estimator_field_is_dropped_only_at_its_served_value(self, key, served, other):
        assert upgrade_saved_config({"estimator": {key: served}}) == {}
        with pytest.raises(ArtifactSchemaError, match=rf"estimator\.{key} = "):
            upgrade_saved_config({"estimator": {key: other}})


class TestColdBoot:
    def test_bit_identical_estimates_and_continuous_provenance(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        root = tmp_path / "store"
        config = make_config(
            model,
            imdb_small,
            imdb_featurizer,
            pool,
            inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
            artifacts=ArtifactConfig(root=str(root)),
        )
        client = ServingClient(config)
        expected = [client.estimate(item.query) for item in workload]
        client.shutdown()
        booted = ServingClient.from_artifact(
            root,
            database=imdb_small,
            fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        )
        restored = [booted.estimate(item.query) for item in workload]
        assert [r.estimate for r in restored] == [e.estimate for e in expected]
        # Provenance is continuous: the restored stack stamps the snapshot's
        # generation, and resolution paths (index, plan) rebuilt identically.
        assert [r.model_generation for r in restored] == [
            e.model_generation for e in expected
        ]
        assert [r.resolution for r in restored] == [e.resolution for e in expected]
        # Recompiled on boot.
        assert booted.stack.estimator.containment_estimator.inference_plan is not None
        assert booted.artifact_store is not None  # the booted store is wired
        assert booted.artifact_store.root == root
        booted.shutdown()

    def test_boot_compiles_the_plan_under_the_restored_generation(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        # The plan is compiled while the stack is built, so the build must
        # already serve the restored generation: stamping it afterwards
        # filed the boot's plan_compile under generation 1.
        root = tmp_path / "store"
        config = make_config(
            model,
            imdb_small,
            imdb_featurizer,
            pool,
            inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
            observability=ObservabilityConfig(enabled=True),
        )
        save_generation(ArtifactStore(root), model, pool, config, generation=3, promote=True)
        booted = ServingClient.from_artifact(root, database=imdb_small)
        query = next(item.query for item in workload if pool.has_match(item.query))
        assert booted.estimate(query).model_generation == 3
        (compiled,) = [
            item.event
            for item in booted.recorder.flush()
            if item.event.kind == "plan_compile"
        ]
        assert compiled.generation == 3
        (row,) = booted.event_store.plan_history()
        assert (row["kind"], row["model_generation"]) == ("plan_compile", 3)
        booted.shutdown()

    @pytest.mark.parametrize("use_index", [True, False])
    def test_bundle_from_before_use_index_was_retired_still_boots(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload, use_index
    ):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        client = ServingClient(config)
        expected = [client.estimate(item.query).estimate for item in workload]
        client.shutdown()
        save_generation(store, model, pool, config, promote=True)
        # Earlier builds always wrote pool.use_index and the dispatcher's
        # straggler window (dispatcher.max_wait_ms) into config.json.
        config_path = store.path(1) / "config.json"
        parent_format = json.loads(config_path.read_text())
        parent_format["pool"]["use_index"] = use_index
        parent_format["dispatcher"]["max_wait_ms"] = 1.0
        config_path.write_text(json.dumps(parent_format))
        rehash(store.path(1), "config.json")
        booted = ServingClient.from_artifact(root, database=imdb_small)
        assert [booted.estimate(item.query).estimate for item in workload] == expected
        assert "use_index" not in booted.config.to_mapping()["pool"]
        assert booted.config.to_mapping()["dispatcher"] == {
            "enabled": True,
            "max_batch": 64,
        }
        booted.shutdown()

    def test_bundle_from_before_the_estimator_section_was_retired_still_boots(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        root = tmp_path / "store"
        config = make_config(
            model, imdb_small, imdb_featurizer, pool,
            artifacts=ArtifactConfig(root=str(root)),
        )
        client = ServingClient(config)  # saves generation 1 at build
        expected = [client.estimate(item.query).estimate for item in workload]
        client.shutdown()
        # Earlier builds wrote these fifteen fields, at these defaults, into
        # every config.json.
        config_path = root / "gen-1" / "config.json"
        parent_format = json.loads(config_path.read_text())
        parent_format["estimator"] = {
            "name": "crn",
            "fallback_name": "fallback",
            "final_function": "median",
            "epsilon": 1e-3,
            "batch_size": 16,
        }
        parent_format["artifacts"].update(
            save_on_build=True, save_on_promote=True, promote_on_save=True
        )
        parent_format["tracing"].update(tail_quantile=0.95, min_tail_observations=32)
        parent_format["feedback"]["epsilon"] = 1.0
        parent_format["adaptation"]["warm_on_swap"] = True
        parent_format["cluster"].update(
            connect_timeout_seconds=5.0, retry_backoff_seconds=0.05, deadline_grace_seconds=0.5
        )
        config_path.write_text(json.dumps(parent_format))
        rehash(root / "gen-1", "config.json")
        assert artifact_tool.main(["verify", str(root)]) == 0
        fallback = PostgresCardinalityEstimator(imdb_small)
        booted = ServingClient.from_artifact(root, database=imdb_small, fallback_estimator=fallback)
        assert [booted.estimate(item.query).estimate for item in workload] == expected
        assert booted.config.to_mapping() == {
            **config.to_mapping(),
            "artifacts": {"root": str(root)},
        }
        assert booted.service.fallback is fallback
        booted.shutdown()

    @pytest.mark.parametrize(
        "key, value", [("final_function", "mean"), ("batch_size", 256)]
    )
    def test_retired_estimator_value_that_changes_estimates_is_refused(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, key, value, capsys
    ):
        # A mean-collapsed bundle, or one saved when pair-head passes were
        # 256 rows, would not serve the estimates it was saved with.
        root = tmp_path / "store"
        store = ArtifactStore(root)
        mapping = make_config(model, imdb_small, imdb_featurizer, pool).to_mapping()
        mapping["estimator"] = {key: value}
        store.save(
            model=model, pool=pool, config_mapping=mapping, generation=1,
            source="build", promote=True,
        )
        with pytest.raises(ArtifactSchemaError, match=rf"estimator\.{key}") as refused:
            ServingClient.from_artifact(root, database=imdb_small)
        capsys.readouterr()
        assert artifact_tool.main(["verify", str(root)]) == artifact_tool.EXIT_CORRUPT
        assert capsys.readouterr().err == f"error: gen-1: {refused.value}\n"

    def test_bundle_that_staged_saves_without_promoting_still_boots(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        client = ServingClient(config)
        expected = [client.estimate(item.query).estimate for item in workload]
        client.shutdown()
        mapping = config.to_mapping()
        # A switch that changed no estimate: its saved value is dropped.
        mapping["artifacts"]["promote_on_save"] = False
        store.save(
            model=model, pool=pool, config_mapping=mapping, generation=1,
            source="build", promote=True,
        )
        booted = ServingClient.from_artifact(root, database=imdb_small)
        assert [booted.estimate(item.query).estimate for item in workload] == expected
        assert booted.config.to_mapping()["artifacts"] == {"root": str(root)}
        booted.shutdown()

    def test_bundle_from_before_tolerance_was_retired_still_boots(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        inference = InferenceConfig(mode="compiled", slab_dtype="float32")
        config = make_config(model, imdb_small, imdb_featurizer, pool, inference=inference)
        client = ServingClient(config)
        expected = [client.estimate(item.query).estimate for item in workload]
        client.shutdown()
        save_generation(store, model, pool, config, promote=True)
        # Earlier builds always wrote inference.tolerance, which no
        # computation read, into config.json.
        config_path = store.path(1) / "config.json"
        parent_format = json.loads(config_path.read_text())
        parent_format["inference"]["tolerance"] = 2e-3
        config_path.write_text(json.dumps(parent_format))
        rehash(store.path(1), "config.json")
        booted = ServingClient.from_artifact(root, database=imdb_small)
        assert [booted.estimate(item.query).estimate for item in workload] == expected
        assert booted.config.inference == inference
        assert booted.stack.estimator.containment_estimator.inference_plan is not None
        assert "tolerance" not in booted.config.to_mapping()["inference"]
        booted.shutdown()

    def test_bundle_from_before_compiled_float64_was_retired_boots_as_reference(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        client = ServingClient(config)
        expected = [client.estimate(item.query).estimate for item in workload]
        client.shutdown()
        save_generation(store, model, pool, config, promote=True)
        # Earlier builds could save the compiled float64 plan, which was
        # bit-identical to the reference path.
        config_path = store.path(1) / "config.json"
        parent_format = json.loads(config_path.read_text())
        parent_format["inference"].update(mode="compiled", slab_dtype="float64")
        config_path.write_text(json.dumps(parent_format))
        rehash(store.path(1), "config.json")
        booted = ServingClient.from_artifact(root, database=imdb_small)
        assert [booted.estimate(item.query).estimate for item in workload] == expected
        assert booted.config.inference == InferenceConfig()
        assert booted.stack.estimator.containment_estimator.inference_plan is None
        booted.shutdown()

    def test_wrong_database_is_rejected(self, tmp_path, model, toy_database,
                                        imdb_small, imdb_featurizer, pool):
        root = tmp_path / "store"
        config = make_config(
            model, imdb_small, imdb_featurizer, pool,
            artifacts=ArtifactConfig(root=str(root)),
        )
        ServingClient(config).shutdown()
        with pytest.raises(ArtifactSchemaError, match="wrong database"):
            ServingClient.from_artifact(root, database=toy_database)

    def test_adaptation_downgrades_without_training_result(
        self, tmp_path, trained, imdb_small, imdb_featurizer, pool, imdb_oracle
    ):
        root = tmp_path / "store"
        config = make_config(
            trained.model, imdb_small, imdb_featurizer, pool,
            training_result=trained,
            database=imdb_small,
            feedback=FeedbackConfig(enabled=True, max_observations=32),
            adaptation=AdaptationConfig(enabled=True, min_observations=4),
            artifacts=ArtifactConfig(root=str(root)),
        )
        client = ServingClient(config)
        assert client.manager is not None
        client.shutdown()
        # Without the TrainingResult a mapping cannot carry, the boot serves
        # read-only instead of refusing.
        booted = ServingClient.from_artifact(root, database=imdb_small)
        assert booted.manager is None
        with pytest.raises(ServingError, match="adaptation is not enabled"):
            booted.trigger_adaptation()
        # Re-supplying the training result keeps adaptation alive.
        readapting = ServingClient.from_artifact(
            root, database=imdb_small, training_result=trained
        )
        assert readapting.manager is not None
        readapting.shutdown()
        booted.shutdown()


class TestPromotePipeline:
    @pytest.fixture(scope="class")
    def episode(self, tmp_path_factory, trained, imdb_small, imdb_featurizer,
                imdb_oracle, pool, workload):
        """One adaptation episode: build, feedback, forced swap, shutdown."""
        root = tmp_path_factory.mktemp("promote") / "store"
        config = make_config(
            trained.model, imdb_small, imdb_featurizer, pool,
            training_result=trained,
            database=imdb_small,
            oracle=imdb_oracle,
            feedback=FeedbackConfig(enabled=True, max_observations=64),
            adaptation=AdaptationConfig(
                enabled=True,
                min_observations=4,
                holdout_size=4,
                accept_ratio=100.0,  # the episode tests persistence, not the gate
                training_pairs=30,
                incremental_epochs=1,
                full_epochs=1,
                seed=7,
            ),
            artifacts=ArtifactConfig(root=str(root)),
        )
        client = ServingClient(config)
        baseline = [client.estimate(item.query).estimate for item in workload]
        for item in workload:
            served = client.estimate(item.query)
            client.record_feedback(served, true_cardinality=float(item.cardinality))
        outcome = client.trigger_adaptation()
        assert outcome.action == "swapped", outcome
        promoted = [client.estimate(item.query).estimate for item in workload]
        stats = client.manager.stats_snapshot()
        client.shutdown()
        return {
            "root": root,
            "baseline": baseline,
            "promoted": promoted,
            "stats": stats,
        }

    def test_accepted_candidate_persists_under_its_generation(self, episode):
        store = ArtifactStore(episode["root"])
        assert store.generations() == [1, 2]
        assert store.pointer() == {"generation": 2, "previous": 1}
        assert store.verify(2).source == "promote"
        assert episode["stats"]["artifact_saves"] == 1.0
        assert episode["stats"]["artifact_save_failures"] == 0.0

    def test_promoted_model_survives_restart_bit_for_bit(
        self, episode, imdb_small, workload
    ):
        booted = ServingClient.from_artifact(episode["root"], database=imdb_small)
        assert booted.service.generation == 2
        restored = [booted.estimate(item.query).estimate for item in workload]
        assert restored == episode["promoted"]
        assert restored != episode["baseline"]  # really the adapted model
        booted.shutdown()

    def test_rollback_restores_the_prior_generation(
        self, episode, imdb_small, workload
    ):
        # Operator rollback through the CLI, exactly as documented.
        assert artifact_tool.main(["rollback", str(episode["root"])]) == 0
        try:
            booted = ServingClient.from_artifact(episode["root"], database=imdb_small)
            assert booted.service.generation == 1
            restored = [booted.estimate(item.query).estimate for item in workload]
            assert restored == episode["baseline"]
            booted.shutdown()
        finally:
            # Leave the store promoted for other tests in the class.
            assert artifact_tool.main(["rollback", str(episode["root"])]) == 0

    def test_artifact_tool_inspect_and_verify(self, episode, capsys):
        assert artifact_tool.main(["inspect", str(episode["root"]), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pointer"]["generation"] == 2
        assert [row["generation"] for row in payload["generations"]] == [1, 2]
        assert artifact_tool.main(["verify", str(episode["root"])]) == 0
        assert artifact_tool.main(["verify", str(episode["root"]), "--generation", "1"]) == 0
        assert artifact_tool.main(["verify", str(episode["root"]), "--generation", "9"]) == 2
        assert artifact_tool.main(["inspect", "/no/such/store"]) == 2

    def test_artifact_tool_flags_corruption(self, episode, tmp_path):
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(episode["root"], copy)
        target = copy / "gen-2" / "model.npz"
        data = bytearray(target.read_bytes())
        data[50] ^= 0xFF
        target.write_bytes(bytes(data))
        assert artifact_tool.main(["verify", str(copy)]) == 3
        assert artifact_tool.main(["promote", str(copy), "2"]) == 3


class TestObservabilityRecord:
    def test_lifecycle_lands_in_generation_views(
        self, tmp_path, model, imdb_small, imdb_featurizer, pool, workload
    ):
        event_db = tmp_path / "events.sqlite"
        root = tmp_path / "store"
        config = make_config(
            model, imdb_small, imdb_featurizer, pool,
            observability=ObservabilityConfig(enabled=True, sqlite_path=str(event_db)),
            artifacts=ArtifactConfig(root=str(root)),
        )
        client = ServingClient(config)
        for item in workload[:3]:
            client.estimate(item.query)
        client.shutdown()
        booted = ServingClient.from_artifact(root, database=imdb_small)
        booted.estimate(workload[0].query)
        booted.shutdown()

        from repro.observability import EventStore

        with EventStore(str(event_db)) as story:
            counts = story.counts()
            assert counts.get("artifact_saved") == 1
            assert counts.get("artifact_promoted") == 1
            assert counts.get("artifact_loaded") == 1
            history = story.artifact_history()
            assert [row["kind"] for row in history] == [
                "artifact_saved", "artifact_promoted", "artifact_loaded",
            ]
            assert {row["model_generation"] for row in history} == {1}
            provenance = story.generation_provenance()
            row = next(r for r in provenance if r["model_generation"] == 1)
            assert row["requests_served"] == 4  # 3 before + 1 after the boot
            assert row["artifacts_saved"] == 1
            assert row["artifacts_loaded"] == 1
