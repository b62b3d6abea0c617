"""Snapshot tests of the exported serving API surface.

The serving package is the repo's public face: examples, benchmarks, and the
docs all program against it.  These tests pin the exported names and the
field layout of the client-facing types, so a future PR that changes the
public API does it **deliberately** — by updating the snapshot here alongside
the docs — instead of by accident.
"""

from __future__ import annotations

import inspect

import repro.serving as serving
from repro.serving import EstimateResult, RequestOptions, ServingClient
from repro.serving.config import (
    AdaptationConfig,
    ArtifactConfig,
    CacheConfig,
    ClusterConfig,
    DispatcherConfig,
    FeedbackConfig,
    InferenceConfig,
    ObservabilityConfig,
    PoolConfig,
    ServingConfig,
    TracingConfig,
)

EXPECTED_SERVING_ALL = [
    "AdaptationConfig",
    "AdaptationManager",
    "AdaptationOutcome",
    "ArtifactChecksumError",
    "ArtifactConfig",
    "ArtifactError",
    "ArtifactNotFoundError",
    "ArtifactSchemaError",
    "CacheConfig",
    "ClusterConfig",
    "ClusterError",
    "ClusterProtocolError",
    "DeadlineExceededError",
    "DispatcherConfig",
    "DispatcherShutdownError",
    "DriftMonitor",
    "DriftVerdict",
    "EncodingCache",
    "EstimateResult",
    "EstimationService",
    "FeaturizationCache",
    "FeedbackCollector",
    "FeedbackConfig",
    "FeedbackObservation",
    "FeedbackSummary",
    "InferenceConfig",
    "InferencePlan",
    "NoMatchingPoolQueryError",
    "ObservabilityConfig",
    "PoolConfig",
    "PoolEncodingIndex",
    "RequestOptions",
    "ServiceStack",
    "ServingClient",
    "ServingConfig",
    "ServingDispatcher",
    "ServingError",
    "TracingConfig",
    "WorkerUnavailableError",
    "build_service_stack",
    "compile_plan",
]

EXPECTED_ESTIMATE_RESULT_FIELDS = [
    "query",
    "estimate",
    "estimator_name",
    "latency_seconds",
    "pool_matches",
    "pairs_scored",
    "used_fallback",
    "resolution",
    "model_generation",
    "featurization_cache_hits",
    "encoding_cache_hits",
    "tags",
    "queue_wait_seconds",
]

EXPECTED_REQUEST_OPTIONS_FIELDS = [
    "timeout_seconds",
    "tags",
]

EXPECTED_CONFIG_FIELDS = {
    ServingConfig: [
        "model",
        "featurizer",
        "pool",
        "fallback_estimator",
        "training_result",
        "database",
        "oracle",
        "pool_options",
        "caches",
        "dispatcher",
        "feedback",
        "adaptation",
        "observability",
        "tracing",
        "inference",
        "artifacts",
        "cluster",
    ],
    PoolConfig: ["warm"],
    CacheConfig: ["max_featurization_entries", "max_encoding_entries"],
    DispatcherConfig: ["enabled", "max_batch"],
    FeedbackConfig: ["enabled", "max_observations"],
    AdaptationConfig: [
        "enabled",
        "quantile",
        "max_q_error",
        "degradation_ratio",
        "max_row_delta",
        "min_observations",
        "cooldown_seconds",
        "poll_interval_seconds",
        "holdout_size",
        "accept_ratio",
        "max_incremental_failures",
        "training_pairs",
        "incremental_epochs",
        "full_epochs",
        "seed",
    ],
    ObservabilityConfig: ["enabled", "capacity", "sqlite_path", "source"],
    TracingConfig: ["enabled", "sample_every"],
    InferenceConfig: ["mode", "slab_dtype"],
    ArtifactConfig: ["root"],
    ClusterConfig: [
        "mode",
        "num_workers",
        "host",
        "worker_threads",
        "request_timeout_seconds",
        "retry_attempts",
        "boot_timeout_seconds",
        "poll_interval_seconds",
        "max_restarts",
        "drain_timeout_seconds",
        "runtime_dir",
    ],
}

EXPECTED_CLIENT_METHODS = [
    "estimate",
    "estimate_future",
    "estimate_many",
    "from_artifact",
    "record_feedback",
    "shutdown",
    "start",
    "stats",
    "trigger_adaptation",
    "warm",
]


def dataclass_field_names(cls) -> list[str]:
    return [spec.name for spec in cls.__dataclass_fields__.values()]


def test_serving_package_exports_are_pinned():
    assert sorted(serving.__all__) == EXPECTED_SERVING_ALL


def test_every_exported_name_is_importable():
    for name in serving.__all__:
        assert getattr(serving, name) is not None


def test_estimate_result_field_layout():
    assert dataclass_field_names(EstimateResult) == EXPECTED_ESTIMATE_RESULT_FIELDS


def test_request_options_field_layout():
    assert dataclass_field_names(RequestOptions) == EXPECTED_REQUEST_OPTIONS_FIELDS


def test_config_section_field_layout():
    for cls, expected in EXPECTED_CONFIG_FIELDS.items():
        assert dataclass_field_names(cls) == expected, cls.__name__


def test_estimation_service_surface():
    # One served estimator: a swap, two reads, and the request path.
    public = sorted(
        name
        for name, member in inspect.getmembers(serving.EstimationService)
        if not name.startswith("_")
    )
    assert public == [
        "estimator",
        "generation",
        "replace",
        "stats_snapshot",
        "submit",
        "submit_batch",
        "warm",
    ]
    parameters = inspect.signature(serving.EstimationService).parameters
    assert list(parameters) == ["estimator", "generation", "recorder", "tracer"]
    assert all(
        parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
        for name in ("generation", "recorder", "tracer")
    )


def test_client_public_surface():
    methods = sorted(
        name
        for name, member in inspect.getmembers(ServingClient)
        if not name.startswith("_") and (inspect.isfunction(member) or inspect.ismethod(member))
    )
    assert methods == EXPECTED_CLIENT_METHODS
    assert isinstance(ServingClient.started, property)


def test_error_taxonomy_shape():
    assert issubclass(serving.DeadlineExceededError, serving.ServingError)
    assert issubclass(serving.DispatcherShutdownError, serving.ServingError)
    # The Cnt2Crd-native member is re-exported, not re-based.
    from repro.core.cnt2crd import NoMatchingPoolQueryError as core_error

    assert serving.NoMatchingPoolQueryError is core_error
    # Artifact errors: one ServingError clause covers persistence too, and
    # each subtype keeps its stdlib base so generic handlers still work.
    assert issubclass(serving.ArtifactError, serving.ServingError)
    assert issubclass(serving.ArtifactSchemaError, serving.ArtifactError)
    assert issubclass(serving.ArtifactSchemaError, ValueError)
    assert issubclass(serving.ArtifactChecksumError, serving.ArtifactError)
    assert issubclass(serving.ArtifactNotFoundError, serving.ArtifactError)
    assert issubclass(serving.ArtifactNotFoundError, FileNotFoundError)
    # Cluster errors: ServingError subtree with stdlib bases, so the wire
    # boundary raises the same taxonomy callers already catch.
    assert issubclass(serving.ClusterError, serving.ServingError)
    assert issubclass(serving.WorkerUnavailableError, serving.ClusterError)
    assert issubclass(serving.WorkerUnavailableError, ConnectionError)
    assert issubclass(serving.ClusterProtocolError, serving.ClusterError)
    assert issubclass(serving.ClusterProtocolError, ValueError)
