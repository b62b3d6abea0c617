"""Online estimation serving: cross-request batching and featurization caching.

The Cnt2Crd technique (Section 5) answers one query by scoring it against
every matching pool query in both containment directions, so a deployment
serving heavy traffic is dominated by redundant featurization and many small
forward passes.  This package amortizes that work across requests:

* :mod:`repro.serving.cache` -- :class:`FeaturizationCache` (query → feature
  vectors) and :class:`EncodingCache` (query → CRN ``Qvec`` per pair slot)
  for request queries, both with LRU bounds and hit/miss accounting.
* :mod:`repro.serving.pool_index` -- :class:`PoolEncodingIndex`, per-FROM-
  signature contiguous pool-query encoding matrices (one per pair slot),
  maintained incrementally on :meth:`repro.core.queries_pool.QueriesPool.add`
  for one CRN estimator, so a request is scored as one vectorized
  whole-pool slab pass instead of ``2·E`` per-pair lookups.
* :mod:`repro.serving.service` -- :class:`EstimationService`, the engine
  serving one estimator (its model generation bumped on every
  :meth:`~EstimationService.replace` hot swap), ``submit`` / ``submit_batch``
  (a batch's Cnt2Crd work goes through the core routine
  :meth:`repro.core.cnt2crd.Cnt2CrdEstimator.slab_values`: every unique
  ``(query, slab)`` once, a few large fixed-shape forward passes), a
  fallback estimator for
  :class:`repro.core.cnt2crd.NoMatchingPoolQueryError`, per-request
  :class:`RequestOptions` (deadline, tags) and
  provenance-carrying :class:`EstimateResult` responses (resolution path,
  model generation, cache hits), and per-request latency / cache hit-rate
  statistics.
* :mod:`repro.serving.config` -- :class:`ServingConfig`, the frozen,
  validated, dict/JSON-round-trippable description of a whole deployment
  (pool/index, caches, dispatcher, feedback, adaptation, observability,
  tracing, inference, artifact and cluster sections).  The served estimator
  is not a section: it is Cnt2Crd over CRN with the paper's median final
  function, stamped ``"crn"``.
* :mod:`repro.serving.inference_plan` -- :class:`InferencePlan` /
  :func:`compile_plan`, the float32 slab scorer: a fused pair-head kernel
  on frozen float32 copies of the head weights, over the float32 slabs
  :class:`PoolEncodingIndex` keeps for it, under a documented q-error
  bound — enabled through :class:`InferenceConfig` (``mode: compiled``).
* :mod:`repro.serving.stack` -- :func:`build_service_stack`, which wires a
  :class:`ServingConfig` into a :class:`ServiceStack` through the one
  estimator-wiring routine that boot and every adaptation candidate share.
* :mod:`repro.serving.client` -- :class:`ServingClient`, the one-handle
  façade: builds everything a :class:`ServingConfig` enables, owns start and
  shutdown ordering, and exposes ``estimate`` / ``estimate_many`` /
  ``estimate_future`` / ``warm`` / ``record_feedback`` /
  ``trigger_adaptation`` plus one merged ``stats()`` snapshot.
* :mod:`repro.serving.errors` -- the :class:`ServingError` taxonomy
  (:class:`DeadlineExceededError`, :class:`DispatcherShutdownError`, the
  artifact and cluster subtrees, with
  :class:`~repro.core.cnt2crd.NoMatchingPoolQueryError` re-exported).
* :mod:`repro.serving.dispatcher` -- :class:`ServingDispatcher`, the
  thread-safe micro-batching front-end: concurrent callers submit from many
  threads and get futures; one dispatcher thread coalesces their requests
  into shared service batches under the one policy stated in that module's
  docstring (a batch is the backlog at pickup, capped by ``max_batch``).
* :mod:`repro.serving.feedback` -- :class:`FeedbackCollector`, the bounded
  rolling window of ``(query, estimate, true cardinality)`` observations
  with per-estimator q-error quantiles — the signal the adaptation
  subsystem watches.
* :mod:`repro.serving.lifecycle` -- the adaptation subsystem, configured
  by one :class:`AdaptationConfig`: :class:`DriftMonitor` decides when the
  serving model has gone stale (rolling q-error threshold, degradation vs. a
  baseline window, row-count delta), and :class:`AdaptationManager` owns
  the accepted model, pool and database snapshot, retrains in the
  background through :mod:`repro.extensions.updates` (incremental,
  escalating to a retrain from scratch), gates the candidate on a held-out
  feedback slice, and hot-swaps it with ``replace()`` while the dispatcher
  keeps serving; a manual trigger runs a cycle on the caller's thread.  A model's caches and
  index slabs live and die with its estimator, so a swap shares nothing
  between the outgoing and the incoming model.
* :mod:`repro.artifacts` (sibling package) -- the versioned artifact store
  wired in through :class:`ArtifactConfig`: every build and every accepted
  adaptation candidate persists as a checksummed snapshot generation, and
  :meth:`ServingClient.from_artifact` cold-boots a bit-identical stack from
  one without retraining (promote/rollback via ``scripts/artifact_tool.py``).
* :mod:`repro.cluster` (sibling package) -- the sharded multi-process
  serving cluster wired in through :class:`ClusterConfig`
  (``mode="cluster"``): worker processes each own the pool slice of their
  assigned FROM-signatures and serve a length-prefixed JSON wire protocol;
  a blocking router (one socket exchange on the caller's thread) routes by
  FROM-signature, fans out ``estimate_many`` across shards, and turns worker
  death into bounded retries + :class:`WorkerUnavailableError`; a supervisor
  restarts dead workers from the promoted artifact generation (operator CLI:
  ``scripts/cluster_tool.py``).  Reference-mode estimates are bit-identical
  between the local and cluster paths.

The whole layer is safe under concurrent access: caches, stats, the
served estimator (with :meth:`EstimationService.replace` for zero-downtime
hot swaps) and the queries pool all take fine-grained locks.

Batched serving is exact: the CRN inference path encodes each query in
isolation and runs the pair head in fixed-shape ``PASS_ROWS``-row tiles
(:meth:`repro.core.crn.CRNModel.rates_from_encodings`), so served estimates
are bit-for-bit identical to the naive per-request loop — whether batched by
one caller or coalesced across threads by the dispatcher.  See
``docs/architecture.md`` and ``examples/serving_workflow.py``.
"""

from repro.serving.cache import EncodingCache, FeaturizationCache
from repro.serving.client import ServingClient
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
from repro.serving.inference_plan import InferencePlan, compile_plan
from repro.serving.dispatcher import ServingDispatcher
from repro.serving.errors import (
    ArtifactChecksumError,
    ArtifactError,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    ClusterError,
    ClusterProtocolError,
    DeadlineExceededError,
    DispatcherShutdownError,
    NoMatchingPoolQueryError,
    ServingError,
    WorkerUnavailableError,
)
from repro.serving.feedback import (
    FeedbackCollector,
    FeedbackObservation,
    FeedbackSummary,
)
from repro.serving.lifecycle import (
    AdaptationManager,
    AdaptationOutcome,
    DriftMonitor,
    DriftVerdict,
)
from repro.serving.pool_index import PoolEncodingIndex
from repro.serving.service import (
    EstimateResult,
    EstimationService,
    RequestOptions,
)
from repro.serving.stack import ServiceStack, build_service_stack

__all__ = [
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
