"""The unified serving client: one handle over the whole serving stack.

:class:`ServingClient` turns a declarative
:class:`repro.serving.ServingConfig` into a running deployment and owns its
lifecycle end to end — construction, wiring, start ordering, and shutdown of
the :class:`repro.serving.EstimationService`, the request-coalescing
:class:`repro.serving.ServingDispatcher`, the
:class:`repro.serving.FeedbackCollector`, and the
:class:`repro.serving.AdaptationManager`.  Callers hold *one* object::

    config = ServingConfig(model=model, featurizer=featurizer, pool=pool,
                           fallback_estimator=postgres)
    with ServingClient(config) as client:
        result = client.estimate(query)                   # EstimateResult
        burst = client.estimate_many(queries)             # one planned batch
        future = client.estimate_future(query)            # dispatcher-backed
        print(client.stats())                             # merged snapshot

Per-request behaviour rides in :class:`repro.serving.RequestOptions`
(deadline, caller tags), and every answer
is an :class:`repro.serving.EstimateResult` carrying provenance — the
resolution path, the answering model generation (bumped on every hot swap),
and cache-hit counts.

The client changes **no bits**: estimates served through it are bit-for-bit
identical to the naive per-pair :class:`repro.core.cnt2crd.Cnt2CrdEstimator`
(asserted by the hypothesis identity test in
``tests/test_property_based.py``).

Start/shutdown ordering: ``__enter__`` (or the :meth:`ServingClient.start`
classmethod) starts the dispatcher before the adaptation worker — requests
must be servable before the first drift evaluation can swap anything — and
:meth:`shutdown` stops them in reverse: the adaptation worker first (no swap
begins mid-drain), then the dispatcher, which drains every accepted request
before returning.
"""

from __future__ import annotations

import inspect
import os
import threading
from concurrent.futures import Future
from typing import Any, Iterable, Mapping, Sequence

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.crn import PASS_ROWS
from repro.core.featurization import QueryFeaturizer
from repro.observability.events import ArtifactLoaded
from repro.observability.recorder import EventRecorder
from repro.observability.store import EventStore
from repro.observability.tracing import Tracer
from repro.serving.config import ServingConfig
from repro.serving.dispatcher import ServingDispatcher
from repro.serving.errors import ArtifactSchemaError, ServingError
from repro.serving.feedback import FeedbackCollector, FeedbackObservation
from repro.serving.lifecycle import AdaptationManager, AdaptationOutcome
from repro.serving.service import (
    ESTIMATOR_NAME,
    FALLBACK_NAME,
    EstimateResult,
    EstimationService,
    RequestOptions,
)
from repro.serving.stack import ServiceStack, build_service_stack
from repro.sql.query import Query

__all__ = ["ServingClient"]

#: Marks a retired field whose every saved value is dropped.
_ANY = object()


def _default(callee: Any, parameter: str) -> Any:
    """The default of ``callee``'s ``parameter``: the value it is now served with."""
    return inspect.signature(callee).parameters[parameter].default


#: Config fields that no longer exist but that bundles saved before their
#: retirement still carry, as ``(section, key) -> the value now always
#: used``.  A saved value equal to it is dropped.  ``_ANY`` marks a field no
#: value of which changed an estimate or a stamped name — the pool index is
#: always built; the dispatcher coalesces by backlog, not by a wait window;
#: no computation read the compiled plan's tolerance; artifacts are always
#: saved and promoted; a swap always pre-warms; the tracer's tail rule and
#: the feedback q-error guard are their classes' defaults; the cluster's
#: connect timeout, retry backoff and deadline grace are module constants
#: of :mod:`repro.cluster.router` and :mod:`repro.cluster.supervisor` — so
#: any saved value is dropped.  Any other value is refused: the bundle would
#: not serve the estimates it was saved with.
_RETIRED_CONFIG_KEYS: dict[tuple[str, str], Any] = {
    ("pool", "use_index"): _ANY,
    ("dispatcher", "max_wait_ms"): _ANY,
    ("inference", "tolerance"): _ANY,
    ("artifacts", "save_on_build"): _ANY,
    ("artifacts", "save_on_promote"): _ANY,
    ("artifacts", "promote_on_save"): _ANY,
    ("adaptation", "warm_on_swap"): _ANY,
    ("tracing", "tail_quantile"): _ANY,
    ("tracing", "min_tail_observations"): _ANY,
    ("feedback", "epsilon"): _ANY,
    ("cluster", "connect_timeout_seconds"): _ANY,
    ("cluster", "retry_backoff_seconds"): _ANY,
    ("cluster", "deadline_grace_seconds"): _ANY,
    ("estimator", "name"): ESTIMATOR_NAME,
    ("estimator", "fallback_name"): FALLBACK_NAME,
    ("estimator", "final_function"): _default(Cnt2CrdEstimator, "final_function"),
    ("estimator", "epsilon"): _default(Cnt2CrdEstimator, "epsilon"),
    ("estimator", "batch_size"): PASS_ROWS,
}


def upgrade_saved_config(mapping: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """A saved bundle's config mapping, rewritten for the current config layer.

    Drops the retired keys :data:`_RETIRED_CONFIG_KEYS` allows (and the
    sections they leave empty), and boots a retired compiled-float64
    inference section as the reference path, which has its bits.  This is
    the one check :meth:`ServingClient.from_artifact` runs on a saved config
    before :meth:`ServingConfig.from_mapping`; ``scripts/artifact_tool.py
    verify`` runs it too.

    Raises:
        ArtifactSchemaError: a section is not a JSON object, or a retired key
            holds a value that changed the estimates or a stamped name; the
            message names its section and key.
    """
    for section, values in mapping.items():
        if not isinstance(values, Mapping):
            raise ArtifactSchemaError(
                f"saved config section {section!r} must be a JSON object, "
                f"not {type(values).__name__}"
            )
    upgraded = {section: dict(values) for section, values in mapping.items()}
    for (section, key), value in _RETIRED_CONFIG_KEYS.items():
        values = upgraded.get(section, {})
        if key not in values:
            continue
        saved = values.pop(key)
        if value is not _ANY and saved != value:
            raise ArtifactSchemaError(
                f"saved config sets {section}.{key} = {saved!r}, but the field "
                f"is retired and serving always uses {value!r}: this bundle "
                f"would not serve the estimates it was saved with"
            )
    inference = upgraded.get("inference", {})
    if (inference.get("mode"), inference.get("slab_dtype", "float64")) == (
        "compiled",
        "float64",
    ):
        # The retired compiled-float64 plan was bit-identical to the
        # reference path, which now serves such a bundle unchanged.
        inference["mode"] = "reference"
    return {section: values for section, values in upgraded.items() if values}


class ServingClient:
    """One façade over service + dispatcher + feedback + adaptation.

    Constructing the client wires everything the config enables (eagerly —
    construction errors surface here, not at first request); entering the
    context manager (or using the :meth:`start` classmethod) starts the
    background threads.  All request traffic flows through
    :meth:`estimate` / :meth:`estimate_many` / :meth:`estimate_future`; the
    wired components stay reachable as attributes (:attr:`service`,
    :attr:`dispatcher`, :attr:`collector`, :attr:`manager`) for operators
    that need the lower layers.

    Args:
        config: the frozen deployment description.
        _restored_generation: internal — set by :meth:`from_artifact` to
            build the stack at the snapshot's model generation, so
            provenance is continuous across a restart (and the build save
            does not re-save the bundle the client just booted from).
    """

    def __init__(
        self, config: ServingConfig, *, _restored_generation: int | None = None
    ) -> None:
        self.config = config
        self.recorder: EventRecorder | None = None
        self.event_store: EventStore | None = None
        self.tracer: Tracer | None = None
        self.stack: ServiceStack | None = None
        self.service: EstimationService | None = None
        self.collector: FeedbackCollector | None = None
        self.manager: AdaptationManager | None = None
        self.dispatcher: ServingDispatcher | None = None
        self.artifact_store = None
        self.supervisor = None
        self.router = None
        self._state_lock = threading.Lock()
        self._started = False
        self._closed = False
        if config.cluster.enabled:
            self._init_cluster(config, _restored_generation)
            return
        if config.observability.enabled:
            observability = config.observability
            self.event_store = EventStore(observability.sqlite_path or ":memory:")
            self.recorder = EventRecorder(
                store=self.event_store,
                capacity=observability.capacity,
                source=observability.source,
            )
        if config.tracing.enabled:
            # ServingConfig already validated tracing implies observability,
            # so the recorder the tracer sinks through exists here.
            self.tracer = Tracer(self.recorder, sample_every=config.tracing.sample_every)
        stack = build_service_stack(
            config,
            recorder=self.recorder,
            tracer=self.tracer,
            generation=_restored_generation or 1,
        )
        self.stack = stack
        self.service = stack.service
        if config.feedback.enabled:
            self.collector = FeedbackCollector(
                max_observations=config.feedback.max_observations,
                oracle=config.oracle,
                recorder=self.recorder,
            )
        if config.dispatcher.enabled:
            self.dispatcher = ServingDispatcher(
                self.service, max_batch=config.dispatcher.max_batch
            )
        if config.artifacts.enabled:
            # Imported lazily: repro.artifacts depends on the serving error
            # taxonomy, so a module-level import here would be circular.
            from repro.artifacts.store import ArtifactStore

            self.artifact_store = ArtifactStore(
                config.artifacts.root, recorder=self.recorder
            )
            if _restored_generation is None:
                self.artifact_store.save(
                    model=config.model,
                    pool=config.pool,
                    config_mapping=config.to_mapping(),
                    generation=self.service.generation,
                    source="build",
                    pool_index=stack.estimator.pool_index,
                    promote=True,
                )
        if config.adaptation.enabled:
            self.manager = AdaptationManager(
                stack, self.collector, artifact_store=self.artifact_store
            )

    def _init_cluster(
        self, config: ServingConfig, _restored_generation: int | None
    ) -> None:
        """Wire the cluster-mode front-end: no in-process stack at all.

        The front-end holds only a supervisor (worker processes), a router
        (the request path), an optional read-side handle on the shared
        event store (each worker runs its *own* recorder and flushes into
        it under a per-lifetime source), and the artifact store the workers
        cold-boot from.  The build bundle is persisted before any worker
        forks (when the store holds none yet), so even a first boot with no
        promoted generation can serve from artifacts on its next restart.
        """
        # Imported lazily: repro.cluster programs against this module, so a
        # module-level import here would be circular.
        from repro.cluster.router import ClusterRouter
        from repro.cluster.supervisor import ClusterSupervisor

        if config.observability.enabled and config.observability.sqlite_path:
            self.event_store = EventStore(config.observability.sqlite_path)
        if config.artifacts.enabled:
            from repro.artifacts.store import ArtifactStore

            self.artifact_store = ArtifactStore(config.artifacts.root)
            if _restored_generation is None and self.artifact_store.latest() is None:
                self.artifact_store.save(
                    model=config.model,
                    pool=config.pool,
                    config_mapping=config.to_mapping(),
                    generation=1,
                    source="build",
                    promote=True,
                )
        self.supervisor = ClusterSupervisor(config)
        self.router = ClusterRouter(self.supervisor, config)

    # ------------------------------------------------------------------ #
    # lifecycle

    @classmethod
    def from_artifact(
        cls,
        root: str | os.PathLike,
        *,
        database,
        generation: int | None = None,
        fallback_estimator: Any | None = None,
        training_result: Any | None = None,
        oracle: Any | None = None,
        signatures: Sequence[tuple[tuple[str, str], ...]] | None = None,
        observability_source: str | None = None,
    ) -> "ServingClient":
        """Boot a client cold from a persisted snapshot — no retraining.

        Loads (and checksum-verifies) the bundle from the
        :class:`repro.artifacts.ArtifactStore` at ``root`` — the promoted
        ``latest`` generation by default — and rebuilds the stack around it:
        the CRN's weights are **restored**, the pool is **replayed**
        entry-for-entry in saved order, and the full config round-trips
        through :func:`upgrade_saved_config` and
        :meth:`ServingConfig.from_mapping` (unknown-field rejection intact).  The featurizer, the caches, the encoding index's slabs,
        and the compiled inference plan are **rebuilt** — each is a pure
        function of (weights, pool, database schema), so the rebuilt stack
        serves estimates bit-identical to the client that saved the snapshot
        (pinned by ``benchmarks/bench_cold_start.py``).  The snapshot's
        model generation is stamped back onto the service, so
        :attr:`EstimateResult.model_generation` provenance is continuous
        across the restart and the next adaptation promote advances from it.

        Runtime objects a JSON mapping cannot carry are re-supplied here:

        Args:
            root: the artifact store directory.
            database: the serving snapshot (the featurizer is rebuilt from
                its schema; must be the database the saved model serves).
            generation: boot a specific generation instead of ``latest``.
            fallback_estimator / oracle: as on
                :class:`ServingConfig`.
            training_result: required to keep a saved
                ``adaptation.enabled=True`` config adapting after the boot
                (retraining fine-tunes from it).  When omitted, adaptation
                is **downgraded to disabled** — recorded on the
                ``artifact_loaded`` event as ``adaptation_downgraded`` —
                rather than failing the boot.
            signatures: restrict the restored pool to these FROM-signatures
                (the cluster worker boot path: each worker restores only its
                shard's buckets, entry-for-entry in saved order).  Forces
                ``cluster.mode`` to ``"local"`` — a worker is itself a
                local-mode stack — and scopes the rebuilt-index consistency
                check to the assigned signatures.
            observability_source: override the saved recorder source (the
                worker boot path passes ``worker-<shard>``); the booted
                generation is suffixed as ``@gen<N>`` exactly like the
                sqlite-store case below.

        Raises:
            ArtifactNotFoundError / ArtifactChecksumError /
            ArtifactSchemaError: the store, the bundle, or its contents are
                missing, corrupt, or inconsistent (including a saved config
                section that fails validation, a retired field saved at a
                value that changed the estimates, a ``database`` whose schema
                does not featurize to the saved vector size, and a rebuilt
                index that does not match the bundle's recorded slab
                metadata).
        """
        from repro.artifacts.store import ArtifactStore

        store = ArtifactStore(root)
        bundle = store.load(generation)
        featurizer = QueryFeaturizer(database)
        if featurizer.vector_size != bundle.model.vector_size:
            raise ArtifactSchemaError(
                f"the supplied database featurizes to vector size "
                f"{featurizer.vector_size}, but the snapshot's model expects "
                f"{bundle.model.vector_size} — wrong database for this bundle"
            )
        mapping = upgrade_saved_config(bundle.config_mapping)
        adaptation_downgraded = False
        if mapping.get("adaptation", {}).get("enabled") and training_result is None:
            # A mapping cannot carry the TrainingResult adaptation fine-tunes
            # from.  Booting read-only beats refusing to boot; the downgrade
            # is on the record (artifact_loaded event) and in the docs.
            mapping["adaptation"]["enabled"] = False
            adaptation_downgraded = True
        # The store being booted from is authoritative, wherever the bundle
        # was saved (a downloaded CI artifact boots against its new path).
        artifacts_section = dict(mapping.get("artifacts", {}))
        artifacts_section["root"] = os.fspath(root)
        mapping["artifacts"] = artifacts_section
        pool = bundle.pool
        assigned: set | None = None
        if signatures is not None:
            # The cluster worker boot path: restore only this shard's
            # buckets (in saved order — slab bit-identity depends on it) and
            # run as a local-mode stack whatever the saved config said.
            from repro.cluster.worker import slice_pool

            assigned = {
                tuple(tuple(pair) for pair in signature)
                for signature in signatures
            }
            pool = slice_pool(pool, sorted(assigned))
            cluster_section = dict(mapping.get("cluster", {}))
            cluster_section["mode"] = "local"
            mapping["cluster"] = cluster_section
        if observability_source is not None:
            observability_override = dict(mapping.get("observability", {}))
            observability_override["source"] = observability_source
            mapping["observability"] = observability_override
        observability_section = mapping.get("observability", {})
        if observability_section.get("enabled") and (
            observability_section.get("sqlite_path")
            or observability_source is not None
        ):
            # The saved config's recorder identity belongs to the client that
            # wrote the snapshot.  A restored client flushing into the same
            # persistent store under the same source would have its events
            # silently deduplicated away (the store dedups on
            # ``(source, sequence)`` and sequences restart at boot) — the
            # restart would be invisible in the provenance views.  Suffix the
            # booted generation so both lifetimes coexist in one store.
            source = observability_section.get("source", "serving")
            suffix = f"@gen{bundle.manifest.generation}"
            if not source.endswith(suffix):
                section = dict(observability_section)
                section["source"] = source + suffix
                mapping["observability"] = section
        try:
            config = ServingConfig.from_mapping(
                mapping,
                model=bundle.model,
                featurizer=featurizer,
                pool=pool,
                fallback_estimator=fallback_estimator,
                training_result=training_result,
                database=database,
                oracle=oracle,
            )
        except ValueError as error:
            raise ArtifactSchemaError(
                f"generation {bundle.manifest.generation}'s saved config does not "
                f"validate: {error}"
            ) from error
        client = cls(config, _restored_generation=bundle.manifest.generation)
        if (
            client.stack is not None
            and config.pool_options.warm
            and bundle.index_meta.get("signatures")
        ):
            expected = sum(
                int(entry["rows"])
                for entry in bundle.index_meta["signatures"]
                if assigned is None
                or tuple(tuple(pair) for pair in entry["signature"]) in assigned
            )
            actual = len(client.stack.estimator.pool_index)
            if actual != expected:
                raise ArtifactSchemaError(
                    f"rebuilt pool encoding index holds {actual} slab rows, "
                    f"bundle metadata records {expected} — the snapshot is "
                    f"internally inconsistent"
                )
        if client.recorder is not None:
            client.recorder.emit(
                ArtifactLoaded(
                    generation=bundle.manifest.generation,
                    source=bundle.manifest.source,
                    adaptation_downgraded=adaptation_downgraded,
                )
            )
        return client

    @classmethod
    def start(cls, config: ServingConfig) -> "ServingClient":
        """Build **and start** a client in one call.

        The caller owns the shutdown (``client.shutdown()``, or use the
        instance as a context manager instead — ``with ServingClient(config)
        as client:`` — to bracket both).
        """
        return cls(config).__enter__()

    def __enter__(self) -> "ServingClient":
        with self._state_lock:
            if self._closed:
                raise ServingError("serving client has been shut down")
            if not self._started:
                if self.router is not None:
                    # Cluster mode: every worker must be ready (handshake
                    # complete) before the router can route to it.
                    self.supervisor.start()
                    self.router.start()
                else:
                    # Requests must be servable before the adaptation
                    # worker's first evaluation could decide to swap
                    # anything.
                    if self.dispatcher is not None:
                        self.dispatcher.start()
                    if self.manager is not None:
                        self.manager.start()
                self._started = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the stack in reverse start order.  Idempotent.

        The adaptation worker stops first (its current cycle completes; no
        new swap begins mid-drain), then the dispatcher stops accepting and
        drains every already-accepted request before returning (with
        ``wait=True``, the default).
        """
        with self._state_lock:
            self._closed = True
        if self.router is not None:
            # The request path stops before the workers drain, mirroring
            # the local ordering (dispatcher before service teardown).
            self.router.stop()
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.manager is not None:
            self.manager.stop(wait=wait)
        if self.dispatcher is not None:
            self.dispatcher.shutdown(wait=wait)
        # Final flush *after* the workers stop: every event they emitted is
        # in the store before shutdown returns.  The store itself stays open
        # — post-mortem queries (swap history, tail latency) are the whole
        # point; callers close it via ``client.event_store.close()`` (or use
        # the store as a context manager) when done.
        if self.recorder is not None:
            self.recorder.flush()

    @property
    def started(self) -> bool:
        """Whether the background threads have been started."""
        with self._state_lock:
            return self._started and not self._closed

    def _ensure_open(self, estimate: bool = False) -> bool:
        """Refuse request traffic, warms, feedback and triggers after
        :meth:`shutdown`, and an ``estimate`` on a cluster client whose
        workers have not spawned; returns whether the client is started.

        Without this, a shut-down client would silently keep serving the
        synchronous path while its dispatcher refuses — an operator stopping
        traffic must stop *all* of it.  The checks and the returned read are
        one lock acquisition.
        """
        with self._state_lock:
            if self._closed:
                raise ServingError(
                    "serving client has been shut down; no new requests accepted"
                )
            if estimate and self.router is not None and not self._started:
                raise ServingError(
                    "cluster mode serves only from a started client (use the "
                    "context manager or ServingClient.start): the workers "
                    "spawn on start"
                )
            return self._started

    # ------------------------------------------------------------------ #
    # requests

    def estimate(
        self, query: Query, options: RequestOptions | None = None
    ) -> EstimateResult:
        """Estimate one query.

        On a started client with a dispatcher this is
        :meth:`ServingDispatcher.estimate`: served on the calling thread when
        the dispatcher is idle and there is no deadline, else coalesced with
        concurrent callers' (honoring ``options.timeout_seconds`` — a
        :class:`repro.serving.DeadlineExceededError` abandons it).  Otherwise
        it is served synchronously on the calling thread.  Every path is
        bit-for-bit identical.
        """
        # The closed check and the routing decision are one lock acquisition:
        # a shutdown() racing in between must yield a refusal (here, or from
        # the dispatcher's own closed state), never a silent downgrade onto
        # the synchronous path of a closed client.
        started = self._ensure_open(estimate=True)
        if self.router is not None:
            return self.router.estimate(query, options=options)
        if started and self.dispatcher is not None:
            return self.dispatcher.estimate(query, options=options)
        if options is not None and options.timeout_seconds is not None:
            raise ServingError(
                "per-request deadlines need the dispatcher: enable "
                "ServingConfig.dispatcher and start the client"
            )
        return self.service.submit(query, options=options)

    def estimate_many(
        self, queries: Sequence[Query], options: RequestOptions | None = None
    ) -> list[EstimateResult]:
        """Estimate a caller-side burst as one planned, deduplicated batch.

        The batch goes straight to :meth:`EstimationService.submit_batch` —
        it is already a batch, so there is nothing for the dispatcher to
        coalesce.  Deadlines are not supported here (the batch runs on the
        calling thread); submit through :meth:`estimate_future` to bound
        individual waits.  A request-level failure (e.g. an unmatched query
        on a deployment with no fallback) fails the whole batch, like any
        ``submit_batch``; use
        :meth:`estimate` / :meth:`estimate_future` for per-request isolation.
        """
        self._ensure_open(estimate=True)
        if options is not None and options.timeout_seconds is not None:
            raise ServingError(
                "estimate_many serves synchronously and cannot honor "
                "timeout_seconds; use estimate()/estimate_future() per query"
            )
        if self.router is not None:
            return self.router.estimate_many(list(queries), options=options)
        return self.service.submit_batch(list(queries), options=options)

    def estimate_future(
        self, query: Query, options: RequestOptions | None = None
    ) -> Future:
        """Enqueue one request on the dispatcher; returns a future.

        The future resolves with the request's
        :class:`repro.serving.EstimateResult` (or its per-request error).
        Requires a started client with the dispatcher enabled.
        """
        started = self._ensure_open(estimate=True)
        if self.router is not None:
            return self.router.estimate_future(query, options=options)
        if self.dispatcher is None:
            raise ServingError(
                "estimate_future needs the dispatcher: enable "
                "ServingConfig.dispatcher"
            )
        if not started:
            raise ServingError(
                "estimate_future needs a started client (use the context "
                "manager or ServingClient.start)"
            )
        return self.dispatcher.submit(query, options=options)

    def warm(self, queries: Iterable[Query] | None = None) -> None:
        """Warm the request caches with ``queries``, or the pool's slabs when omitted.

        ``client.warm(queries)`` encodes request queries into the encoding
        cache, both pair slots; ``client.warm()`` builds or
        refreshes every pool bucket's index slab, the only place a pool
        entry's encodings are stored (the caches are left as they are).

        A no-op in cluster mode: each worker warms its own shard at boot
        (the warm flag rides in the config the workers build from).  Refused
        with :class:`ServingError` after :meth:`shutdown`: a stopped client
        serves nothing the warm could speed up.
        """
        self._ensure_open()
        if self.router is not None:
            return
        if queries is not None:
            self.service.warm(queries)
        else:
            # The live estimator's index: after an adaptation promote, the
            # promoted model's.
            self.stack.estimator.pool_index.warm()

    # ------------------------------------------------------------------ #
    # feedback and adaptation

    def record_feedback(
        self, result: EstimateResult, true_cardinality: float | None = None
    ) -> FeedbackObservation:
        """Close the loop on a served estimate.

        Records ``(query, estimate, truth)`` into the feedback window —
        ``true_cardinality`` when supplied, the config's ``oracle``
        otherwise.  Requires ``feedback.enabled``.  Refused with
        :class:`ServingError` after :meth:`shutdown`: the window feeds an
        adaptation manager that has stopped, and its event would land after
        the final flush.
        """
        self._ensure_open()
        if self.collector is None:
            raise ServingError(
                "feedback is not enabled; set ServingConfig.feedback.enabled"
            )
        return self.collector.record_served(result, true_cardinality)

    def trigger_adaptation(self) -> AdaptationOutcome:
        """Run one adaptation cycle on the calling thread (bypassing policy,
        cooldown, pause) and return its outcome.

        Requires ``adaptation.enabled``; see
        :meth:`repro.serving.AdaptationManager.trigger` for semantics.
        Refused with :class:`ServingError` after :meth:`shutdown`: a
        shut-down client never retrains or swaps.
        """
        self._ensure_open()
        if self.manager is None:
            raise ServingError(
                "adaptation is not enabled; set ServingConfig.adaptation.enabled "
                "(plus feedback, training_result, and database)"
            )
        return self.manager.trigger()

    # ------------------------------------------------------------------ #
    # observability

    def stats(self) -> dict[str, float]:
        """One merged snapshot across every enabled component.

        Service counters and cache/pool-index gauges, dispatcher counters,
        lifecycle counters, and a ``feedback_*`` block — the union renders
        directly with :func:`repro.evaluation.format_service_stats`.

        In cluster mode the snapshot covers the front-end (router counters,
        supervisor worker states) plus the shared event store; per-worker
        service/cache counters live in each worker's own recorder and land
        in the store under that worker's source.
        """
        if self.router is not None:
            merged: dict[str, float] = {}
            merged.update(self.router.stats_snapshot())
            if self.supervisor is not None:
                merged.update(self.supervisor.stats_snapshot())
            if self.event_store is not None:
                merged.update(self.event_store.stats_snapshot())
            return merged
        merged = self.service.stats_snapshot()
        if self.dispatcher is not None:
            merged.update(self.dispatcher.stats_snapshot())
        if self.manager is not None:
            merged.update(self.manager.stats_snapshot())
        if self.collector is not None:
            summary = self.collector.summary()
            merged["feedback_observations"] = float(summary.count)
            merged["feedback_p50_q_error"] = summary.p50
            merged["feedback_p90_q_error"] = summary.p90
        if self.tracer is not None:
            merged.update(self.tracer.stats_snapshot())
        if self.recorder is not None:
            # Sink buffered events first, so the store-backed gauges below
            # (and any follow-up view queries) see everything emitted so far.
            self.recorder.flush()
            merged.update(self.recorder.stats_snapshot())
        if self.event_store is not None:
            merged.update(self.event_store.stats_snapshot())
        return merged
