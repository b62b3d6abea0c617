"""Declarative, validated configuration for the serving stack.

:class:`ServingConfig` is the single description of a deployment that
:class:`repro.serving.ServingClient` turns into a running stack.  It replaces
the hand-wiring of service + dispatcher + feedback + adaptation manager with
one frozen object of nested sections:

* :class:`PoolConfig` — pool (and pool encoding index) warming;
* :class:`CacheConfig` — the featurization / encoding LRU bounds, with the
  encoding cache's two-entries-per-query sizing rule made **explicit**;
* :class:`DispatcherConfig` — the request-coalescing front-end;
* :class:`FeedbackConfig` — the rolling feedback window;
* :class:`AdaptationConfig` — drift conditions + background retraining;
* :class:`ObservabilityConfig` — the structured event log and its optional
  SQLite persistence (:mod:`repro.observability`);
* :class:`TracingConfig` — per-request span trees with coalescing-aware
  attribution and tail-exemplar sampling (:mod:`repro.observability.tracing`;
  requires observability);
* :class:`InferenceConfig` — the float64 reference pair head vs a compiled
  float32 :class:`repro.serving.InferencePlan`, and the slab dtype that follows;
* :class:`ArtifactConfig` — durable snapshot bundles (:mod:`repro.artifacts`):
  where the generational store lives (builds and adaptation promotes persist
  their model/pool/config state there for cold-start boots);
* :class:`ClusterConfig` — the sharded multi-process serving cluster
  (:mod:`repro.cluster`): ``mode="cluster"`` makes the same
  :class:`~repro.serving.ServingClient` spawn worker processes (one pool
  slice per FROM-signature shard) behind a blocking router — one socket
  exchange on the caller's thread — instead of building the in-process stack.

The served estimator has no section: it is the paper's Cnt2Crd over CRN,
with :class:`repro.core.cnt2crd.Cnt2CrdEstimator`'s own defaults (the median
final function, the ``1e-3`` rate guard), stamped ``"crn"``
(:mod:`repro.serving.stack`).

Every section validates its bounds at construction (``max_batch=0``,
``max_cache_entries=-1`` and friends raise a ``ValueError`` here, not
obscurely at first use), and the top-level config validates cross-section
requirements (adaptation needs feedback, a training result, and a database
snapshot).

The scalar sections round-trip through plain dicts/JSON:
``ServingConfig.from_mapping(config.to_mapping(), model=..., featurizer=...,
pool=...)`` reconstructs an equal config — runtime objects (the model, the
featurizer, the pool, the fallback estimator, training state) are passed
alongside the mapping, since they have no serial form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.core.crn import CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.core.queries_pool import QueriesPool
from repro.core.training import TrainingResult
from repro.db.database import Database

__all__ = [
    "AdaptationConfig",
    "ArtifactConfig",
    "CacheConfig",
    "ClusterConfig",
    "DispatcherConfig",
    "FeedbackConfig",
    "InferenceConfig",
    "ObservabilityConfig",
    "PoolConfig",
    "ServingConfig",
    "TracingConfig",
]

#: Mapping keys of the declarative sections, in rendering order (populated
#: from ``_SECTION_SPECS`` below, the single source of truth).
_SECTIONS: tuple[str, ...] = ()


def _flag(name: str, value: bool) -> None:
    """Validate an on/off switch: a ``bool``, so a saved ``"false"`` cannot
    switch its section on."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _real(name: str, value: float) -> None:
    """Validate a number field: a real number, not a ``bool`` (``True``
    would pass as 1) nor a string (which fails the range check with a
    ``TypeError``, outside what a saved bundle's check reports)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _positive(name: str, value: float) -> None:
    _real(name, value)
    if not value > 0:  # NaN fails too
        raise ValueError(f"{name} must be positive, got {value!r}")


def _seconds(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Validate a duration: finite, and positive (or non-negative).

    ``inf`` is refused because it reaches ``socket.settimeout``,
    ``Event.wait`` and ``Future.result``, which raise ``OverflowError``.
    """
    _real(name, value)
    above = value >= 0 if allow_zero else value > 0
    if not (above and value < math.inf):  # NaN fails too
        sign = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def _integer(name: str, value: int, minimum: int | None = 1) -> None:
    """Validate an integer field: an ``int`` (not a ``bool``), at least ``minimum``.

    A float would pass a range check and fail later, deep inside serving
    (``range``, array shapes); ``True`` would pass as 1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        bound = "positive" if minimum == 1 else "non-negative"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _threshold(
    name: str, value: float | None, low: float, *, inclusive: bool = False
) -> None:
    """Validate an optional threshold: None, or finite and above ``low``.

    NaN and ``inf`` would silently disable the condition they configure
    (every comparison with NaN is False), which only ``None`` may do.
    """
    if value is None:
        return
    _real(name, value)
    above = value >= low if inclusive else value > low
    if not (above and value < math.inf):  # NaN fails too
        bound = "at least" if inclusive else "above"
        raise ValueError(f"{name} must be finite and {bound} {low}, or None; got {value!r}")


def _bound(name: str, value: int | None) -> None:
    """Validate an optional LRU bound: positive, or None for unbounded."""
    if value is not None:
        _integer(name, value)


@dataclass(frozen=True)
class PoolConfig:
    """Pool warming.

    The stack always keeps per-FROM-signature pool encoding matrices
    (:class:`repro.serving.PoolEncodingIndex`), so a request is scored as one
    vectorized whole-pool slab pass.

    Attributes:
        warm: build every bucket's index slab at build time, so steady
            state is reached before the first request (the request caches
            stay empty: pool entries are encoded straight into the slabs).
    """

    warm: bool = True

    def __post_init__(self) -> None:
        _flag("pool.warm", self.warm)


@dataclass(frozen=True)
class CacheConfig:
    """LRU bounds of the featurization / encoding caches each served
    estimator gets.

    The caches hold request queries.  The encoding cache holds **two**
    entries per query (one per pair slot), so a deployment bounding both
    caches for ``N`` queries needs ``2·N`` encoding entries, or warming
    ``N`` request queries (``client.warm(queries)``) would evict half of
    what it just encoded.  That ``2×`` is the documented default — an unset ``max_encoding_entries``
    resolves to ``2 × max_featurization_entries`` — and an explicit value is
    taken as given.

    Attributes:
        max_featurization_entries: LRU bound on cached featurizations
            (None = unbounded).
        max_encoding_entries: LRU bound on cached encodings (None = derive
            from ``max_featurization_entries`` as above; unbounded when that
            is unbounded too).
    """

    max_featurization_entries: int | None = None
    max_encoding_entries: int | None = None

    def __post_init__(self) -> None:
        _bound("max_featurization_entries", self.max_featurization_entries)
        _bound("max_encoding_entries", self.max_encoding_entries)

    def resolved_encoding_entries(self) -> int | None:
        """The effective encoding-cache bound (the ``2×`` rule applied)."""
        if self.max_encoding_entries is not None:
            return self.max_encoding_entries
        if self.max_featurization_entries is not None:
            return 2 * self.max_featurization_entries
        return None


@dataclass(frozen=True)
class DispatcherConfig:
    """The request-coalescing dispatcher front-end.

    Attributes:
        enabled: run a :class:`repro.serving.ServingDispatcher` inside the
            client (required for ``estimate_future`` and per-request
            deadlines).
        max_batch: most requests coalesced into one service submission — the
            cap on the dispatcher's one policy, "a batch is the backlog at
            pickup" (:mod:`repro.serving.dispatcher`).
    """

    enabled: bool = True
    max_batch: int = 64

    def __post_init__(self) -> None:
        _flag("dispatcher.enabled", self.enabled)
        _integer("max_batch", self.max_batch)


@dataclass(frozen=True)
class FeedbackConfig:
    """The rolling (estimate, true cardinality) feedback window.

    Attributes:
        enabled: attach a :class:`repro.serving.FeedbackCollector` to the
            client (required by adaptation).
        max_observations: window bound.
    """

    enabled: bool = False
    max_observations: int = 1024

    def __post_init__(self) -> None:
        _flag("feedback.enabled", self.enabled)
        _integer("max_observations", self.max_observations)


@dataclass(frozen=True)
class ObservabilityConfig:
    """The structured event log (:mod:`repro.observability`).

    Attributes:
        enabled: attach an :class:`repro.observability.EventRecorder` to the
            stack (service, dispatcher, pool index, feedback collector, and
            the adaptation manager all emit through it).
        capacity: the recorder's bounded-buffer size; overflow drops the
            oldest events (counted in ``events_dropped``).
        sqlite_path: persistent :class:`repro.observability.EventStore`
            location — ``None`` keeps the store in memory (``":memory:"``),
            which still gives dedup and the aggregate views for the
            process's lifetime.
        source: the store's dedup identity for this recorder's events; two
            clients flushing into one SQLite file need distinct sources.
    """

    enabled: bool = False
    capacity: int = 8192
    sqlite_path: str | None = None
    source: str = "serving"

    def __post_init__(self) -> None:
        _flag("observability.enabled", self.enabled)
        _integer("capacity", self.capacity)
        if not self.source:
            raise ValueError("observability source must be non-empty")


@dataclass(frozen=True)
class TracingConfig:
    """Per-request distributed tracing (:mod:`repro.observability.tracing`).

    Requires observability: spans sink through the same recorder and land in
    the event store's ``spans`` / ``span_links`` tables, so enabling tracing
    without :attr:`ObservabilityConfig.enabled` is a config error.

    Attributes:
        enabled: attach a :class:`repro.observability.Tracer` to the stack
            (service, dispatcher, pool index, and the adaptation manager all
            emit spans through it).  Off by default: the disabled cost is
            one ``tracer is None`` test per instrumentation point.
        sample_every: keep every N-th finished request trace (head
            sampling); 1 keeps every trace, 0 keeps only tail exemplars.
            Shared batch/kernel spans are always recorded regardless, and
            so are tail exemplars: requests slower than the tracer's p95
            (:class:`repro.observability.Tracer`).
    """

    enabled: bool = False
    sample_every: int = 1

    def __post_init__(self) -> None:
        _flag("tracing.enabled", self.enabled)
        _integer("sample_every", self.sample_every, minimum=0)


#: Inference execution modes.
INFERENCE_MODES = ("reference", "compiled")
#: Slab dtypes: the reference mode's, then the compiled plan's.
SLAB_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class InferenceConfig:
    """How the stack runs pair-head inference.

    Two configurations are valid: ``("reference", "float64")``, the default,
    and ``("compiled", "float32")``.

    Attributes:
        mode: ``"reference"`` runs the pair head
            (:func:`repro.core.crn.pair_head`) on the model's live float64
            weights; ``"compiled"`` freezes float32 copies of them into an
            :class:`repro.serving.InferencePlan` at build time, recompiled on
            every adaptation promote.
        slab_dtype: the pool index's slab dtype, which follows the mode:
            ``"float64"`` for reference, ``"float32"`` for compiled — the
            plan's fused slab kernel reads float32 slabs in place: fastest,
            with estimates within float32 rounding of the reference (the
            bound is in ``docs/architecture.md``).  Encodings and per-pair
            rates come from the live model in both modes.
    """

    mode: str = "reference"
    slab_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.mode not in INFERENCE_MODES:
            raise ValueError(
                f"inference mode must be one of {INFERENCE_MODES}, got {self.mode!r}"
            )
        if self.slab_dtype not in SLAB_DTYPES:
            raise ValueError(
                f"slab_dtype must be one of {SLAB_DTYPES}, got {self.slab_dtype!r}"
            )
        if self.mode == "reference" and self.slab_dtype != "float64":
            raise ValueError(
                "reference mode always runs float64; set mode='compiled' to "
                "use float32 slabs"
            )
        if self.mode == "compiled" and self.slab_dtype != "float32":
            raise ValueError(
                "compiled mode runs float32 only; mode='reference' serves "
                "float64 with the bits the compiled float64 plan had"
            )


@dataclass(frozen=True)
class AdaptationConfig:
    """Drift monitoring and background retraining.

    The one declaration of the lifecycle's knobs: :class:`~repro.serving.DriftMonitor`
    and :class:`~repro.serving.AdaptationManager` read this section.  Enabling adaptation requires the owning
    :class:`ServingConfig` to carry ``training_result`` and ``database`` and
    to enable feedback.

    Any enabled drift condition firing marks the model as drifted; ``None``
    is the only way to disable one.  The q-error conditions arm once the
    feedback window holds ``min_observations``; the row-count condition needs
    no feedback, it reacts to the data changing under the model.

    Attributes:
        quantile: the rolling q-error quantile the q-error conditions watch
            (0.9 = the p90 the paper's tables report).
        max_q_error: absolute threshold on the watched quantile.
        degradation_ratio: fires when the watched quantile reaches this
            multiple of the baseline's.  The baseline freezes from the first
            full window and again after every accepted swap, so the model is
            compared against its own healthy self, not a hand-tuned constant.
        max_row_delta: fires when the database's total row count has changed
            by more than this fraction since the last refresh.
        min_observations: observations that arm the q-error conditions (also
            the baseline's size).
        cooldown_seconds: minimum time between policy-driven attempts (manual
            triggers bypass it).
        poll_interval_seconds: how often the worker evaluates the conditions.
        holdout_size: most-recent observations the accept gate scores.
        accept_ratio: the candidate ships when its median holdout q-error is
            at most this multiple of the incumbent's (1.0 = no worse).
        max_incremental_failures: consecutive failed or rejected incremental
            attempts before a full retrain.
        training_pairs / incremental_epochs / full_epochs: pairs generated and
            epoch budgets of one retrain.
        seed: base pair-generation seed, varied per attempt so a rejected
            candidate is not retried on the same pairs.
    """

    enabled: bool = False
    # drift conditions (DriftMonitor)
    quantile: float = 0.9
    max_q_error: float | None = 10.0
    degradation_ratio: float | None = 2.0
    max_row_delta: float | None = None
    min_observations: int = 20
    cooldown_seconds: float = 60.0
    # worker and accept gate (AdaptationManager)
    poll_interval_seconds: float = 1.0
    holdout_size: int = 16
    accept_ratio: float = 1.0
    max_incremental_failures: int = 2
    # retraining (AdaptationManager)
    training_pairs: int = 120
    incremental_epochs: int = 4
    full_epochs: int = 8
    seed: int = 1

    def __post_init__(self) -> None:
        _flag("adaptation.enabled", self.enabled)
        _real("quantile", self.quantile)
        if not 0.0 < self.quantile <= 1.0:  # NaN fails too
            raise ValueError(f"quantile must lie in (0, 1], got {self.quantile!r}")
        # q-errors never fall below 1; a ratio of 1 would fire on a healthy window.
        _threshold("max_q_error", self.max_q_error, 1.0, inclusive=True)
        _threshold("degradation_ratio", self.degradation_ratio, 1.0)
        _threshold("max_row_delta", self.max_row_delta, 0.0)
        _integer("min_observations", self.min_observations)
        _seconds("cooldown_seconds", self.cooldown_seconds, allow_zero=True)
        _seconds("poll_interval_seconds", self.poll_interval_seconds)
        _integer("holdout_size", self.holdout_size)
        _positive("accept_ratio", self.accept_ratio)
        _integer("max_incremental_failures", self.max_incremental_failures, minimum=0)
        _integer("training_pairs", self.training_pairs)
        _integer("incremental_epochs", self.incremental_epochs)
        _integer("full_epochs", self.full_epochs)
        _integer("seed", self.seed, minimum=None)


@dataclass(frozen=True)
class ArtifactConfig:
    """Durable snapshot bundles and the generational artifact store.

    When :attr:`root` is set, the client owns an
    :class:`repro.artifacts.ArtifactStore` there and persists complete
    snapshot bundles (weights, pool, config, index metadata) that a later
    process boots from via :meth:`repro.serving.ServingClient.from_artifact`
    — no retraining:

    * the freshly built stack, under its served generation, as soon as
      :class:`ServingClient` finishes wiring it, so even a never-adapted
      deployment has a cold-start snapshot;
    * every adaptation-accepted candidate, under the generation its swap
      produced (a failed promote persists nothing: the save runs strictly
      after the hot swap commits).

    Every save re-points the store's ``latest`` pointer, so "boot from
    latest" always means the newest accepted model.

    Attributes:
        root: the store's directory (created when missing).  ``None`` — the
            default — disables artifact persistence entirely.
    """

    root: str | None = None

    def __post_init__(self) -> None:
        if self.root is not None and not str(self.root):
            raise ValueError("artifact root must be a non-empty path or None")

    @property
    def enabled(self) -> bool:
        """Whether this deployment persists artifacts at all."""
        return self.root is not None


#: The serving execution modes: in-process stack vs sharded worker cluster.
CLUSTER_MODES = ("local", "cluster")


@dataclass(frozen=True)
class ClusterConfig:
    """The sharded multi-process serving cluster (:mod:`repro.cluster`).

    With ``mode="cluster"``, :class:`repro.serving.ServingClient` builds no
    in-process stack: it spawns ``num_workers`` worker processes — each
    owning the pool slice of its assigned FROM-signatures and serving the
    length-prefixed JSON wire protocol over loopback TCP — plus a blocking
    router (a round trip runs on the caller's thread) and a supervisor that
    restarts dead workers from the promoted artifact generation.
    ``mode="local"`` (the default) leaves everything as before; it is inert.

    Attributes:
        mode: ``"local"`` (in-process stack) or ``"cluster"`` (sharded
            worker processes behind the router).
        num_workers: worker processes to spawn; FROM-signatures are
            round-robin assigned across them in sorted order.
        host: interface the workers and the control server bind (loopback by
            default; the cluster is a single-machine scale-out, not a
            distributed system).
        worker_threads: requests a worker handles at once, each on its
            connection's thread (they coalesce in the worker's dispatcher);
            times ``num_workers``, the router's ``estimate_future`` threads.
        request_timeout_seconds: router-side cap on any single roundtrip
            that carries no caller deadline (a dead cluster must fail
            typed, never hang).
        retry_attempts: times the router re-tries a roundtrip after a lost
            connection before raising
            :class:`repro.serving.WorkerUnavailableError`.  Estimates are
            pure reads, so a retry can never double-apply anything.
        boot_timeout_seconds: how long the supervisor waits for a spawned
            worker's ready handshake.
        poll_interval_seconds: supervisor liveness-poll cadence.
        max_restarts: crash-restarts the supervisor attempts per shard
            before marking it failed.
        drain_timeout_seconds: how long a graceful drain waits for in-flight
            requests before the worker is terminated.
        runtime_dir: directory for the cluster runtime file
            (``cluster.json``: control address + worker map) that
            ``scripts/cluster_tool.py`` reads; ``None`` writes no file.
    """

    mode: str = "local"
    num_workers: int = 2
    host: str = "127.0.0.1"
    worker_threads: int = 4
    request_timeout_seconds: float = 30.0
    retry_attempts: int = 2
    boot_timeout_seconds: float = 60.0
    poll_interval_seconds: float = 0.25
    max_restarts: int = 5
    drain_timeout_seconds: float = 10.0
    runtime_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in CLUSTER_MODES:
            raise ValueError(
                f"cluster mode must be one of {CLUSTER_MODES}, got {self.mode!r}"
            )
        if not self.host:
            raise ValueError("cluster host must be non-empty")
        _integer("num_workers", self.num_workers)
        _integer("worker_threads", self.worker_threads)
        _seconds("request_timeout_seconds", self.request_timeout_seconds)
        _seconds("boot_timeout_seconds", self.boot_timeout_seconds)
        _seconds("poll_interval_seconds", self.poll_interval_seconds)
        _seconds("drain_timeout_seconds", self.drain_timeout_seconds)
        _integer("retry_attempts", self.retry_attempts, minimum=0)
        _integer("max_restarts", self.max_restarts, minimum=0)
        if self.runtime_dir is not None and not str(self.runtime_dir):
            raise ValueError("cluster runtime_dir must be a non-empty path or None")

    @property
    def enabled(self) -> bool:
        """Whether this deployment serves through the sharded cluster."""
        return self.mode == "cluster"


#: The single source of truth for the declarative sections:
#: ``(mapping key, section dataclass, ServingConfig attribute)``.  The
#: section order, :meth:`ServingConfig.to_mapping`, and
#: :meth:`ServingConfig.from_mapping` all derive from this table, so adding a
#: section is one entry plus the field — not three hand-synced lists.
_SECTION_SPECS: tuple[tuple[str, type, str], ...] = (
    ("pool", PoolConfig, "pool_options"),
    ("caches", CacheConfig, "caches"),
    ("dispatcher", DispatcherConfig, "dispatcher"),
    ("feedback", FeedbackConfig, "feedback"),
    ("adaptation", AdaptationConfig, "adaptation"),
    ("observability", ObservabilityConfig, "observability"),
    ("tracing", TracingConfig, "tracing"),
    ("inference", InferenceConfig, "inference"),
    ("artifacts", ArtifactConfig, "artifacts"),
    ("cluster", ClusterConfig, "cluster"),
)
_SECTIONS = tuple(key for key, _, _ in _SECTION_SPECS)


@dataclass(frozen=True)
class ServingConfig:
    """One frozen description of a serving deployment.

    The required runtime objects (model, featurizer, pool) and the optional
    ones (a fallback estimator, training state for adaptation, a
    ground-truth oracle for feedback) live alongside the declarative
    sections; :meth:`to_mapping` serializes only the sections, and
    :meth:`from_mapping` re-attaches the runtime objects.

    Attributes:
        model: a (trained) CRN network.
        featurizer: the featurizer bound to the serving database snapshot.
        pool: the queries pool backing the Cnt2Crd technique.
        fallback_estimator: answers requests with no matching pool query
            (stamped ``"fallback"``).
        training_result: the training run that produced ``model`` — required
            when adaptation is enabled (the retrainer fine-tunes from it).
        database: the snapshot ``model`` was trained against — required when
            adaptation is enabled (candidates are labelled against it).
        oracle: optional ground-truth source (``cardinality(query)``) the
            feedback collector uses when callers do not supply actuals.
    """

    model: CRNModel
    featurizer: QueryFeaturizer
    pool: QueriesPool
    fallback_estimator: Any | None = None
    training_result: TrainingResult | None = None
    database: Database | None = None
    oracle: Any | None = None
    pool_options: PoolConfig = field(default_factory=PoolConfig)
    caches: CacheConfig = field(default_factory=CacheConfig)
    dispatcher: DispatcherConfig = field(default_factory=DispatcherConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    tracing: TracingConfig = field(default_factory=TracingConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    artifacts: ArtifactConfig = field(default_factory=ArtifactConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self) -> None:
        if self.tracing.enabled and not self.observability.enabled:
            raise ValueError(
                "tracing.enabled requires observability.enabled: spans sink "
                "through the event recorder into the store's spans tables"
            )
        if self.adaptation.enabled:
            if not self.feedback.enabled:
                raise ValueError(
                    "adaptation.enabled requires feedback.enabled: the drift "
                    "monitor and the accept gate read the feedback window"
                )
            if self.training_result is None or self.database is None:
                raise ValueError(
                    "adaptation.enabled requires training_result and database: "
                    "the retrainer fine-tunes the accepted weights against the "
                    "current snapshot"
                )
            if self.feedback.max_observations < self.adaptation.min_observations:
                raise ValueError(
                    f"feedback.max_observations ({self.feedback.max_observations}) is "
                    f"smaller than adaptation.min_observations "
                    f"({self.adaptation.min_observations}): the drift conditions "
                    f"could never arm"
                )
        if self.cluster.enabled:
            if self.adaptation.enabled:
                raise ValueError(
                    "cluster mode does not support adaptation.enabled: hot "
                    "swaps are per-process, so sharded workers would diverge; "
                    "adapt in a local-mode deployment and promote the artifact "
                    "generation the cluster boots from"
                )
            if self.feedback.enabled:
                raise ValueError(
                    "cluster mode does not support feedback.enabled: the "
                    "feedback window lives in the worker processes, not the "
                    "front-end; collect feedback in a local-mode deployment"
                )
            if self.artifacts.enabled and self.database is None:
                raise ValueError(
                    "cluster mode with artifacts needs database: workers "
                    "cold-boot their shard via ServingClient.from_artifact, "
                    "which rebuilds the featurizer from the database schema"
                )

    # ------------------------------------------------------------------ #
    # dict/JSON round-trip

    def to_mapping(self) -> dict[str, dict[str, Any]]:
        """The declarative sections as a nested plain dict (JSON-ready)."""
        return {
            key: asdict(getattr(self, attribute))
            for key, _, attribute in _SECTION_SPECS
        }

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[str, Mapping[str, Any]],
        *,
        model: CRNModel,
        featurizer: QueryFeaturizer,
        pool: QueriesPool,
        fallback_estimator: Any | None = None,
        training_result: TrainingResult | None = None,
        database: Database | None = None,
        oracle: Any | None = None,
    ) -> "ServingConfig":
        """Rebuild a config from :meth:`to_mapping` output plus runtime objects.

        Missing sections and missing fields take their defaults; unknown
        sections and unknown fields raise a ``ValueError`` naming them (a
        typo in a deployment config must not silently become a default).
        """
        unknown = sorted(set(mapping) - set(_SECTIONS))
        if unknown:
            raise ValueError(
                f"unknown config section(s) {unknown}; expected a subset of "
                f"{list(_SECTIONS)}"
            )
        sections: dict[str, Any] = {}
        for key, section_type, attribute in _SECTION_SPECS:
            values = dict(mapping.get(key, {}))
            known = {spec.name for spec in fields(section_type)}
            bad = sorted(set(values) - known)
            if bad:
                raise ValueError(
                    f"unknown field(s) {bad} in config section {key!r}; "
                    f"expected a subset of {sorted(known)}"
                )
            sections[attribute] = section_type(**values)
        return cls(
            model=model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=fallback_estimator,
            training_result=training_result,
            database=database,
            oracle=oracle,
            **sections,
        )
