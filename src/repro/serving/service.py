"""The online cardinality-estimation service façade.

:class:`EstimationService` is the piece that turns the paper's estimators into
serving infrastructure: it owns a registry of named cardinality estimators
(Cnt2Crd over CRN, improved baselines, plain baselines, ...), scores the
Cnt2Crd work of concurrent requests as one batch through
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.slab_values`, shares the
featurization / encoding caches across requests, and records per-request
latency plus service-level hit-rate statistics (rendered by
:func:`repro.evaluation.reporting.format_service_stats` and timed by
:func:`repro.evaluation.timing.time_service`).

The batched path is exact, not approximate: the core routine resolves each
request to its bucket slab (with resident rows when the
:class:`repro.serving.PoolEncodingIndex` can serve it), scores identical
``(query, slab)`` work once, and turns the rates into values with the
estimator's own
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.estimate_values_from_rates`; the
service then applies the request's fallback policy and
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.collapse_values` — the vectorized
bit-equal twins of ``estimates_from_rates`` / ``collapse`` — so a served
estimate is bit-for-bit identical to calling ``estimate_cardinality`` per
request.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.cnt2crd import Cnt2CrdEstimator, NoMatchingPoolQueryError
from repro.core.crn import CRNEstimator
from repro.core.estimators import CardinalityEstimator
from repro.core.queries_pool import PoolSlab
from repro.observability.counters import Counters
from repro.observability.events import BatchServed, RequestServed, StatsDrained
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracing import SpanHandle
from repro.serving.cache import EncodingCache, FeaturizationCache
from repro.serving.errors import UnknownEstimatorError
from repro.serving.pool_index import PoolEncodingIndex
from repro.sql.query import Query

#: Resolution stamp: the request was scored from the pool encoding index's
#: whole-pool slab matrices (a slab with resident rows).
RESOLUTION_INDEXED_SLAB = "indexed_slab"
#: Resolution stamp: the request's slab carried no resident rows and was
#: scored pair by pair.
RESOLUTION_PAIR_BATCH = "pair_batch"
#: Resolution stamp: the request's primary had no answer and the estimator's
#: own built-in fallback produced the estimate.
RESOLUTION_ESTIMATOR_FALLBACK = "estimator_fallback"
#: Resolution stamp: the registry-level fallback entry produced the estimate.
RESOLUTION_REGISTRY_FALLBACK = "registry_fallback"
#: Resolution stamp: a non-Cnt2Crd estimator answered through its own
#: per-query interface (no batched slab scoring involved).
RESOLUTION_DIRECT = "direct"

#: The per-request fallback policies accepted by :class:`RequestOptions`.
FALLBACK_POLICIES = ("registry", "estimator", "none")


@dataclass(frozen=True)
class ServedEstimate:
    """One answered estimation request.

    Attributes:
        query: the estimated query.
        estimate: the estimated cardinality.
        estimator_name: the registry name that produced the estimate (the
            fallback's name when the primary had no matching pool query).
        latency_seconds: wall-clock time attributed to this request.  Exact
            for :meth:`EstimationService.submit`; for batched submissions it
            is the batch's elapsed time divided by the batch size.
        pool_matches: eligible pool entries the query was scored against.
        pairs_scored: containment pairs scored for the request
            (``2 * pool_matches``; identical requests of one batch share
            them).
        used_fallback: True when the registry fallback answered the request.
    """

    query: Query
    estimate: float
    estimator_name: str
    latency_seconds: float
    pool_matches: int
    pairs_scored: int
    used_fallback: bool


@dataclass(frozen=True)
class RequestOptions:
    """Per-request knobs, threaded from the client through dispatcher and service.

    Attributes:
        estimator: the registry entry to serve from (the service default when
            None).  Takes precedence over the positional ``estimator``
            argument of the legacy ``submit`` / ``submit_batch`` surface.
        timeout_seconds: the caller's deadline, positive and finite.  Honored
            on the dispatcher-backed paths
            (:meth:`repro.serving.ServingClient.estimate`,
            :meth:`repro.serving.ServingDispatcher.estimate`): when it expires
            the caller gets :class:`repro.serving.DeadlineExceededError`, the
            abandoned request is cancelled at batch pickup when possible, and
            the dispatcher counts it under ``timed_out``.
        fallback_policy: what may answer when the chosen estimator cannot —
            ``"registry"`` (the default, today's behaviour: the estimator's
            built-in fallback first, then the registry fallback entry),
            ``"estimator"`` (built-in only), or ``"none"`` (neither; the
            request raises
            :class:`repro.core.cnt2crd.NoMatchingPoolQueryError`).  On the
            synchronous batch surface (``submit_batch`` / ``estimate_many``)
            that raise fails the whole batch — the long-standing semantics of
            a no-fallback batch — while the dispatcher isolates it to the
            poison request's future.
        tags: caller-supplied key/value labels, stamped verbatim onto the
            request's :class:`EstimateResult` (accepted as a mapping or an
            iterable of pairs; normalized to a sorted tuple of pairs).
    """

    estimator: str | None = None
    timeout_seconds: float | None = None
    fallback_policy: str = "registry"
    tags: Mapping[str, str] | tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.fallback_policy not in FALLBACK_POLICIES:
            raise ValueError(
                f"fallback_policy must be one of {FALLBACK_POLICIES}, "
                f"got {self.fallback_policy!r}"
            )
        # NaN and inf fail too: a NaN deadline expires at once, and an
        # infinite one overflows the timed waits it reaches.
        if self.timeout_seconds is not None and not 0 < self.timeout_seconds < math.inf:
            raise ValueError(
                f"timeout_seconds must be positive and finite, got {self.timeout_seconds!r}"
            )
        items = (
            self.tags.items() if isinstance(self.tags, Mapping) else self.tags
        )
        normalized = tuple(sorted((str(key), str(value)) for key, value in items))
        object.__setattr__(self, "tags", normalized)


#: The options applied when a caller passes none.
_DEFAULT_OPTIONS = RequestOptions()

@dataclass(frozen=True)
class EstimateResult(ServedEstimate):
    """A :class:`ServedEstimate` enriched with provenance.

    Every serving path (``submit`` / ``submit_batch``, the dispatcher, the
    client) now returns these, so a response says *how* it was produced —
    which resolution path ran, which model generation answered (bumped by
    every :meth:`EstimationService.replace` hot swap, so a post-swap response
    is attributable to the exact model that produced it), and how much of the
    work came out of the shared caches.

    Attributes:
        resolution: ``"indexed_slab"`` (whole-pool slab scoring through the
            :class:`repro.serving.PoolEncodingIndex`), ``"pair_batch"`` (a
            slab without resident rows, scored pair by pair),
            ``"estimator_fallback"`` (the
            estimator's built-in fallback), ``"registry_fallback"`` (the
            registry fallback entry), or ``"direct"`` (a non-Cnt2Crd
            estimator's own per-query interface).
        model_generation: the registry generation of the estimator that
            answered (1 on first registration, +1 per ``replace()``; 0 when
            the name was never registered through the generation-tracking
            surface).
        featurization_cache_hits: featurization-cache hits recorded during
            the batch that served this request (batch-attributed, like
            ``latency_seconds``; 0 without a cache).
        encoding_cache_hits: encoding-cache hits recorded during the batch
            that served this request (batch-attributed; 0 without a cache).
        tags: the caller's :attr:`RequestOptions.tags`, echoed back.
        queue_wait_seconds: time the request spent in the dispatcher queue
            between enqueue and batch pickup — previously folded invisibly
            into end-to-end wall time, now stamped separately (0.0 on the
            synchronous paths, which have no queue).  **Not** part of
            ``latency_seconds``, which remains pure service time.
    """

    resolution: str = RESOLUTION_PAIR_BATCH
    model_generation: int = 0
    featurization_cache_hits: int = 0
    encoding_cache_hits: int = 0
    tags: tuple[tuple[str, str], ...] = ()
    queue_wait_seconds: float = 0.0


class _Answer(NamedTuple):
    """What answering one request settles of its :class:`EstimateResult`.

    The rest -- latency, cache-hit deltas, tags, queue wait -- is known only
    when the batch is over, which is where :meth:`EstimationService.submit_batch`
    builds each result, once.
    """

    estimate: float
    estimator_name: str
    model_generation: int
    used_fallback: bool
    resolution: str
    pool_matches: int = 0
    pairs_scored: int = 0


def _counter_block(values: Mapping[str, float]) -> dict[str, float]:
    """The counter block of :meth:`EstimationService.stats_snapshot`."""
    requests, seconds = values["requests"], values["total_seconds"]
    return {
        "requests": float(requests),
        "batches": float(values["batches"]),
        "planned_pairs": float(values["planned_pairs"]),
        "scored_pairs": float(values["scored_pairs"]),
        "deduplicated_pairs": float(values["planned_pairs"] - values["scored_pairs"]),
        "fallbacks": float(values["fallbacks"]),
        "mean_latency_ms": seconds / requests * 1000.0 if requests else 0.0,
        "throughput_qps": requests / seconds if seconds > 0.0 else 0.0,
    }


class EstimationService:
    """An online, batching, caching front-end over the paper's estimators.

    The service is thread-safe: the registry is guarded by a lock (so
    :meth:`register` / :meth:`replace` can hot-swap estimators while other
    threads submit), stats updates are atomic, and the caches and the
    queries pool take their own fine-grained locks.  Model forward passes
    themselves only *read* shared state, so concurrent ``submit_batch``
    calls do not serialize on the scoring work — but each call still pays
    its own slab resolution and featurization.  For high-concurrency
    traffic, front the service with a :class:`repro.serving.ServingDispatcher`,
    which coalesces many callers' requests into few shared batches.

    Args:
        fallback: optional registry name answering requests for which the
            primary estimator raises :class:`NoMatchingPoolQueryError` (see
            the recovery strategies in :mod:`repro.core.cnt2crd`).
        featurization_cache: the cache shared by the registered estimators'
            featurizers, reported in :meth:`stats_snapshot` (optional).
        encoding_cache: the CRN encoding cache shared across requests,
            reported in :meth:`stats_snapshot` (optional).
        pool_index: the shared :class:`repro.serving.PoolEncodingIndex`
            backing the registered Cnt2Crd estimators, reported in
            :meth:`stats_snapshot` and rebuilt by the adaptation lifecycle
            on a model hot swap (optional).
        recorder: an :class:`repro.observability.EventRecorder` receiving
            the typed serving events (one ``request_served`` per answered
            request, one ``batch_served`` with the cache hit/miss deltas per
            batch, one ``stats_drained`` per :meth:`drain_stats`).  Emission
            is a bounded-buffer append — no I/O, no locks on the hot path —
            and ``None`` (the default) reduces the whole instrumentation to
            one attribute test per batch.
        tracer: an optional :class:`repro.observability.Tracer`.  When set,
            every batch records a ``service_batch`` span with a nested
            ``slab_kernel`` stage span around the Cnt2Crd scoring, and
            every request's trace links to the shared
            spans with its explicit amortized share — the fan-in attribution
            that makes a coalesced request's latency decomposable.  ``None``
            (the default) follows the recorder discipline: one attribute
            test per instrumentation point.
    """

    def __init__(
        self,
        fallback: str | None = None,
        featurization_cache: FeaturizationCache | None = None,
        encoding_cache: EncodingCache | None = None,
        pool_index: PoolEncodingIndex | None = None,
        recorder=None,
        tracer=None,
    ) -> None:
        self._registry: dict[str, CardinalityEstimator] = {}
        self._generations: dict[str, int] = {}
        self._default: str | None = None
        self.fallback = fallback
        self.featurization_cache = featurization_cache
        self.encoding_cache = encoding_cache
        self.pool_index = pool_index
        self.recorder = recorder
        self.tracer = tracer
        #: Cumulative counters; ``total_seconds`` is attributed service time.
        self.stats = Counters(
            requests=0,
            batches=0,
            planned_pairs=0,
            scored_pairs=0,
            fallbacks=0,
            total_seconds=0.0,
        )
        #: Fixed-memory distribution of attributed per-request latencies —
        #: the ``latency_p*_ms`` gauges in :meth:`stats_snapshot` come from
        #: here instead of an unbounded scan over recorded events.
        self.latency_histogram = LatencyHistogram()
        self._registry_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # registry

    def register(
        self, name: str, estimator: CardinalityEstimator, default: bool = False
    ) -> None:
        """Register ``estimator`` under a **new** ``name``.

        The first registration becomes the default (or pass ``default=True``).
        The entry starts at model generation 1; every subsequent
        :meth:`replace` of the name bumps it, and the serving paths stamp the
        answering entry's generation into :attr:`EstimateResult.model_generation`.

        Raises:
            ValueError: when ``name`` is empty, or already registered —
                silently overwriting a live entry would reset nothing and
                confuse generation attribution; hot swaps go through
                :meth:`replace`.
        """
        if not name:
            raise ValueError("estimator name must be non-empty")
        with self._registry_lock:
            if name in self._registry:
                raise ValueError(
                    f"estimator {name!r} is already registered; use replace() "
                    f"to hot-swap a live entry"
                )
            self._registry[name] = estimator
            self._generations[name] = 1
            if default or self._default is None:
                self._default = name

    def replace(self, name: str, estimator: CardinalityEstimator) -> CardinalityEstimator:
        """Atomically hot-swap the estimator registered under ``name``.

        This is the zero-downtime update path: in-flight batches finish on
        the estimator object they already resolved, and every submission
        that resolves after this call is served by the replacement.  To swap
        a retrained CRN that shares the service's encoding cache, call
        :meth:`repro.serving.EncodingCache.rebind` with the new model before
        building the replacement estimator.

        Every replace bumps the entry's model generation
        (:meth:`generation`), which the serving paths stamp into
        :attr:`EstimateResult.model_generation` — so a response served after
        the swap is attributable to the exact model that produced it.

        Returns:
            The estimator previously registered under ``name``.

        Raises:
            UnknownEstimatorError: when ``name`` was never registered (use
                :meth:`register` for new entries — replacing an unknown name
                is almost always a typo).  Also a ``KeyError``.
        """
        with self._registry_lock:
            if name not in self._registry:
                raise UnknownEstimatorError(
                    f"cannot replace unregistered estimator {name!r}; "
                    f"registered: {sorted(self._registry)}"
                )
            previous = self._registry[name]
            self._registry[name] = estimator
            self._generations[name] = self._generations.get(name, 0) + 1
            return previous

    def names(self) -> list[str]:
        """All registered estimator names, in registration order."""
        with self._registry_lock:
            return list(self._registry)

    @property
    def default_estimator(self) -> str:
        """The name served when a request does not pick an estimator."""
        with self._registry_lock:
            if self._default is None:
                raise LookupError("no estimator registered")
            return self._default

    def get(self, name: str | None = None) -> CardinalityEstimator:
        """The estimator registered under ``name`` (default when None).

        Raises:
            UnknownEstimatorError: when ``name`` is not registered (also a
                ``KeyError``, for pre-taxonomy callers).
        """
        with self._registry_lock:
            chosen = name if name is not None else self.default_estimator
            try:
                return self._registry[chosen]
            except KeyError:
                raise UnknownEstimatorError(
                    f"unknown estimator {chosen!r}; registered: {sorted(self._registry)}"
                ) from None

    def generation(self, name: str) -> int:
        """The model generation of the entry registered under ``name``.

        1 on first registration, bumped by every :meth:`replace`; 0 for a
        name that was never registered.
        """
        with self._registry_lock:
            return self._generations.get(name, 0)

    def set_generation(self, name: str, generation: int) -> None:
        """Stamp the registered entry's model generation to ``generation``.

        This is the cold-boot provenance hook: a stack restored from an
        artifact snapshot (:mod:`repro.artifacts`) re-registers its estimator
        — which would start the count back at 1 — and then stamps the
        *saved* generation here, so
        :attr:`EstimateResult.model_generation` stays continuous across a
        restart and the next adaptation promote advances from the restored
        number, not from 1.

        Raises:
            UnknownEstimatorError: when ``name`` is not registered.
            ValueError: when ``generation`` is not a positive int.
        """
        if not isinstance(generation, int) or isinstance(generation, bool) or generation <= 0:
            raise ValueError(f"generation must be a positive int, got {generation!r}")
        with self._registry_lock:
            if name not in self._registry:
                raise UnknownEstimatorError(
                    f"cannot set generation of unregistered estimator {name!r}; "
                    f"registered: {sorted(self._registry)}"
                )
            self._generations[name] = generation

    # ------------------------------------------------------------------ #
    # serving

    def submit(
        self, query: Query, options: RequestOptions | None = None
    ) -> EstimateResult:
        """Estimate one query (a batch of one)."""
        return self.submit_batch([query], options=options)[0]

    def submit_batch(
        self,
        queries: Sequence[Query],
        options: RequestOptions | None = None,
        stamps: Sequence[tuple[tuple[tuple[str, str], ...], float, float]] | None = None,
        context: SpanHandle | None = None,
    ) -> list[EstimateResult]:
        """Estimate many concurrent requests with cross-request batching.

        Cnt2Crd-family estimators are scored as a few large deduplicated
        forward passes (:meth:`Cnt2CrdEstimator.slab_values`); other
        estimators fall back to their own per-query interface.  Requests the
        primary estimator cannot answer (no matching pool query and no
        built-in fallback) are re-routed to the registry :attr:`fallback`
        when one is configured — unless the request's
        :attr:`RequestOptions.fallback_policy` forbids it.

        ``options`` applies to the whole batch (the dispatcher groups
        requests by estimator and fallback policy before submitting), and
        ``options.estimator`` picks the registry entry (the default when
        None).  Every result is an :class:`EstimateResult` carrying its
        resolution path, the answering entry's model generation, the batch's
        cache-hit deltas, and the caller's tags.

        ``stamps`` (dispatcher-internal) carries one ``(tags, queue wait
        seconds, enqueue instant)`` per query: what a coalesced request's own
        caller asked for and waited, which the group's batch-wide ``options``
        cannot say, and the ``time.perf_counter()`` instant its trace's root
        span starts at.  Without it every result takes ``options.tags`` and a
        wait of 0.0, and every root span starts with the batch.  ``context``
        (dispatcher-internal) is the enclosing ``dispatcher_batch`` span.

        With a tracer attached, the batch's members are sampled in one
        :meth:`repro.observability.Tracer.sample` window over their root
        durations (all ending with the batch) and only the kept ones are
        written.  Each links to this batch's ``service_batch`` span with its
        amortized share (``elapsed / len(queries)`` — the *same* division
        that produces ``latency_seconds``, so a trace's amortized links sum
        exactly to the stamped latency); a dispatched member also gets its
        ``queue_wait`` stage and a ``context`` link to ``context``.  A
        synchronous batch that raises leaves one error trace for all its
        members; a dispatched batch that raises leaves none, because the
        dispatcher retries its members one by one and fails their traces.
        """
        if not queries:
            return []
        if options is None:
            options = _DEFAULT_OPTIONS
        # Estimator and generation resolve under one registry-lock
        # acquisition, so a concurrent replace() cannot stamp the new
        # generation on an answer from the old estimator.
        with self._registry_lock:
            name = (
                options.estimator
                if options.estimator is not None
                else self.default_estimator
            )
            chosen = self.get(name)
            generation = self._generations.get(name, 0)
        recorder = self.recorder
        tracer = self.tracer
        batch_span = None
        if tracer is not None:
            started = time.perf_counter()
            batch_span = tracer.begin(
                "service_batch", members=len(queries), estimator_name=name
            )
        feat_hits_before = (
            self.featurization_cache.stats.hits
            if self.featurization_cache is not None
            else 0
        )
        enc_hits_before = (
            self.encoding_cache.stats.hits if self.encoding_cache is not None else 0
        )
        if recorder is not None:
            feat_misses_before = (
                self.featurization_cache.stats.misses
                if self.featurization_cache is not None
                else 0
            )
            enc_misses_before = (
                self.encoding_cache.stats.misses
                if self.encoding_cache is not None
                else 0
            )
        start = time.perf_counter()
        try:
            if isinstance(chosen, Cnt2CrdEstimator):
                answers, planned_pairs, scored_pairs = self._submit_cnt2crd(
                    queries, name, generation, chosen, options
                )
            else:
                planned_pairs = scored_pairs = 0
                answers = [
                    self._guarded_estimate(query, name, generation, chosen, options)
                    for query in queries
                ]
        except BaseException as error:
            # Ending the batch span pops every nested stage span off this
            # thread's stack too, so a failed batch cannot poison the
            # parenting of the next one.
            if batch_span is not None:
                tracer.end(batch_span, error=type(error).__name__)
                if stamps is None:
                    # One error trace stands for the whole synchronous batch
                    # (its members are indistinguishable).
                    tracer.fail(error, started, estimator_name=name, members=len(queries))
            raise
        elapsed = time.perf_counter() - start
        latency = elapsed / len(queries)
        if batch_span is not None:
            tracer.end(
                batch_span,
                size=len(queries),
                planned_pairs=planned_pairs,
                scored_pairs=scored_pairs,
            )
        self.latency_histogram.record(latency, count=len(queries))
        # Cache hits are batch-attributed, like latency: concurrent batches
        # sharing the caches may bleed hits into each other's window, so the
        # counts are provenance hints, not an exact per-request ledger.
        feat_hits = (
            self.featurization_cache.stats.hits - feat_hits_before
            if self.featurization_cache is not None
            else 0
        )
        enc_hits = (
            self.encoding_cache.stats.hits - enc_hits_before
            if self.encoding_cache is not None
            else 0
        )
        if stamps is None:
            stamps = [(options.tags, 0.0, None)] * len(queries)
        served = [
            EstimateResult(
                query=query,
                estimate=answer.estimate,
                estimator_name=answer.estimator_name,
                latency_seconds=latency,
                pool_matches=answer.pool_matches,
                pairs_scored=answer.pairs_scored,
                used_fallback=answer.used_fallback,
                resolution=answer.resolution,
                model_generation=answer.model_generation,
                featurization_cache_hits=feat_hits,
                encoding_cache_hits=enc_hits,
                tags=tags,
                queue_wait_seconds=queue_wait,
            )
            for query, answer, (tags, queue_wait, _) in zip(queries, answers, stamps, strict=True)
        ]
        if batch_span is not None:
            # The fan-in attribution contract: each member's amortized share
            # is the SAME elapsed/size division that produced ``latency``
            # above, so sum(amortized links) == latency_seconds exactly.
            end = time.perf_counter()
            starts = [started if enqueued is None else enqueued for _, _, enqueued in stamps]
            for index in tracer.sample([end - start for start in starts]):
                item = served[index]
                wait = item.queue_wait_seconds
                dispatched = (
                    {}
                    if stamps[index][2] is None
                    else {"queue_wait": wait, "context": context, "queue_wait_seconds": wait}
                )
                tracer.emit_request(
                    starts[index],
                    end,
                    item.estimator_name,
                    batch=batch_span,
                    amortized_seconds=latency,
                    latency_seconds=latency,
                    estimator=item.estimator_name,
                    resolution=item.resolution,
                    **dispatched,
                )
        self.stats.update(
            requests=len(queries),
            batches=1,
            planned_pairs=planned_pairs,
            scored_pairs=scored_pairs,
            fallbacks=sum(1 for item in served if item.used_fallback),
            total_seconds=elapsed,
        )
        if recorder is not None:
            recorder.emit(
                BatchServed(
                    estimator_name=name,
                    size=len(queries),
                    elapsed_seconds=elapsed,
                    planned_pairs=planned_pairs,
                    scored_pairs=scored_pairs,
                    featurization_hits=feat_hits,
                    featurization_misses=(
                        self.featurization_cache.stats.misses - feat_misses_before
                        if self.featurization_cache is not None
                        else 0
                    ),
                    encoding_hits=enc_hits,
                    encoding_misses=(
                        self.encoding_cache.stats.misses - enc_misses_before
                        if self.encoding_cache is not None
                        else 0
                    ),
                )
            )
            for item in served:
                recorder.emit(
                    RequestServed(
                        estimator_name=item.estimator_name,
                        resolution=item.resolution,
                        generation=item.model_generation,
                        estimate=item.estimate,
                        latency_seconds=item.latency_seconds,
                        pool_matches=item.pool_matches,
                        pairs_scored=item.pairs_scored,
                        used_fallback=item.used_fallback,
                    )
                )
        return served

    def warm(self, queries: Iterable[Query]) -> None:
        """Pre-featurize and pre-encode ``queries`` ahead of their requests.

        Runs through the registered Cnt2Crd estimators' CRN containment
        models (:meth:`CRNEstimator.warm`: one bulk pass per slot).  The
        pool itself is warmed by :meth:`PoolEncodingIndex.warm`, which fills
        the caches and the slabs in the same pass.
        """
        queries = list(queries)
        warmed: set[int] = set()
        with self._registry_lock:
            estimators = list(self._registry.values())
        for estimator in estimators:
            if not isinstance(estimator, Cnt2CrdEstimator):
                continue
            containment = estimator.containment_estimator
            if isinstance(containment, CRNEstimator) and id(containment) not in warmed:
                containment.warm(queries)
                warmed.add(id(containment))

    def stats_snapshot(self) -> dict[str, float]:
        """Service counters plus cache hit rates, ready for reporting.

        The counter block is one locked read, so the snapshot is internally
        consistent even while other threads are submitting.
        """
        snapshot = _counter_block(self.stats.snapshot())
        histogram = self.latency_histogram.snapshot()
        if histogram.count:
            # Bucketed, not exact: within one bucket width (~±9%) of the true
            # quantile, at O(1) memory regardless of traffic volume.
            snapshot["latency_p50_ms"] = histogram.quantile(0.5) * 1000.0
            snapshot["latency_p90_ms"] = histogram.quantile(0.9) * 1000.0
            snapshot["latency_p99_ms"] = histogram.quantile(0.99) * 1000.0
        for name, cache in (
            ("featurization", self.featurization_cache),
            ("encoding", self.encoding_cache),
        ):
            if cache is not None:
                snapshot[f"{name}_hit_rate"] = cache.stats_snapshot()["hit_rate"]
                snapshot[f"{name}_entries"] = float(len(cache))
        if self.pool_index is not None:
            snapshot.update(self.pool_index.stats_snapshot())
        return snapshot

    def drain_stats(self) -> dict[str, float]:
        """Atomically snapshot **and reset** the service counter block.

        A ``stats_snapshot()`` followed by a separate reset is not atomic:
        submissions landing between the two calls are counted by neither the
        drained interval nor the next one, and a reset racing a snapshot can
        yield a torn view (requests from before the reset, seconds from
        after).  Draining does both in one lock window of the counters, so
        periodic consumers — the lifecycle metrics path attributes serving
        counters to the model generation that produced them this way — see
        every request exactly once.

        Returns only the counter block (no cache rows: cache hit rates are
        cumulative gauges owned by the caches, not per-interval counters).

        Draining no longer *discards* history: with a recorder attached, the
        drained interval is emitted as a ``stats_drained`` event, so the
        event store's summed intervals plus the live counters always equal
        the all-time totals — :meth:`repro.serving.ServingClient.stats` and
        the store can never disagree (pinned by the consistency test in
        ``tests/test_observability_serving.py``).
        """
        recorder = self.recorder
        # Emitted inside the drain's lock window: two racing drains must land
        # their events in the same order they drained, or the store's
        # interval history would interleave inconsistently with the resets.
        emit = (
            None if recorder is None else lambda values: recorder.emit(StatsDrained(**values))
        )
        return _counter_block(self.stats.drain(emit))

    # ------------------------------------------------------------------ #
    # internals

    def _submit_cnt2crd(
        self,
        queries: Sequence[Query],
        name: str,
        generation: int,
        estimator: Cnt2CrdEstimator,
        options: RequestOptions,
    ) -> tuple[list[_Answer], int, int]:
        tracer = self.tracer
        span = None
        if tracer is not None:
            attributes = {"mode": "reference"}
            inference_plan = getattr(estimator.containment_estimator, "inference_plan", None)
            if inference_plan is not None:
                attributes.update(inference_plan.kernel_info())
            span = tracer.begin(
                "slab_kernel", members=len(queries), estimator_name=name, **attributes
            )
        results, scored = estimator.slab_values(queries)
        if span is not None:
            tracer.end(span)
        planned = 0
        answers = []
        for query, (slab, values) in zip(queries, results):
            if slab is not None:
                planned += 2 * len(slab.entries)
            answers.append(
                self._answer_request(query, slab, values, name, generation, estimator, options)
            )
        # Pair counts are returned (not applied here) so the caller records
        # them atomically with requests/batches — and only for completed
        # batches: when a request with no fallback raises above, no counter
        # moves at all.
        return answers, planned, scored

    def _answer_request(
        self,
        query: Query,
        slab: PoolSlab | None,
        values: np.ndarray,
        name: str,
        generation: int,
        estimator: Cnt2CrdEstimator,
        options: RequestOptions,
    ) -> _Answer:
        """One request's answer from its :meth:`Cnt2CrdEstimator.slab_values` result."""
        allow_builtin = options.fallback_policy != "none"
        allow_registry = options.fallback_policy == "registry"
        if slab is None:
            if allow_builtin:
                try:
                    value = estimator.fallback_estimate(query)
                    return _Answer(
                        value, name, generation, False, RESOLUTION_ESTIMATOR_FALLBACK
                    )
                except NoMatchingPoolQueryError:
                    pass
            if allow_registry:
                return self._registry_fallback(query, name)
            raise NoMatchingPoolQueryError(
                f"estimator {name!r} has no matching pool query for "
                f"{query.from_signature()} and the request's fallback "
                f"policy ({options.fallback_policy!r}) permits no re-route"
            )
        pool_matches = len(slab.entries)
        pairs_scored = 2 * pool_matches
        if values.size == 0:
            # Matched, but every eligible entry was filtered by the epsilon
            # guard (or every match had an empty result): with a learned rate
            # model, collapsing to 0.0 would bypass the fallbacks with a
            # spurious zero.  Recovery chain mirrors the FROM-miss route —
            # the estimator's own fallback first, then the flagged registry
            # re-route; only when neither exists (or the request's policy
            # forbids them) does the legacy collapse-to-0 stand (exactly
            # right for exact rates and framed pools).
            if allow_builtin:
                try:
                    value = estimator.fallback_estimate(query)
                    return _Answer(
                        value,
                        name,
                        generation,
                        False,
                        RESOLUTION_ESTIMATOR_FALLBACK,
                        pool_matches,
                        pairs_scored,
                    )
                except NoMatchingPoolQueryError:
                    pass
            if allow_registry:
                try:
                    return self._registry_fallback(query, name, pool_matches, pairs_scored)
                except NoMatchingPoolQueryError:
                    pass
        return _Answer(
            estimator.collapse_values(values),
            name,
            generation,
            False,
            RESOLUTION_PAIR_BATCH if slab.first is None else RESOLUTION_INDEXED_SLAB,
            pool_matches,
            pairs_scored,
        )

    def _guarded_estimate(
        self,
        query: Query,
        name: str,
        generation: int,
        estimator: CardinalityEstimator,
        options: RequestOptions,
    ) -> _Answer:
        """One non-Cnt2Crd estimate."""
        try:
            value = estimator.estimate_cardinality(query)
        except NoMatchingPoolQueryError:
            if options.fallback_policy != "registry":
                raise
            return self._registry_fallback(query, name)
        return _Answer(value, name, generation, False, RESOLUTION_DIRECT)

    def _registry_fallback(
        self, query: Query, failed: str, pool_matches: int = 0, pairs_scored: int = 0
    ) -> _Answer:
        """Route a request the primary could not answer to the registry fallback.

        The answer carries the fallback's name and generation, resolved
        under one registry-lock acquisition.
        """
        with self._registry_lock:
            fallback = self.fallback
            estimator = (
                self._registry.get(fallback)
                if fallback is not None and fallback != failed
                else None
            )
            generation = self._generations.get(fallback, 0) if fallback else 0
        if estimator is None:
            raise NoMatchingPoolQueryError(
                f"estimator {failed!r} has no matching pool query for "
                f"{query.from_signature()} and the service has no fallback estimator"
            )
        return _Answer(
            estimator.estimate_cardinality(query),
            fallback,
            generation,
            True,
            RESOLUTION_REGISTRY_FALLBACK,
            pool_matches,
            pairs_scored,
        )
