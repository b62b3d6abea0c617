"""The online cardinality-estimation service façade.

:class:`EstimationService` is the piece that turns the paper's estimators into
serving infrastructure: it serves one estimator (Cnt2Crd over the CRN),
hot-swapped by :meth:`EstimationService.replace`, with an optional fallback
for what the pool cannot match; scores the Cnt2Crd work of concurrent
requests as one batch through
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.slab_values`; and records
per-request latency plus service-level hit-rate statistics read from the
served estimator's own caches (rendered by
:func:`repro.evaluation.reporting.format_service_stats`).

The batched path is exact, not approximate: the core routine resolves each
request to its bucket slab (with resident rows when the estimator has a
:class:`repro.serving.PoolEncodingIndex`), scores identical
``(query, slab)`` work once, and turns the rates into values with the
estimator's own
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.estimate_values_from_rates`; the
service then runs the fallback chain a request without values needs and
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.collapse_values`, so a served
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
from repro.observability.events import BatchServed, RequestServed
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracing import SpanHandle
from repro.serving.cache import EncodingCache, FeaturizationCache
from repro.sql.query import Query

#: :attr:`EstimateResult.estimator_name` of an answer from the served estimator.
ESTIMATOR_NAME = "crn"
#: :attr:`EstimateResult.estimator_name` of an answer from the service's fallback.
FALLBACK_NAME = "fallback"

#: Resolution stamp: the request was scored from the pool encoding index's
#: whole-pool slab matrices (a slab with resident rows).
RESOLUTION_INDEXED_SLAB = "indexed_slab"
#: Resolution stamp: the request's slab carried no resident rows and was
#: scored pair by pair.
RESOLUTION_PAIR_BATCH = "pair_batch"
#: Resolution stamp: the request's primary had no answer and the estimator's
#: own built-in fallback produced the estimate.
RESOLUTION_ESTIMATOR_FALLBACK = "estimator_fallback"
#: Resolution stamp: the service's fallback estimator produced the estimate.
RESOLUTION_REGISTRY_FALLBACK = "registry_fallback"
#: Resolution stamp: a non-Cnt2Crd estimator answered through its own
#: per-query interface (no batched slab scoring involved).
RESOLUTION_DIRECT = "direct"


@dataclass(frozen=True)
class RequestOptions:
    """Per-request knobs, threaded from the client through dispatcher and service.

    Attributes:
        timeout_seconds: the caller's deadline, positive and finite (a bool
            is not a number of seconds and fails too).  Honored
            on the dispatcher-backed paths
            (:meth:`repro.serving.ServingClient.estimate`,
            :meth:`repro.serving.ServingDispatcher.estimate`): when it expires
            the caller gets :class:`repro.serving.DeadlineExceededError`, the
            abandoned request is cancelled at batch pickup when possible, and
            the dispatcher counts it under ``timed_out``.
        tags: caller-supplied key/value labels, stamped verbatim onto the
            request's :class:`EstimateResult` (accepted as a mapping or an
            iterable of pairs; normalized to a sorted tuple of pairs).
    """

    timeout_seconds: float | None = None
    tags: Mapping[str, str] | tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # NaN and inf fail too: a NaN deadline expires at once, and an
        # infinite one overflows the timed waits it reaches.
        timeout = self.timeout_seconds
        if timeout is not None and (isinstance(timeout, bool) or not 0 < timeout < math.inf):
            raise ValueError(
                f"timeout_seconds must be positive and finite, got {timeout!r}"
            )
        items = (
            self.tags.items() if isinstance(self.tags, Mapping) else self.tags
        )
        normalized = tuple(sorted((str(key), str(value)) for key, value in items))
        object.__setattr__(self, "tags", normalized)


#: The options applied when a caller passes none.
_DEFAULT_OPTIONS = RequestOptions()

@dataclass(frozen=True)
class EstimateResult:
    """One answered estimation request, with its provenance.

    Every serving path (``submit`` / ``submit_batch``, the dispatcher, the
    client, the cluster router) returns these, so a response says *how* it
    was produced — which resolution path ran, which model generation
    answered (bumped by every :meth:`EstimationService.replace` hot swap, so
    a post-swap response is attributable to the exact model that produced
    it), and how much of the work came out of the answering estimator's
    caches.

    Attributes:
        query: the estimated query.
        estimate: the estimated cardinality.
        estimator_name: :data:`ESTIMATOR_NAME` when the served estimator
            produced the estimate, :data:`FALLBACK_NAME` when the service's
            fallback did.
        latency_seconds: wall-clock time attributed to this request.  Exact
            for :meth:`EstimationService.submit`; for batched submissions it
            is the batch's elapsed time divided by the batch size.
        pool_matches: eligible pool entries the query was scored against.
        pairs_scored: containment pairs scored for the request
            (``2 * pool_matches``; identical requests of one batch share
            them).
        used_fallback: True when the service's fallback answered the request.
        resolution: ``"indexed_slab"`` (whole-pool slab scoring through the
            :class:`repro.serving.PoolEncodingIndex`), ``"pair_batch"`` (a
            slab without resident rows, scored pair by pair),
            ``"estimator_fallback"`` (the
            estimator's built-in fallback), ``"registry_fallback"`` (the
            service's fallback), or ``"direct"`` (a non-Cnt2Crd
            estimator's own per-query interface).
        model_generation: the generation of the estimator that answered
            (:attr:`EstimationService.generation` for the served estimator,
            1 for the fallback).
        featurization_cache_hits: featurization-cache hits recorded during
            the batch that served this request (batch-attributed, like
            ``latency_seconds``; 0 for an estimator without a cache).
        encoding_cache_hits: encoding-cache hits recorded during the batch
            that served this request (batch-attributed; 0 without a cache).
        tags: the caller's :attr:`RequestOptions.tags`, echoed back.
        queue_wait_seconds: time the request spent in the dispatcher queue
            between enqueue and batch pickup (0.0 on the synchronous paths,
            which have no queue).  **Not** part of ``latency_seconds``,
            which remains pure service time.
    """

    query: Query
    estimate: float
    estimator_name: str
    latency_seconds: float
    pool_matches: int
    pairs_scored: int
    used_fallback: bool
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


def _caches(estimator: CardinalityEstimator) -> dict[str, FeaturizationCache | EncodingCache]:
    """The request caches ``estimator`` serves with, by report name (none for
    an estimator without a CRN or without caches)."""
    containment = getattr(estimator, "containment_estimator", None)
    if not isinstance(containment, CRNEstimator):
        return {}
    caches = {"featurization": containment.featurizer, "encoding": containment.encoding_cache}
    return {
        name: cache
        for name, cache in caches.items()
        if isinstance(cache, (FeaturizationCache, EncodingCache))
    }


class EstimationService:
    """An online, batching, caching front-end over one served estimator.

    The service serves one estimator, hot-swapped by :meth:`replace`, and
    re-routes what it cannot answer to an optional fallback fixed at
    construction.  It is thread-safe: the estimator and its generation are
    read under one lock (so :meth:`replace` can hot-swap while other threads
    submit), stats updates are atomic, and the caches and the queries pool
    take their own fine-grained locks.  Model forward passes themselves only
    *read* shared state, so concurrent ``submit_batch`` calls do not
    serialize on the scoring work — but each call still pays its own slab
    resolution and featurization.  For high-concurrency traffic, front the
    service with a :class:`repro.serving.ServingDispatcher`, which coalesces
    many callers' requests into few shared batches.

    Args:
        estimator: the served estimator, stamped :data:`ESTIMATOR_NAME`.  A
            :class:`Cnt2CrdEstimator` is scored in batches; any other
            estimator answers one query at a time (``"direct"``).
        fallback: optional estimator answering requests for which the served
            one raises :class:`NoMatchingPoolQueryError` (see the recovery
            strategies in :mod:`repro.core.cnt2crd`), stamped
            :data:`FALLBACK_NAME` at generation 1.
        generation: the served estimator's model generation — 1, or the
            generation an artifact was saved at, so
            :attr:`EstimateResult.model_generation` stays continuous across
            a restart.  Every :meth:`replace` bumps it.
        recorder: an :class:`repro.observability.EventRecorder` receiving
            the typed serving events (one ``request_served`` per answered
            request, one ``batch_served`` with the cache hit/miss deltas per
            batch).  Emission is a bounded-buffer append — no I/O, no locks
            on the hot path — and ``None`` (the default) reduces the whole
            instrumentation to one attribute test per batch.
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
        estimator: CardinalityEstimator,
        fallback: CardinalityEstimator | None = None,
        *,
        generation: int = 1,
        recorder=None,
        tracer=None,
    ) -> None:
        if not isinstance(generation, int) or isinstance(generation, bool) or generation <= 0:
            raise ValueError(f"generation must be a positive int, got {generation!r}")
        self._estimator = estimator
        self._generation = generation
        self.fallback = fallback
        self.recorder = recorder
        self.tracer = tracer
        #: Counters since boot; ``total_seconds`` is attributed service time.
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
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the served estimator

    @property
    def estimator(self) -> CardinalityEstimator:
        """The served estimator: the booted one until a :meth:`replace`."""
        with self._lock:
            return self._estimator

    @property
    def generation(self) -> int:
        """The served estimator's model generation, bumped by every :meth:`replace`."""
        with self._lock:
            return self._generation

    def replace(self, estimator: CardinalityEstimator) -> CardinalityEstimator:
        """Atomically hot-swap the served estimator; returns the previous one.

        This is the zero-downtime update path: in-flight batches finish on
        the estimator object they already resolved — on its own caches and
        pool index slabs, which live and die with it — and every submission
        that resolves after this call is served by the replacement, stamped
        with the bumped :attr:`generation`.
        """
        with self._lock:
            previous, self._estimator = self._estimator, estimator
            self._generation += 1
        return previous

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

        A served Cnt2Crd estimator is scored as a few large deduplicated
        forward passes (:meth:`Cnt2CrdEstimator.slab_values`); any other
        estimator answers through its own per-query interface.  Requests the
        served estimator cannot answer (no matching pool query and no
        built-in fallback) are re-routed to the service's :attr:`fallback`
        when one is configured.

        ``options`` applies to the whole batch.  Every result is an
        :class:`EstimateResult` carrying its resolution path, the answering
        estimator's model generation, the batch's cache-hit deltas, and the
        caller's tags.

        ``stamps`` (dispatcher-internal) carries one ``(tags, queue wait
        seconds, enqueue instant)`` per query: what a coalesced request's own
        caller asked for and waited, which one batch-wide ``options`` cannot
        say, and the ``time.perf_counter()`` instant its trace's root
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
        # Estimator and generation resolve under one lock acquisition, so a
        # concurrent replace() cannot stamp the new generation on an answer
        # from the old estimator.
        with self._lock:
            chosen, generation = self._estimator, self._generation
        recorder = self.recorder
        tracer = self.tracer
        batch_span = None
        if tracer is not None:
            started = time.perf_counter()
            batch_span = tracer.begin(
                "service_batch", members=len(queries), estimator_name=ESTIMATOR_NAME
            )
        caches = _caches(chosen)
        before = {name: (cache.stats.hits, cache.stats.misses) for name, cache in caches.items()}
        start = time.perf_counter()
        try:
            if isinstance(chosen, Cnt2CrdEstimator):
                answers, planned_pairs, scored_pairs = self._submit_cnt2crd(
                    queries, generation, chosen
                )
            else:
                planned_pairs = scored_pairs = 0
                answers = [
                    self._guarded_estimate(query, generation, chosen) for query in queries
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
                    tracer.fail(
                        error, started, estimator_name=ESTIMATOR_NAME, members=len(queries)
                    )
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
        # on one estimator may bleed hits into each other's window, so the
        # counts are provenance hints, not an exact per-request ledger.
        deltas = {
            name: (cache.stats.hits - before[name][0], cache.stats.misses - before[name][1])
            for name, cache in caches.items()
        }
        feat_hits, feat_misses = deltas.get("featurization", (0, 0))
        enc_hits, enc_misses = deltas.get("encoding", (0, 0))
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
                    estimator_name=ESTIMATOR_NAME,
                    size=len(queries),
                    elapsed_seconds=elapsed,
                    planned_pairs=planned_pairs,
                    scored_pairs=scored_pairs,
                    featurization_hits=feat_hits,
                    featurization_misses=feat_misses,
                    encoding_hits=enc_hits,
                    encoding_misses=enc_misses,
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
        """Pre-encode request ``queries`` into the encoding cache.

        Runs through the served Cnt2Crd estimator's CRN containment model
        (:meth:`CRNEstimator.warm`: one featurization pass, one encoding
        pass per slot).  The caches hold request queries only: the pool is
        warmed by :meth:`PoolEncodingIndex.warm`, whose slabs are the only
        home of a pool entry's encodings.
        """
        containment = getattr(self.estimator, "containment_estimator", None)
        if isinstance(containment, CRNEstimator):
            containment.warm(list(queries))

    def stats_snapshot(self) -> dict[str, float]:
        """Service counters since boot plus the served estimator's cache hit
        rates and pool index gauges, ready for reporting.

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
        estimator = self.estimator
        for name, cache in _caches(estimator).items():
            snapshot[f"{name}_hit_rate"] = cache.stats_snapshot()["hit_rate"]
            snapshot[f"{name}_entries"] = float(len(cache))
        if getattr(estimator, "pool_index", None) is not None:
            snapshot.update(estimator.pool_index.stats_snapshot())
        return snapshot

    # ------------------------------------------------------------------ #
    # internals

    def _submit_cnt2crd(
        self,
        queries: Sequence[Query],
        generation: int,
        estimator: Cnt2CrdEstimator,
    ) -> tuple[list[_Answer], int, int]:
        tracer = self.tracer
        span = None
        if tracer is not None:
            attributes = {"mode": "reference"}
            inference_plan = getattr(estimator.containment_estimator, "inference_plan", None)
            if inference_plan is not None:
                attributes.update(inference_plan.kernel_info())
            span = tracer.begin(
                "slab_kernel", members=len(queries), estimator_name=ESTIMATOR_NAME, **attributes
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
                self._answer_request(query, slab, values, generation, estimator)
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
        generation: int,
        estimator: Cnt2CrdEstimator,
    ) -> _Answer:
        """One request's answer from its :meth:`Cnt2CrdEstimator.slab_values` result.

        A request without values — unmatched (``slab is None``), or matched
        with every eligible entry filtered by the epsilon guard — goes to
        the estimator's own fallback, then to the flagged service fallback.
        With a learned rate model a matched request's collapse to 0.0 could
        be a spurious zero, so it stands only when neither fallback exists
        (exactly right for exact rates and framed pools); an unmatched one
        then raises :class:`NoMatchingPoolQueryError`.
        """
        if slab is None:
            pool_matches, resolution = 0, None
        else:
            pool_matches = len(slab.entries)
            resolution = RESOLUTION_PAIR_BATCH if slab.first is None else RESOLUTION_INDEXED_SLAB
        pairs_scored = 2 * pool_matches
        if values.size == 0:
            try:
                value = estimator.fallback_estimate(query)
                return _Answer(
                    value,
                    ESTIMATOR_NAME,
                    generation,
                    False,
                    RESOLUTION_ESTIMATOR_FALLBACK,
                    pool_matches,
                    pairs_scored,
                )
            except NoMatchingPoolQueryError:
                pass
            try:
                return self._fallback(query, pool_matches, pairs_scored)
            except NoMatchingPoolQueryError:
                if slab is None:
                    raise
        return _Answer(
            estimator.collapse_values(values),
            ESTIMATOR_NAME,
            generation,
            False,
            resolution,
            pool_matches,
            pairs_scored,
        )

    def _guarded_estimate(
        self, query: Query, generation: int, estimator: CardinalityEstimator
    ) -> _Answer:
        """One non-Cnt2Crd estimate."""
        try:
            value = estimator.estimate_cardinality(query)
        except NoMatchingPoolQueryError:
            return self._fallback(query)
        return _Answer(value, ESTIMATOR_NAME, generation, False, RESOLUTION_DIRECT)

    def _fallback(self, query: Query, pool_matches: int = 0, pairs_scored: int = 0) -> _Answer:
        """Route a request the served estimator could not answer to the fallback.

        The fallback is never replaced, so its answers carry generation 1.
        """
        if self.fallback is None:
            raise NoMatchingPoolQueryError(
                f"estimator {ESTIMATOR_NAME!r} has no matching pool query for "
                f"{query.from_signature()} and the service has no fallback estimator"
            )
        return _Answer(
            self.fallback.estimate_cardinality(query),
            FALLBACK_NAME,
            1,
            True,
            RESOLUTION_REGISTRY_FALLBACK,
            pool_matches,
            pairs_scored,
        )
