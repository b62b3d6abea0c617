"""The Cnt2Crd transformation and the cardinality estimation technique (Section 5).

Given a containment rate estimator and a queries pool of previously executed
queries with known cardinalities, a new query's cardinality is estimated as

    |Qnew| ≈ F over matching pool queries Qold of
             (Qold ⊂% Qnew) / (Qnew ⊂% Qold) * |Qold|

skipping pool queries for which the denominator rate is (close to) zero, and
collapsing the per-pool-query estimates with the final function ``F``
(median by default, Section 5.3.1).

The estimation pipeline is factored into composable steps —
:meth:`Cnt2CrdEstimator.resolve` (the query's bucket as a
:class:`repro.core.queries_pool.PoolSlab`) →
:meth:`repro.core.estimators.ContainmentEstimator.rates_against_pools`
(batched containment rates) → :meth:`Cnt2CrdEstimator.estimate_values_from_rates`
→ :meth:`Cnt2CrdEstimator.collapse_values`.  One routine runs them over a
batch: :meth:`Cnt2CrdEstimator.slab_values` resolves every query, scores each
distinct ``(query, slab token)`` once, in chunks of at most
:data:`PAIR_BUDGET` pairs per ``rates_against_pools`` call, and
:meth:`Cnt2CrdEstimator.estimate_cardinalities` finishes each query.  The
evaluation harness, the serving layer (:class:`repro.serving.EstimationService`)
and the adaptation gate all score through it, and rates do not depend on how
pairs are grouped, so every batch gives the bits of
:meth:`Cnt2CrdEstimator.estimate_cardinality` query by query.

Recovering from :class:`NoMatchingPoolQueryError`
-------------------------------------------------

The technique can only score a new query against pool queries that share its
FROM clause, so a query over a never-seen table combination has no anchor and
:meth:`Cnt2CrdEstimator.estimate_cardinality` raises
:class:`NoMatchingPoolQueryError`.  Three recovery strategies, in decreasing
order of fidelity:

1. **Seed the pool with frame queries** (Section 5.2): add the predicate-free
   query ``SELECT * FROM <tables> WHERE <joins>`` for every FROM/join
   combination the workload can produce
   (:meth:`repro.sql.query.Query.without_predicates`, or
   ``build_queries_pool_queries(..., include_frames=True)``).  Every incoming
   query then has at least one match, and the error disappears entirely.
2. **Configure a fallback estimator**: pass ``fallback=`` (e.g. the
   PostgreSQL-style baseline, or the base model ``M`` when building
   ``Improved M``) and the estimator silently delegates unmatched queries
   instead of raising.
3. **Catch and route at the service layer**: :class:`repro.serving.EstimationService`
   registers several estimators and, when the primary raises this error,
   re-routes the request to a configured fallback entry and flags the served
   result, which keeps the error out of request handlers while still making
   the degraded path observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.estimators import CardinalityEstimator, ContainmentEstimator
from repro.core.final_functions import FinalFunction, get_final_function
from repro.core.queries_pool import PoolEntry, PoolSlab, QueriesPool
from repro.sql.query import Query

#: The most pairs one ``rates_against_pools`` call of
#: :meth:`Cnt2CrdEstimator.slab_values` scores: distinct items are packed in
#: order into chunks under it, and an item whose slab alone is larger is a
#: chunk of its own (one query's slab is never split).  A scored pair holds
#: its two ``H``-wide float64 encodings, stacked once more from per-item
#: blocks on the resident-row path: at the paper profile's H=512 a full chunk
#: holds 8192 × 2 × 512 × 8 B = 64 MiB of pair-head input, 128 MiB while
#: being stacked, however many queries the batch has.
PAIR_BUDGET = 8192

#: The values of a position with nothing to score.
_NO_VALUES = np.empty(0, dtype=np.float64)


def _chunks(items: list[tuple[Query, PoolSlab]]):
    """``items`` in order, packed into lists of at most :data:`PAIR_BUDGET` pairs."""
    chunk: list[tuple[Query, PoolSlab]] = []
    pairs = 0
    for item in items:
        size = 2 * len(item[1].entries)
        if chunk and pairs + size > PAIR_BUDGET:
            yield chunk
            chunk, pairs = [], 0
        chunk.append(item)
        pairs += size
    if chunk:
        yield chunk


class NoMatchingPoolQueryError(LookupError):
    """Raised when no pool query shares the FROM clause of the query to estimate.

    Callers can avoid it by seeding the pool with predicate-free "frame"
    queries (Section 5.2) or by configuring a fallback estimator.  The
    related degenerate case — matching entries exist but every one is
    filtered by the ``y_rate <= epsilon`` guard — does not raise: it routes
    to the configured fallback when one exists and collapses to 0 otherwise
    (see :meth:`Cnt2CrdEstimator.estimate_cardinality`).
    """


@dataclass(frozen=True)
class PoolEstimate:
    """One per-pool-query estimate produced by the Cnt2Crd technique."""

    pool_entry: PoolEntry
    x_rate: float
    y_rate: float
    estimate: float


class Cnt2CrdEstimator(CardinalityEstimator):
    """A cardinality estimator built from a containment estimator and a queries pool.

    Args:
        containment_estimator: the model used for both containment directions.
        pool: the queries pool of previously executed queries.
        final_function: the function ``F`` collapsing per-pool-query estimates
            (a name from :mod:`repro.core.final_functions` or a callable).
        epsilon: pool queries whose ``Qnew ⊂% Qold`` rate is at most this
            threshold are skipped (the paper's ``y_rate <= epsilon`` guard).
            The default treats rates below 0.1% as zero: dividing by a smaller
            learned rate would amplify its relative error into an arbitrarily
            large cardinality estimate.
        fallback: optional cardinality estimator used when no pool query
            can contribute an estimate — the FROM clause matches nothing, or
            every matching entry was filtered by the epsilon guard; when
            omitted, :class:`NoMatchingPoolQueryError` is raised.
        pool_index: optional :class:`repro.serving.PoolEncodingIndex`.  When
            it can serve a query (CRN containment model, bound owner,
            matching pool), :meth:`resolve` hands back slabs carrying
            pre-built encoding matrices, which a CRN scores without per-pair
            dict lookups — bit-for-bit identical, much faster on large
            pools; otherwise the slab is row-less and scored pair by pair.
    """

    def __init__(
        self,
        containment_estimator: ContainmentEstimator,
        pool: QueriesPool,
        final_function: str | FinalFunction = "median",
        epsilon: float = 1e-3,
        fallback: CardinalityEstimator | None = None,
        pool_index=None,
    ) -> None:
        self.containment_estimator = containment_estimator
        self.pool = pool
        self.final_function = (
            get_final_function(final_function) if isinstance(final_function, str) else final_function
        )
        self.epsilon = epsilon
        self.fallback = fallback
        self.pool_index = pool_index
        if pool_index is not None:
            # Index rows are a function of the containment model's weights;
            # binding on attach mirrors the EncodingCache contract (the
            # attribute is duck-typed so core never imports the serving layer).
            model = getattr(containment_estimator, "model", None)
            bind = getattr(pool_index, "bind", None)
            if model is not None and bind is not None:
                bind(model)
        self.name = f"Cnt2Crd({containment_estimator.name})"

    # ------------------------------------------------------------------ #
    # estimation

    def resolve(self, query: Query) -> PoolSlab:
        """The scoring slab of ``query``'s FROM-signature bucket — never ``None``.

        From the :attr:`pool_index` when there is one (which itself hands
        back a row-less slab when it cannot serve this estimator), otherwise
        a row-less snapshot of the pool bucket.  An unmatched query resolves
        to a slab without entries.
        """
        if self.pool_index is not None:
            return self.pool_index.resolve(self, query)
        return self.pool.bucket_slab(query.from_signature())

    def eligible_entries(self, query: Query) -> list[PoolEntry]:
        """Matching pool entries that can contribute an estimate for ``query``
        (positive cardinality; see :meth:`QueriesPool.bucket_slab`)."""
        return list(self.pool.bucket_slab(query.from_signature()).entries)

    def estimates_from_rates(
        self, query: Query, entries: Sequence[PoolEntry], rates: Sequence[float]
    ) -> list[PoolEstimate]:
        """Turn pre-computed containment rates back into per-pool-query estimates.

        This is the observability-friendly form (each surviving entry's rates
        travel with its estimate); hot paths that only need the estimate
        *values* use the vectorized :meth:`estimate_values_from_rates`, which
        is bit-for-bit equivalent.

        Args:
            query: the incoming query.
            entries: the eligible entries the rates were computed for.
            rates: the rates of :func:`~repro.core.estimators.containment_pairs`'s
                pairs, in order.
        """
        if len(rates) != 2 * len(entries):
            raise ValueError(
                f"expected {2 * len(entries)} rates for {len(entries)} entries, got {len(rates)}"
            )
        estimates: list[PoolEstimate] = []
        for index, entry in enumerate(entries):
            x_rate = rates[2 * index]
            y_rate = rates[2 * index + 1]
            if y_rate <= self.epsilon:
                continue
            estimates.append(
                PoolEstimate(
                    pool_entry=entry,
                    x_rate=x_rate,
                    y_rate=y_rate,
                    estimate=x_rate / y_rate * entry.cardinality,
                )
            )
        return estimates

    def estimate_values_from_rates(
        self,
        entries: Sequence[PoolEntry],
        rates: Sequence[float],
        cardinalities: np.ndarray | None = None,
    ) -> np.ndarray:
        """The per-entry estimate *values* surviving the epsilon guard, vectorized.

        Bit-for-bit equal to ``[e.estimate for e in estimates_from_rates(...)]``:
        ``x / y * cardinality`` runs elementwise in float64 (identical IEEE
        operations to the scalar loop), and the guard keeps exactly the
        entries the scalar ``y_rate <= epsilon`` test would keep — including
        its NaN behaviour (a NaN rate is *kept*, both ways).  On a
        2000-entry bucket this replaces thousands of Python loop iterations
        and :class:`PoolEstimate` allocations per request with four array
        operations.

        Args:
            entries: the eligible entries the rates were computed for.
            rates: the :func:`~repro.core.estimators.containment_pairs`-ordered
                rates.
            cardinalities: optional precomputed ``(len(entries),)`` float64
                entry cardinalities, row-aligned with ``entries`` (every
                :class:`PoolSlab` carries one, so the per-request path
                performs no Python iteration over the entries at all).
        """
        values = np.asarray(rates, dtype=np.float64)
        if values.shape[0] != 2 * len(entries):
            raise ValueError(
                f"expected {2 * len(entries)} rates for {len(entries)} entries, "
                f"got {values.shape[0]}"
            )
        x_rates = values[0::2]
        y_rates = values[1::2]
        keep = ~(y_rates <= self.epsilon)  # NOT (y <= eps): NaN is kept, as in the scalar guard
        if cardinalities is None:
            cardinalities = np.fromiter(
                (entry.cardinality for entry in entries),
                dtype=np.float64,
                count=len(entries),
            )
        return x_rates[keep] / y_rates[keep] * cardinalities[keep]

    def pool_estimates(self, query: Query) -> list[PoolEstimate]:
        """The per-pool-query estimates for ``query`` (the technique's inner loop).

        Containment rates for all matching pool queries come from one
        :meth:`~repro.core.estimators.ContainmentEstimator.rates_against_pools`
        call over the query's slab.
        """
        slab = self.resolve(query)
        if not slab.entries:
            return []
        rates = self.containment_estimator.rates_against_pools([(query, slab)])[0]
        return self.estimates_from_rates(query, slab.entries, rates.tolist())

    def collapse(self, estimates: Sequence[PoolEstimate]) -> float:
        """Collapse per-pool-query estimates with the final function ``F``.

        An empty list collapses to 0: with *exact* rates (or frame queries
        in the pool) matched-but-all-filtered only happens when the new
        query's result really is empty.  With learned rates that zero can be
        spurious, which is why :meth:`estimate_cardinality` routes the empty
        case to the configured :attr:`fallback` first and only collapses to
        0 when no fallback exists.
        """
        if not estimates:
            return 0.0
        return float(self.final_function([estimate.estimate for estimate in estimates]))

    def collapse_values(self, values: np.ndarray) -> float:
        """:meth:`collapse` over plain estimate values (the vectorized path).

        Bit-for-bit equal to ``collapse(estimates_from_rates(...))`` for the
        matching values: the final function sees the same float64 values
        either way, here as the array itself (every built-in final function
        starts with ``np.asarray``, so a list round trip only cost time).
        """
        if values.size == 0:
            return 0.0
        return float(self.final_function(values))

    def fallback_estimate(self, query: Query) -> float:
        """Estimate a query with no matching pool entry (or raise).

        See the module docstring for the available recovery strategies.
        """
        if self.fallback is not None:
            return self.fallback.estimate_cardinality(query)
        raise NoMatchingPoolQueryError(
            f"no pool query shares the FROM clause {query.from_signature()}"
        )

    def slab_values(
        self, queries: Sequence[Query]
    ) -> tuple[list[tuple[PoolSlab | None, np.ndarray]], int]:
        """Score a batch: each position's slab and surviving estimate values.

        Every position is resolved once, in order, to its slab (``None`` when
        no pool query shares its FROM clause).  Each distinct ``(query, slab
        token)`` is scored once — identical queries of a batch share one set
        of rates — by one ``rates_against_pools`` call per :data:`PAIR_BUDGET`
        chunk, and turned into values by :meth:`estimate_values_from_rates`.
        A matched position whose values are empty had every eligible entry
        filtered by the epsilon guard (or no eligible entry at all).

        Returns ``([(slab, values), ...], scored pairs)``, the pair count
        over the distinct items only.
        """
        slabs = [
            self.resolve(query) if self.pool.has_match(query) else None
            for query in queries
        ]
        distinct: dict[tuple[Query, tuple], tuple[Query, PoolSlab]] = {}
        for query, slab in zip(queries, slabs):
            if slab is not None and slab.entries:
                distinct.setdefault((query, slab.token), (query, slab))
        values: dict[tuple[Query, tuple], np.ndarray] = {}
        for chunk in _chunks(list(distinct.values())):
            blocks = self.containment_estimator.rates_against_pools(chunk)
            for (query, slab), rates in zip(chunk, blocks):
                values[(query, slab.token)] = self.estimate_values_from_rates(
                    slab.entries, rates, cardinalities=slab.cardinalities
                )
        results = []
        for query, slab in zip(queries, slabs):
            key = None if slab is None else (query, slab.token)
            results.append((slab, values.get(key, _NO_VALUES)))
        return results, sum(2 * len(slab.entries) for _, slab in distinct.values())

    def estimate_cardinalities(self, queries: Sequence[Query]) -> list[float]:
        """Estimate a batch through :meth:`slab_values`, bit for bit the
        per-query answers.

        An unmatched query goes to :meth:`fallback_estimate`.  A matched one
        whose values are all filtered goes to the configured :attr:`fallback`
        when there is one: a learned rate model estimating ~0 containment
        against every matching entry does not reliably mean "empty result",
        and collapsing to 0.0 would emit a spurious zero with unbounded
        q-error.  Without a fallback the collapse to 0 stands: it is exactly
        right for exact rates and frame-seeded pools.
        """
        queries = list(queries)
        results, _ = self.slab_values(queries)
        estimates: list[float] = []
        for query, (slab, values) in zip(queries, results):
            if slab is None:
                estimates.append(self.fallback_estimate(query))
            elif values.size == 0 and self.fallback is not None:
                estimates.append(self.fallback.estimate_cardinality(query))
            else:
                estimates.append(self.collapse_values(values))
        return estimates

    def estimate_cardinality(self, query: Query) -> float:
        return self.estimate_cardinalities([query])[0]


def cnt2crd(
    containment_estimator: ContainmentEstimator,
    pool: QueriesPool,
    final_function: str | FinalFunction = "median",
    epsilon: float = 1e-3,
    fallback: CardinalityEstimator | None = None,
    pool_index=None,
) -> Cnt2CrdEstimator:
    """Functional alias for :class:`Cnt2CrdEstimator` (matches the paper's notation)."""
    return Cnt2CrdEstimator(
        containment_estimator,
        pool,
        final_function=final_function,
        epsilon=epsilon,
        fallback=fallback,
        pool_index=pool_index,
    )
