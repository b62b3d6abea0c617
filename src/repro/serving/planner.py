"""Cross-request batch planning for Cnt2Crd cardinality estimation.

One Cnt2Crd request over a pool with ``E`` eligible entries needs ``2 * E``
containment rates (both directions per entry).  Served naively, each request
runs its own loop of small forward passes.  The :class:`BatchPlanner` instead
resolves every request of a batch to the
:class:`repro.core.queries_pool.PoolSlab` of its FROM-signature bucket, so
the containment estimator scores *many* concurrent requests in one
:meth:`repro.core.estimators.ContainmentEstimator.rates_against_pools` call —
one stacked run of fixed-shape tiles
(:meth:`repro.core.crn.CRNModel.rates_from_encodings`) instead of one small
kernel call per request.

Deduplication matters under real traffic: identical queries arrive
repeatedly.  The executor scores each unique ``(query, slab token)`` once and
fans the rates back out.  (Two *different* requests of one batch share rate
work only through the encoding cache: a pair list could additionally merge
the 2 of ``2 * E`` pairs two requests have in common when both are themselves
pool queries of the same bucket; that is not worth a second path.)

Planning is pure bookkeeping (no model calls beyond slab maintenance):
:meth:`BatchPlanner.plan` produces a :class:`BatchPlan`, and the
:class:`repro.serving.EstimationService` executes it with one batched
``rates_against_pools`` call followed by the estimator's own
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.estimate_values_from_rates` /
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.collapse_values` steps — which is
why served estimates are bit-for-bit identical to the per-request path.

The planner holds no mutable state of its own, so concurrent plans are safe:
each request's eligible entries are captured in one slab snapshot (the pool
and the index lock internally), so a pool entry added mid-plan is either
fully part of a request's scoring work or not part of it at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.queries_pool import PoolEntry, PoolSlab
from repro.sql.query import Query

#: Resolution stamp: the request was scored from the pool encoding index's
#: whole-pool slab matrices (a :attr:`RequestPlan.slab` with resident rows).
RESOLUTION_INDEXED_SLAB = "indexed_slab"
#: Resolution stamp: the request's slab carried no resident rows and was
#: scored pair by pair.
RESOLUTION_PAIR_BATCH = "pair_batch"


@dataclass(frozen=True)
class RequestPlan:
    """The scoring work of one request inside a :class:`BatchPlan`.

    Attributes:
        index: the request's position in the submitted batch.
        query: the incoming query.
        has_match: whether the pool has entries sharing the query's FROM
            clause (False routes the request to the fallback path).
        entries: the eligible pool entries (positive cardinality), from the
            slab snapshot — entry ``i`` is exactly the query encoded in a
            resident slab's row ``i``.
        slab: the resolved :class:`repro.core.queries_pool.PoolSlab` of a
            matched request (``None`` only without a match); its rates come
            from one whole-slab scoring call.
    """

    index: int
    query: Query
    has_match: bool
    entries: tuple[PoolEntry, ...]
    slab: PoolSlab | None = None

    @property
    def resolution(self) -> str:
        """How this plan's slab is scored — the provenance stamp the
        executor threads into :attr:`repro.serving.EstimateResult.resolution`
        (fallback answers override it there)."""
        if self.slab is not None and self.slab.first is not None:
            return RESOLUTION_INDEXED_SLAB
        return RESOLUTION_PAIR_BATCH


@dataclass(frozen=True)
class BatchPlan:
    """A scoring plan for a batch of concurrent requests.

    Attributes:
        requests: one :class:`RequestPlan` per submitted query, in order.
        planned_pairs: total pair slots before deduplication — the
            ``2 * len(entries)`` slots of every request.
        indexed_pairs: the subset of :attr:`planned_pairs` whose slab carries
            resident rows (before the executor's deduplication of identical
            requests).
    """

    requests: tuple[RequestPlan, ...]
    planned_pairs: int
    indexed_pairs: int = 0


class BatchPlanner:
    """Plans batched Cnt2Crd scoring for a :class:`Cnt2CrdEstimator`.

    Args:
        estimator: the Cnt2Crd estimator whose pool and eligibility rules the
            plan follows.
    """

    def __init__(self, estimator: Cnt2CrdEstimator) -> None:
        self.estimator = estimator

    def plan(self, queries: Sequence[Query]) -> BatchPlan:
        """Resolve every matched query of ``queries`` to its scoring slab.

        No pairs are materialized here: the executor scores each unique
        ``(query, slab)`` with one whole-slab call, and how that call runs
        (resident rows or pair by pair) is the rate model's business.
        """
        requests: list[RequestPlan] = []
        planned = 0
        indexed = 0
        for position_in_batch, query in enumerate(queries):
            has_match = self.estimator.pool.has_match(query)
            slab = self.estimator.resolve(query) if has_match else None
            request = RequestPlan(
                index=position_in_batch,
                query=query,
                has_match=has_match,
                entries=slab.entries if has_match else (),
                slab=slab,
            )
            planned += 2 * len(request.entries)
            if request.resolution == RESOLUTION_INDEXED_SLAB:
                indexed += 2 * len(request.entries)
            requests.append(request)
        return BatchPlan(
            requests=tuple(requests), planned_pairs=planned, indexed_pairs=indexed
        )
