"""Estimator interfaces.

Two estimator families appear in the paper:

* **Cardinality estimators** map a single query to an estimated result
  cardinality (PostgreSQL, MSCN, and the paper's Cnt2Crd-based technique).
* **Containment estimators** map an ordered query pair ``(Q1, Q2)`` to an
  estimated containment rate ``Q1 ⊂% Q2`` in ``[0, 1]`` (CRN, and any
  cardinality estimator routed through the Crd2Cnt transformation).

Both interfaces provide batch methods with naive default implementations so
vectorized models (CRN, MSCN) can override them for speed while simple
baselines do not have to.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.sql.query import Query


def containment_pairs(query: Query, entries) -> list[tuple[Query, Query]]:
    """The ordered query pairs the Cnt2Crd technique needs for ``query``.

    For each pool entry the pair ``(Qold, Qnew)`` (the x_rate) is followed by
    ``(Qnew, Qold)`` (the y_rate); every consumer of Cnt2Crd rates expects
    them in exactly this order.
    """
    pairs: list[tuple[Query, Query]] = []
    for entry in entries:
        pairs.append((entry.query, query))  # x_rate = Qold ⊂% Qnew
        pairs.append((query, entry.query))  # y_rate = Qnew ⊂% Qold
    return pairs


class CardinalityEstimator(abc.ABC):
    """Estimates the result cardinality of a single query."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "cardinality-estimator"

    @abc.abstractmethod
    def estimate_cardinality(self, query: Query) -> float:
        """Return the estimated number of result rows of ``query``."""

    def estimate_cardinalities(self, queries: Sequence[Query]) -> list[float]:
        """Estimate a batch of queries (default: one at a time)."""
        return [self.estimate_cardinality(query) for query in queries]


class ContainmentEstimator(abc.ABC):
    """Estimates the containment rate of an ordered query pair."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "containment-estimator"

    @abc.abstractmethod
    def estimate_containment(self, first: Query, second: Query) -> float:
        """Return the estimated rate ``first ⊂% second`` as a fraction in [0, 1]."""

    def estimate_containments(self, pairs: Sequence[tuple[Query, Query]]) -> list[float]:
        """Estimate a batch of ordered pairs (default: one at a time)."""
        return [self.estimate_containment(first, second) for first, second in pairs]

    def rates_against_pools(self, items) -> list[np.ndarray]:
        """Score many ``(query, slab)`` Cnt2Crd requests at once.

        Each item pairs an incoming query with the
        :class:`repro.core.queries_pool.PoolSlab` of its FROM-signature
        bucket.  The :func:`containment_pairs` of *all* items are flattened
        into a single :meth:`estimate_containments` call — the paper's
        per-pair technique (Section 5), and the only route for rate models
        that are not a CRN — and the rates are split back per item.

        Returns one ``(2 * len(slab.entries),)`` float64 rate array per item,
        in order: ``rates[2i]`` is entry ``i``'s x_rate, ``rates[2i + 1]``
        its y_rate.
        """
        items = list(items)
        pairs = [
            pair for query, slab in items for pair in containment_pairs(query, slab.entries)
        ]
        rates = np.asarray(self.estimate_containments(pairs), dtype=np.float64)
        blocks: list[np.ndarray] = []
        offset = 0
        for _, slab in items:
            count = 2 * len(slab.entries)
            blocks.append(rates[offset : offset + count])
            offset += count
        return blocks
