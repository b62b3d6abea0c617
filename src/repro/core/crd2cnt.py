"""The Crd2Cnt transformation (Section 4.1).

Any cardinality estimation model ``M`` can act as a containment rate estimator
``M'``: the rate ``Q1 ⊂% Q2`` is estimated as ``|Q1 ∩ Q2| / |Q1|`` where both
cardinalities come from ``M`` and ``Q1 ∩ Q2`` conjoins both WHERE clauses.
This is how the paper turns PostgreSQL and MSCN into containment baselines.
"""

from __future__ import annotations

from repro.core.estimators import CardinalityEstimator, ContainmentEstimator
from repro.sql.intersection import intersect_queries, same_from_clause
from repro.sql.query import Query


class Crd2CntEstimator(ContainmentEstimator):
    """A containment estimator derived from a cardinality estimator.

    Args:
        cardinality_estimator: the underlying model ``M``.
        clip: clamp the estimated rate into ``[0, 1]``.  The raw ratio can
            exceed 1 when ``M`` is inconsistent (e.g. estimates ``Q1 ∩ Q2``
            larger than ``Q1``); the paper's definition bounds true rates to
            [0, 1], so clipping is the faithful default.
    """

    def __init__(self, cardinality_estimator: CardinalityEstimator, clip: bool = True) -> None:
        self.cardinality_estimator = cardinality_estimator
        self.clip = clip
        self.name = f"Crd2Cnt({cardinality_estimator.name})"

    def estimate_containment(self, first: Query, second: Query) -> float:
        if not same_from_clause(first, second):
            raise ValueError(
                "containment rates are only defined for queries with identical FROM clauses"
            )
        first_cardinality = self.cardinality_estimator.estimate_cardinality(first)
        if first_cardinality <= 0:
            # By definition an empty Q1 is 0%-contained in any query.
            return 0.0
        intersection = intersect_queries(first, second)
        intersection_cardinality = self.cardinality_estimator.estimate_cardinality(intersection)
        rate = intersection_cardinality / first_cardinality
        if self.clip:
            rate = min(max(rate, 0.0), 1.0)
        return float(rate)
