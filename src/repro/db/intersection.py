"""Ground-truth cardinalities and containment rates from exact execution.

Because containment rates are only defined for query pairs with identical
SELECT/FROM clauses, the true containment rate ``Q1 ⊂% Q2`` equals
``|Q1 ∩ Q2| / |Q1|`` where ``Q1 ∩ Q2`` conjoins both WHERE clauses (Section
4.1.1) -- so ground truth only needs exact cardinalities, which the executor
provides.
"""

from __future__ import annotations

from repro.db.database import Database
from repro.db.executor import QueryExecutor
from repro.sql.intersection import intersect_queries, same_from_clause
from repro.sql.query import Query


def true_cardinality(database: Database, query: Query) -> int:
    """Exact result cardinality of ``query`` on ``database``.

    One-shot: a fresh executor (and its join-edge index) per call.  Label many
    queries through one :class:`TrueCardinalityOracle`.
    """
    return QueryExecutor(database).cardinality(query)


def true_containment_rate(database: Database, first: Query, second: Query) -> float:
    """Exact containment rate ``first ⊂% second`` on ``database`` (in [0, 1])."""
    return TrueCardinalityOracle(database).containment_rate(first, second)


class TrueCardinalityOracle:
    """Memoizing oracle for exact cardinalities and containment rates.

    Workload labelling asks for many containment rates sharing sub-queries, so
    the oracle shares one memoizing :class:`QueryExecutor` across calls.
    """

    def __init__(self, database: Database, executor: QueryExecutor | None = None) -> None:
        self.database = database
        self.executor = executor or QueryExecutor(database)

    def cardinality(self, query: Query) -> int:
        """Exact cardinality of ``query``."""
        return self.executor.cardinality(query)

    def containment_rate(self, first: Query, second: Query) -> float:
        """Exact containment rate ``first ⊂% second`` as a fraction in [0, 1].

        By definition (Section 2), the rate is 0 when ``first``'s result is
        empty.

        Raises:
            ValueError: if the queries do not share a FROM clause.
        """
        if not same_from_clause(first, second):
            raise ValueError("containment rate is only defined for identical FROM clauses")
        first_cardinality = self.cardinality(first)
        if first_cardinality == 0:
            return 0.0
        intersection_cardinality = self.cardinality(intersect_queries(first, second))
        return intersection_cardinality / first_cardinality
