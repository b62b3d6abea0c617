"""The paper's three-step query generator (Section 3.1.2).

The generator produces the training and evaluation workloads directly from the
database schema and the actual column values:

1. **Initial queries** -- repeatedly pick a connected set of tables (up to a
   configurable number of joins), add the corresponding join edges, and for
   each base table uniformly draw ``0..|non-key columns|`` predicates, each
   with a uniformly drawn non-key column, operator (``<``, ``=``, ``>``) and a
   value from the column's actual value range.
2. **Similar queries** -- for each initial query, create several "similar but
   different" variants by randomly mutating predicate operators or values and
   by adding extra predicates; this yields pairs that look alike but have very
   different containment rates (the paper's "hard" dataset).
3. **Pairs** -- combine queries from both steps into pairs with identical FROM
   clauses.

Cardinality workloads (Section 6.1) run only the first two steps; containment
workloads run all three.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.sql.query import ComparisonOperator, JoinClause, Predicate, Query, TableRef

#: Operators the generator draws from (Section 3.1.2).
_GENERATOR_OPERATORS = (
    ComparisonOperator.LT,
    ComparisonOperator.EQ,
    ComparisonOperator.GT,
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the query generator.

    Attributes:
        max_joins: largest number of join clauses in a generated query.  The
            paper trains with up to two joins and evaluates generalization to
            five, so training generators use 2 and test generators up to 5.
        min_joins: smallest number of join clauses (0 = single-table queries).
        max_predicates_per_table: cap on predicates drawn per base table; the
            paper draws up to the number of non-key columns, which this cap
            further bounds to keep queries readable.
        max_predicates_per_query: cap on the total number of predicates in one
            query.  On the laptop-scale synthetic database, queries with many
            conjunctive predicates are almost always empty, which would make
            every workload degenerate; the cap keeps the empty-result fraction
            comparable to the paper's full-size IMDb setting.
        similar_queries_per_initial: how many mutated variants step 2 derives
            from each initial query.
        mutation_add_predicate_probability: probability that a mutation adds a
            fresh predicate rather than perturbing an existing one.
        value_perturbation_fraction: relative size of value perturbations,
            as a fraction of the column's value range.
        seed: RNG seed; two generators with the same seed produce identical
            workloads.
    """

    max_joins: int = 2
    min_joins: int = 0
    max_predicates_per_table: int = 2
    max_predicates_per_query: int = 4
    similar_queries_per_initial: int = 3
    mutation_add_predicate_probability: float = 0.35
    value_perturbation_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_joins < 0 or self.max_joins < self.min_joins:
            raise ValueError("need 0 <= min_joins <= max_joins")
        if self.max_predicates_per_table < 0:
            raise ValueError("max_predicates_per_table must be non-negative")
        if self.max_predicates_per_query < 0:
            raise ValueError("max_predicates_per_query must be non-negative")
        if self.similar_queries_per_initial < 0:
            raise ValueError("similar_queries_per_initial must be non-negative")


class QueryGenerator:
    """Random query / query-pair generator over a specific database.

    Args:
        database: the database whose schema and value ranges drive generation.
        config: generator configuration.
    """

    def __init__(self, database: Database, config: GeneratorConfig | None = None) -> None:
        self.database = database
        self.config = config or GeneratorConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # The database is an immutable snapshot: reduce every column once
        # instead of once per drawn predicate.
        self._value_ranges = {
            (table.alias, column.name): database.column_range(table.alias, column.name)
            for table, column in database.schema.iter_columns()
        }
        self._column_values = {
            (table.alias, column.name): database.table_by_alias(table.alias).column(column.name)
            for table, column in database.schema.iter_columns()
        }
        self._table_refs = {
            table.alias: TableRef(table.name, table.alias) for table in database.schema.tables
        }
        self._non_key_columns = {
            table.alias: tuple(column.name for column in table.non_key_columns)
            for table in database.schema.tables
        }
        self._join_subsets = enumerate_join_subsets(database, self.config.max_joins)
        if not self._join_subsets:
            raise ValueError("the database schema exposes no joinable table subsets")

    def join_subsets(self, num_joins: int) -> list[tuple[tuple[str, ...], tuple[JoinClause, ...]]]:
        """All connected ``(aliases, joins)`` combinations with exactly ``num_joins`` joins."""
        return list(self._join_subsets.get(num_joins, []))

    # ------------------------------------------------------------------ #
    # step 1: initial queries

    def generate_query(self, num_joins: int | None = None) -> Query:
        """Generate one random query (step 1 of the generator).

        Args:
            num_joins: force a specific number of joins; drawn uniformly from
                ``[min_joins, max_joins]`` when omitted.
        """
        if num_joins is None:
            num_joins = int(self._rng.integers(self.config.min_joins, self.config.max_joins + 1))
        tables, joins = self._choose_tables_and_joins(num_joins)
        predicates = self._draw_predicates(tables)
        return Query.create(tables, joins, predicates)

    def generate_queries(self, count: int, num_joins: int | None = None) -> list[Query]:
        """Generate ``count`` distinct random queries."""
        queries: list[Query] = []
        seen: set[Query] = set()
        attempts = 0
        max_attempts = max(count * 50, 1000)
        while len(queries) < count and attempts < max_attempts:
            attempts += 1
            query = self.generate_query(num_joins)
            if query in seen:
                continue
            seen.add(query)
            queries.append(query)
        if len(queries) < count:
            raise RuntimeError(
                f"could only generate {len(queries)} distinct queries out of {count} requested"
            )
        return queries

    # ------------------------------------------------------------------ #
    # step 2: similar queries

    def generate_similar_query(self, query: Query) -> Query:
        """Derive a "similar but different" query from ``query`` (step 2).

        The variant keeps the FROM clause and join set and either perturbs an
        existing predicate (operator or value), adds a new predicate, or drops
        a predicate.  The mix is chosen so the resulting pairs span the whole
        containment spectrum: dropping/adding predicates yields one-sided
        full containment, perturbations yield partial overlap, and operator
        flips yield (near-)disjoint results.
        """
        predicates = list(query.predicates)
        draw = self._rng.random()
        add_probability = self.config.mutation_add_predicate_probability
        if not predicates or draw < add_probability:
            alias = query.aliases[int(self._rng.integers(len(query.aliases)))]
            new_predicate = self._draw_single_predicate(alias)
            if new_predicate is not None:
                predicates.append(new_predicate)
        elif draw < add_probability + 0.2 and len(predicates) > 1:
            # Drop a predicate: the original query is then fully contained in
            # the variant, while the reverse rate varies.
            predicates.pop(int(self._rng.integers(len(predicates))))
        else:
            index = int(self._rng.integers(len(predicates)))
            predicates[index] = self._mutate_predicate(predicates[index])
        mutated = Query(query.tables, query.joins, tuple(dict.fromkeys(predicates)))
        if mutated == query:
            # Mutation was a no-op (e.g. duplicate predicate); force a value change.
            if predicates:
                index = int(self._rng.integers(len(predicates)))
                predicates[index] = self._mutate_predicate(predicates[index], force_value=True)
                mutated = Query(query.tables, query.joins, tuple(dict.fromkeys(predicates)))
        return mutated

    def generate_similar_queries(self, query: Query, count: int | None = None) -> list[Query]:
        """Derive ``count`` similar variants of ``query`` (may contain fewer if
        mutations collide)."""
        count = self.config.similar_queries_per_initial if count is None else count
        variants: list[Query] = []
        seen: set[Query] = {query}
        attempts = 0
        while len(variants) < count and attempts < count * 20 + 10:
            attempts += 1
            variant = self.generate_similar_query(query)
            if variant in seen:
                continue
            seen.add(variant)
            variants.append(variant)
        return variants

    # ------------------------------------------------------------------ #
    # step 3: pairs

    def generate_pairs(self, count: int, num_joins: int | None = None) -> list[tuple[Query, Query]]:
        """Generate ``count`` unique query pairs with identical FROM clauses.

        Following the paper's third generator step, pairs are formed from all
        the queries produced by the first two steps that share a FROM clause.
        Concretely the mix contains:

        * "hard" pairs of an initial query with one of its similar variants
          (small syntactic difference, widely varying containment rate);
        * pairs of two *independent* queries over the same FROM clause,
          including queries with few or no predicates -- exactly the kind of
          pair the Cnt2Crd technique later evaluates against the queries pool.
        """
        pairs: list[tuple[Query, Query]] = []
        seen: set[tuple[Query, Query]] = set()
        by_from: dict[tuple, list[Query]] = {}
        attempts = 0
        max_attempts = max(count * 60, 2000)

        def emit(first: Query, second: Query) -> None:
            if first == second or len(pairs) >= count:
                return
            pair = (first, second)
            if pair in seen:
                return
            seen.add(pair)
            pairs.append(pair)

        while len(pairs) < count and attempts < max_attempts:
            attempts += 1
            base = self.generate_query(num_joins)
            variants = self.generate_similar_queries(base)
            # Hard pairs: base vs its variants (both directions on occasion).
            for variant in variants:
                emit(base, variant)
                if self._rng.random() < 0.3:
                    emit(variant, base)
            if len(variants) >= 2:
                emit(variants[0], variants[1])
            # Frame pairs: base vs its predicate-free frame.  The queries pool
            # is seeded with exactly such frame queries (Section 5.2), so the
            # corpus must cover this pair type for Cnt2Crd to work well.
            if base.predicates and self._rng.random() < 0.5:
                frame = base.without_predicates()
                emit(base, frame)
                emit(frame, base)
            # Independent pairs: base vs previously generated queries with the
            # same FROM clause (step 3 of the paper's generator).
            signature = base.from_signature()
            siblings = by_from.setdefault(signature, [])
            if siblings:
                partner = siblings[int(self._rng.integers(len(siblings)))]
                emit(base, partner)
                emit(partner, base)
            siblings.append(base)
            if variants:
                siblings.append(variants[0])
        if len(pairs) < count:
            raise RuntimeError(
                f"could only generate {len(pairs)} distinct pairs out of {count} requested"
            )
        return pairs

    # ------------------------------------------------------------------ #
    # internals

    def _choose_tables_and_joins(self, num_joins: int) -> tuple[list[TableRef], list[JoinClause]]:
        subsets = self._join_subsets.get(num_joins)
        if not subsets:
            available = sorted(self._join_subsets)
            fallback = max(joins for joins in available if joins <= num_joins)
            subsets = self._join_subsets[fallback]
        index = int(self._rng.integers(len(subsets)))
        aliases, joins = subsets[index]
        return [self._table_refs[alias] for alias in aliases], list(joins)

    def _draw_predicates(self, tables: list[TableRef]) -> list[Predicate]:
        predicates: list[Predicate] = []
        # Visit tables in random order so the per-query cap does not always
        # starve the same tables.
        for table_index in self._rng.permutation(len(tables)).tolist():
            alias = tables[table_index].alias
            non_key = self._non_key_columns[alias]
            if not non_key:
                continue
            remaining = self.config.max_predicates_per_query - len(predicates)
            if remaining <= 0:
                break
            cap = min(len(non_key), self.config.max_predicates_per_table, remaining)
            num_predicates = int(self._rng.integers(0, cap + 1))
            if num_predicates == 0:
                continue
            column_indices = self._rng.choice(len(non_key), size=num_predicates, replace=False)
            for column_index in column_indices.tolist():
                predicate = self._draw_predicate_for_column(alias, non_key[column_index])
                if predicate is not None:
                    predicates.append(predicate)
        return predicates

    def _draw_single_predicate(self, alias: str) -> Predicate | None:
        non_key = self._non_key_columns[alias]
        if not non_key:
            return None
        column = non_key[int(self._rng.integers(len(non_key)))]
        return self._draw_predicate_for_column(alias, column)

    def _draw_predicate_for_column(self, alias: str, column: str) -> Predicate | None:
        low, high = self._value_ranges[alias, column]
        if low == high:
            operator = ComparisonOperator.EQ
            value = low
        else:
            operator = _GENERATOR_OPERATORS[int(self._rng.integers(len(_GENERATOR_OPERATORS)))]
            if operator is ComparisonOperator.EQ:
                # Draw an actual value so equality predicates are satisfiable.
                values = self._column_values[alias, column]
                value = float(values[int(self._rng.integers(len(values)))])
            else:
                value = float(np.rint(self._rng.uniform(low, high)))
        return Predicate(alias, column, operator, value)

    def _mutate_predicate(self, predicate: Predicate, force_value: bool = False) -> Predicate:
        """Perturb one predicate's value or operator.

        Range predicates get their value shifted by a bounded fraction of the
        column range (partial overlap with the original).  Equality predicates
        are widened into range predicates more often than re-pointed at a
        different value, because two different equality constants are disjoint
        and an all-disjoint pair set would teach the model nothing.
        """
        is_equality = predicate.operator is ComparisonOperator.EQ
        mutate_value = force_value or self._rng.random() < (0.35 if is_equality else 0.6)
        if mutate_value:
            low, high = self._value_ranges[predicate.alias, predicate.column]
            span = max(high - low, 1.0)
            shift = self._rng.uniform(
                -self.config.value_perturbation_fraction, self.config.value_perturbation_fraction
            )
            new_value = float(np.clip(np.rint(predicate.value + shift * span), low, high))
            if new_value == predicate.value:
                new_value = float(np.clip(predicate.value + 1, low, high))
            return Predicate(predicate.alias, predicate.column, predicate.operator, new_value)
        choices = [op for op in _GENERATOR_OPERATORS if op is not predicate.operator]
        new_operator = choices[int(self._rng.integers(len(choices)))]
        return Predicate(predicate.alias, predicate.column, new_operator, predicate.value)


def enumerate_join_subsets(
    database: Database, max_joins: int
) -> dict[int, list[tuple[tuple[str, ...], tuple[JoinClause, ...]]]]:
    """Enumerate connected alias subsets reachable with ``0..max_joins`` join edges.

    Returns a mapping from join count to the list of ``(aliases, joins)``
    combinations with exactly that many joins.  For the JOB-style star schema
    this enumerates single tables (0 joins), title-fact pairs (1 join), and
    fact-title-fact stars (>= 2 joins).
    """
    edges = database.schema.join_edges()
    subsets: dict[int, list[tuple[tuple[str, ...], tuple[JoinClause, ...]]]] = {0: []}

    for table_schema in database.schema.tables:
        subsets[0].append(((table_schema.alias,), ()))

    # Build adjacency between aliases from the foreign-key edges.
    for num_joins in range(1, max_joins + 1):
        combos: list[tuple[tuple[str, ...], tuple[JoinClause, ...]]] = []
        for edge_combo in itertools.combinations(edges, num_joins):
            aliases: set[str] = set()
            joins: list[JoinClause] = []
            for left_alias, left_column, right_alias, right_column in edge_combo:
                aliases.update((left_alias, right_alias))
                joins.append(JoinClause(left_alias, left_column, right_alias, right_column))
            if not _is_connected(aliases, joins):
                continue
            combos.append((tuple(sorted(aliases)), tuple(sorted(joins))))
        if combos:
            subsets[num_joins] = combos
    return subsets


def _is_connected(aliases: set[str], joins: list[JoinClause]) -> bool:
    """Whether the join graph over ``aliases`` with ``joins`` edges is connected."""
    if len(aliases) <= 1:
        return True
    adjacency: dict[str, set[str]] = {alias: set() for alias in aliases}
    for join in joins:
        adjacency[join.left_alias].add(join.right_alias)
        adjacency[join.right_alias].add(join.left_alias)
    start = next(iter(aliases))
    visited = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in visited:
                visited.add(neighbor)
                frontier.append(neighbor)
    return visited == aliases
