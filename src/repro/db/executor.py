"""Exact execution of conjunctive queries over the in-memory database.

The executor evaluates the paper's query class exactly:

1. apply each table's column predicates to obtain per-table candidate rows,
2. combine tables along the query's equi-join clauses with vectorized
   sort-merge joins (NumPy only),
3. produce the result either as a full set of row-id tuples (one row id per
   FROM-clause table) or as a count-only cardinality.

True cardinalities and true containment rates for workload labelling are
derived from this executor (see :mod:`repro.db.intersection`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.sql.query import JoinClause, Query


class DisconnectedJoinGraphError(ValueError):
    """Raised for multi-table queries whose join graph is not connected.

    The paper's query generator only emits queries whose tables "can join with
    each other", i.e. connected join graphs, so a disconnected graph indicates
    a malformed query rather than a supported cross product.
    """


@dataclass
class ExecutionResult:
    """The result of executing a conjunctive query.

    Attributes:
        aliases: FROM-clause aliases in canonical (sorted) order.
        row_ids: integer array of shape ``(cardinality, len(aliases))``; row
            ``k`` gives, for each alias, the base-table row id contributing to
            the ``k``-th result tuple.
    """

    aliases: tuple[str, ...]
    row_ids: np.ndarray

    @property
    def cardinality(self) -> int:
        """Number of result tuples."""
        return int(self.row_ids.shape[0])

class QueryExecutor:
    """Executes conjunctive queries against a :class:`Database`."""

    def __init__(self, database: Database, max_intermediate_rows: int = 50_000_000) -> None:
        self.database = database
        self.max_intermediate_rows = max_intermediate_rows
        self._cardinality_cache: dict[Query, int] = {}
        #: ``(parent table, column, child table, column)`` -> ``(slots,
        #: child_codes, parent_codes, leaf_counts)``, see :meth:`_join_edge`.
        #: Built from this executor's immutable database and never invalidated.
        self._join_edges: dict[
            tuple[str, str, str, str], tuple[int, np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def execute(self, query: Query) -> ExecutionResult:
        """Execute ``query`` and return the full result (row-id tuples)."""
        aliases, columns = self._execute_columns(query)
        if columns:
            row_ids = np.stack([columns[alias] for alias in aliases], axis=1)
        else:
            row_ids = np.empty((0, len(aliases)), dtype=np.int64)
        return ExecutionResult(aliases=aliases, row_ids=row_ids)

    def cardinality(self, query: Query, use_cache: bool = True) -> int:
        """Return the exact result cardinality of ``query``.

        Tree-shaped join graphs (which cover every query the paper's generator
        produces -- stars around ``title``) are counted with a bottom-up
        per-join-key aggregation that never materializes the join, so even
        predicate-free many-way joins with results in the hundreds of millions
        of tuples are counted in milliseconds.  Other queries fall back to full
        execution.  Results are memoized because workload labelling evaluates
        the same sub-queries (e.g. ``Q1`` for many ``Q1 ∩ Q2`` pairs)
        repeatedly.
        """
        if use_cache and query in self._cardinality_cache:
            return self._cardinality_cache[query]
        cardinality = self._count_tree_join(query)
        if cardinality is None:
            aliases, columns = self._execute_columns(query)
            cardinality = int(len(columns[aliases[0]])) if columns else 0
        if use_cache:
            self._cardinality_cache[query] = cardinality
        return cardinality

    def _join_edge(
        self, parent_table: str, parent_column: str, child_table: str, child_column: str
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The key codes of one join edge, built on first use.

        Returns ``(slots, child_codes, parent_codes, leaf_counts)``:
        ``child_codes[r]`` is the dense code (``< slots - 1``) of child row
        ``r``'s join key, and ``parent_codes[r]`` the code of parent row
        ``r``'s key among the child's keys, or the trailing slot
        ``slots - 1`` — which no child row maps to — when the child has no
        such key.  ``leaf_counts`` is the float64 number of child rows per
        code: the per-key weights of a child without predicates or children.
        """
        edge = (parent_table, parent_column, child_table, child_column)
        if edge not in self._join_edges:
            keys, child_codes = np.unique(
                self.database.table(child_table).column(child_column), return_inverse=True
            )
            parent_keys = self.database.table(parent_table).column(parent_column)
            parent_codes = np.full(len(parent_keys), len(keys), dtype=np.intp)
            if len(keys):
                positions = np.minimum(np.searchsorted(keys, parent_keys), len(keys) - 1)
                matched = keys[positions] == parent_keys
                parent_codes[matched] = positions[matched]
            slots = len(keys) + 1
            leaf_counts = np.bincount(child_codes, minlength=slots).astype(np.float64)
            self._join_edges[edge] = (slots, child_codes, parent_codes, leaf_counts)
        return self._join_edges[edge]

    # ------------------------------------------------------------------ #
    # count-only fast path for acyclic join graphs

    def _count_tree_join(self, query: Query) -> int | None:
        """Exact cardinality via bottom-up aggregation, or ``None`` if unsupported.

        Supported queries have a join graph that is a tree over the FROM
        aliases (exactly ``len(aliases) - 1`` join edges, connected, one edge
        per alias pair).  The count is computed recursively: each subtree
        reports, per value of its link column to the parent, how many result
        tuples it contributes; the parent multiplies those contributions into
        its own rows and zeroes the rows its predicates reject.
        """
        aliases = query.aliases
        if len(aliases) == 1:
            table = self.database.table(query.alias_to_table()[aliases[0]])
            mask = table.predicate_mask(query.predicates_for(aliases[0]))
            return len(table) if mask is None else int(np.count_nonzero(mask))
        if len(query.joins) != len(aliases) - 1:
            return None
        adjacency: dict[str, list[JoinClause]] = {alias: [] for alias in aliases}
        seen_pairs: set[tuple[str, str]] = set()
        for join in query.joins:
            pair = (join.left_alias, join.right_alias)
            if pair in seen_pairs:
                return None
            seen_pairs.add(pair)
            adjacency[join.left_alias].append(join)
            adjacency[join.right_alias].append(join)

        alias_to_table = query.alias_to_table()
        root = aliases[0]
        visited: set[str] = set()

        def subtree_weights(alias: str, parent: str | None) -> np.ndarray | None:
            """The weights of the subtree rooted at ``alias``.

            One weight per row of ``alias``: the number of result tuples of
            the subtree below it that the row takes part in, 0 when the row
            fails its predicates.  ``None`` for a leaf without predicates,
            whose parent reads the edge's ``leaf_counts`` instead.  A child's
            weights reach its parent through the edge's key codes
            (:meth:`_join_edge`): one ``bincount`` sums them per key, one
            gather hands each parent row its key's sum.
            """
            visited.add(alias)
            table = alias_to_table[alias]
            weights = None
            for join in adjacency[alias]:
                child = join.right_alias if join.left_alias == alias else join.left_alias
                if child == parent or child in visited:
                    continue
                own_column, child_column = (
                    (join.left_column, join.right_column)
                    if join.left_alias == alias
                    else (join.right_column, join.left_column)
                )
                slots, child_codes, parent_codes, leaf_counts = self._join_edge(
                    table, own_column, alias_to_table[child], child_column
                )
                child_weights = subtree_weights(child, alias)
                if child_weights is None:
                    per_key = leaf_counts
                else:
                    per_key = np.bincount(child_codes, child_weights, minlength=slots)
                if weights is None:
                    weights = per_key[parent_codes]
                else:
                    weights *= per_key[parent_codes]
            mask = self.database.table(table).predicate_mask(query.predicates_for(alias))
            if mask is None:
                return weights
            if weights is None:
                return mask.astype(np.float64)
            weights *= mask
            return weights

        weights = subtree_weights(root, None)
        if visited != set(aliases):
            # Disconnected graph (should not happen for generated queries).
            return None
        return int(round(float(weights.sum())))

    # ------------------------------------------------------------------ #
    # internals

    def _execute_columns(self, query: Query) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
        """Execute and return per-alias aligned row-id arrays.

        Returns ``(aliases, columns)`` where ``columns`` maps each alias to an
        equally long array of base-table row ids; an empty dict denotes an
        empty result.
        """
        aliases = query.aliases
        alias_to_table = query.alias_to_table()

        filtered: dict[str, np.ndarray] = {}
        for alias in aliases:
            table = self.database.table(alias_to_table[alias])
            row_ids = table.filter_rows(query.predicates_for(alias))
            if len(row_ids) == 0:
                return aliases, {}
            filtered[alias] = row_ids

        if len(aliases) == 1:
            alias = aliases[0]
            return aliases, {alias: filtered[alias]}

        join_order = self._join_order(aliases, query.joins)

        # Current relation: aligned row-id arrays for the aliases joined so far.
        first_alias = join_order[0][0]
        current: dict[str, np.ndarray] = {first_alias: filtered[first_alias]}

        pending_cycle_joins: list[JoinClause] = []
        for new_alias, join in join_order[1:]:
            if new_alias is None:
                # Both sides already joined: a cycle edge, apply as a filter.
                pending_cycle_joins.append(join)
                continue
            current = self._hash_join(current, filtered[new_alias], new_alias, join, alias_to_table)
            if not current:
                return aliases, {}
            current = self._apply_cycle_joins(current, pending_cycle_joins, alias_to_table)
            pending_cycle_joins = []
            if not current:
                return aliases, {}

        current = self._apply_cycle_joins(current, pending_cycle_joins, alias_to_table)
        if not current:
            return aliases, {}
        return aliases, current

    def _join_order(
        self, aliases: tuple[str, ...], joins: tuple[JoinClause, ...]
    ) -> list[tuple[str | None, JoinClause | None]]:
        """Plan a left-deep join order covering all aliases.

        Returns a list whose first entry is ``(start_alias, None)`` and whose
        subsequent entries are ``(new_alias, join)`` for expansion joins or
        ``(None, join)`` for cycle-closing joins applied as filters.
        """
        if not joins:
            raise DisconnectedJoinGraphError(
                f"query references tables {aliases} but has no join clauses"
            )
        adjacency: dict[str, list[JoinClause]] = {alias: [] for alias in aliases}
        for join in joins:
            adjacency[join.left_alias].append(join)
            adjacency[join.right_alias].append(join)

        start = aliases[0]
        visited = {start}
        order: list[tuple[str | None, JoinClause | None]] = [(start, None)]
        used_joins: set[JoinClause] = set()
        frontier = [start]
        while frontier:
            next_frontier: list[str] = []
            for alias in frontier:
                for join in adjacency[alias]:
                    if join in used_joins:
                        continue
                    other = join.right_alias if join.left_alias == alias else join.left_alias
                    if other in visited:
                        used_joins.add(join)
                        order.append((None, join))
                        continue
                    used_joins.add(join)
                    visited.add(other)
                    order.append((other, join))
                    next_frontier.append(other)
            frontier = next_frontier
        if visited != set(aliases):
            missing = set(aliases) - visited
            raise DisconnectedJoinGraphError(
                f"join graph is disconnected; unreachable tables: {sorted(missing)}"
            )
        # Any joins not reached through BFS (parallel edges) act as filters.
        for join in joins:
            if join not in used_joins:
                order.append((None, join))
        return order

    def _hash_join(
        self,
        current: dict[str, np.ndarray],
        new_rows: np.ndarray,
        new_alias: str,
        join: JoinClause,
        alias_to_table: dict[str, str],
    ) -> dict[str, np.ndarray]:
        """Join the current relation with a filtered base table along ``join``."""
        if join.left_alias == new_alias:
            probe_alias, probe_column = join.right_alias, join.right_column
            build_column = join.left_column
        else:
            probe_alias, probe_column = join.left_alias, join.left_column
            build_column = join.right_column

        probe_table = self.database.table(alias_to_table[probe_alias])
        build_table = self.database.table(alias_to_table[new_alias])

        probe_keys = probe_table.column(probe_column)[current[probe_alias]]
        build_keys = build_table.column(build_column)[new_rows]

        left_idx, right_idx = _match_keys(probe_keys, build_keys)
        if len(left_idx) > self.max_intermediate_rows:
            raise MemoryError(
                f"join result too large ({len(left_idx)} rows exceeds the "
                f"{self.max_intermediate_rows} row limit)"
            )
        if len(left_idx) == 0:
            return {}
        result = {alias: rows[left_idx] for alias, rows in current.items()}
        result[new_alias] = new_rows[right_idx]
        return result

    def _apply_cycle_joins(
        self,
        current: dict[str, np.ndarray],
        joins: list[JoinClause],
        alias_to_table: dict[str, str],
    ) -> dict[str, np.ndarray]:
        """Apply join clauses whose endpoints are both already joined (as filters)."""
        for join in joins:
            if not current:
                return {}
            left_table = self.database.table(alias_to_table[join.left_alias])
            right_table = self.database.table(alias_to_table[join.right_alias])
            left_keys = left_table.column(join.left_column)[current[join.left_alias]]
            right_keys = right_table.column(join.right_column)[current[join.right_alias]]
            mask = left_keys == right_keys
            if not mask.any():
                return {}
            current = {alias: rows[mask] for alias, rows in current.items()}
        return current


def _match_keys(left_keys: np.ndarray, right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return index pairs ``(i, j)`` with ``left_keys[i] == right_keys[j]``.

    Implemented as a sort-merge expansion: the right side is sorted once and,
    for each left key, the matching right range is located with binary search
    and expanded.  Complexity is ``O((n + m) log m + output)``.
    """
    if len(left_keys) == 0 or len(right_keys) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]

    starts = np.searchsorted(sorted_right, left_keys, side="left")
    ends = np.searchsorted(sorted_right, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    # For each matched left row, enumerate the offsets into its right range.
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    right_positions = np.repeat(starts, counts) + offsets
    right_idx = order[right_positions]
    return left_idx, right_idx
