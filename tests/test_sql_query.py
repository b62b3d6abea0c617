"""Unit tests for the conjunctive query types."""

import copy
import itertools
import pickle

import pytest

from repro.sql.query import (
    OPERATORS,
    ComparisonOperator,
    JoinClause,
    Predicate,
    Query,
    TableRef,
)


class TestComparisonOperator:
    def test_from_symbol_round_trips(self):
        for operator in OPERATORS:
            assert ComparisonOperator.from_symbol(operator.value) is operator

    def test_from_symbol_rejects_unknown(self):
        with pytest.raises(ValueError):
            ComparisonOperator.from_symbol(">=")

    def test_evaluate(self):
        assert ComparisonOperator.LT.evaluate(1, 2)
        assert not ComparisonOperator.LT.evaluate(2, 1)
        assert ComparisonOperator.GT.evaluate(3, 2)
        assert ComparisonOperator.EQ.evaluate(2, 2)
        assert not ComparisonOperator.EQ.evaluate(2, 3)

    def test_flipped(self):
        assert ComparisonOperator.LT.flipped() is ComparisonOperator.GT
        assert ComparisonOperator.GT.flipped() is ComparisonOperator.LT
        assert ComparisonOperator.EQ.flipped() is ComparisonOperator.EQ

    def test_operators_are_sortable(self):
        assert sorted(OPERATORS) == sorted(OPERATORS, key=lambda op: op.value)


class TestTableRef:
    def test_alias_defaults_to_name(self):
        assert TableRef("title").alias == "title"

    def test_explicit_alias(self):
        ref = TableRef("title", "t")
        assert str(ref) == "title t"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TableRef("")


class TestJoinClause:
    def test_canonical_orientation(self):
        forward = JoinClause("t", "id", "mc", "movie_id")
        backward = JoinClause("mc", "movie_id", "t", "id")
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_qualified_sides(self):
        join = JoinClause("t", "id", "mc", "movie_id")
        assert {join.left, join.right} == {"t.id", "mc.movie_id"}

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError):
            JoinClause("t", "", "mc", "movie_id")


class TestPredicate:
    def test_value_coerced_to_float(self):
        predicate = Predicate("t", "year", ComparisonOperator.EQ, 2000)
        assert isinstance(predicate.value, float)

    def test_string_rendering_integral(self):
        predicate = Predicate("t", "year", ComparisonOperator.GT, 2000)
        assert str(predicate) == "t.year > 2000"

    def test_qualified_column(self):
        predicate = Predicate("mc", "company_id", ComparisonOperator.LT, 7)
        assert predicate.qualified_column == "mc.company_id"

    def test_empty_alias_rejected(self):
        with pytest.raises(ValueError):
            Predicate("", "year", ComparisonOperator.EQ, 1)

    def test_nan_value_rejected(self):
        # No row satisfies a comparison with NaN; a NaN predicate used to be
        # served as a NaN estimate.
        with pytest.raises(ValueError, match="NaN"):
            Predicate("t", "year", ComparisonOperator.GT, float("nan"))

    @pytest.mark.parametrize("bound", [float("inf"), float("-inf")])
    def test_infinite_value_is_an_open_bound(self, bound):
        predicate = Predicate("t", "year", ComparisonOperator.LT, bound)
        assert predicate.value == bound


class TestQuery:
    def make_query(self) -> Query:
        return Query.create(
            tables=[TableRef("movie_companies", "mc"), TableRef("title", "t")],
            joins=[JoinClause("t", "id", "mc", "movie_id")],
            predicates=[Predicate("t", "year", ComparisonOperator.GT, 2000)],
        )

    def test_clause_order_does_not_matter(self):
        first = self.make_query()
        second = Query.create(
            tables=[TableRef("title", "t"), TableRef("movie_companies", "mc")],
            joins=[JoinClause("mc", "movie_id", "t", "id")],
            predicates=[Predicate("t", "year", ComparisonOperator.GT, 2000)],
        )
        assert first == second
        assert hash(first) == hash(second)

    def test_duplicate_clauses_are_removed(self):
        query = Query.create(
            tables=[TableRef("title", "t"), TableRef("title", "t")],
            predicates=[
                Predicate("t", "year", ComparisonOperator.GT, 2000),
                Predicate("t", "year", ComparisonOperator.GT, 2000),
            ],
        )
        assert len(query.tables) == 1
        assert query.num_predicates == 1

    def test_requires_at_least_one_table(self):
        with pytest.raises(ValueError):
            Query.create(tables=[])

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(ValueError):
            Query.create(tables=[TableRef("title", "t"), TableRef("movie_companies", "t")])

    def test_join_alias_must_be_bound(self):
        with pytest.raises(ValueError):
            Query.create(
                tables=[TableRef("title", "t")],
                joins=[JoinClause("t", "id", "mc", "movie_id")],
            )

    def test_predicate_alias_must_be_bound(self):
        with pytest.raises(ValueError):
            Query.create(
                tables=[TableRef("title", "t")],
                predicates=[Predicate("mc", "company_id", ComparisonOperator.EQ, 1)],
            )

    def test_unsorted_and_duplicated_clauses_equal_the_sorted_query(self):
        tables = [TableRef("cast_info", "ci"), TableRef("movie_companies", "mc"), TableRef("title", "t")]
        joins = [JoinClause("ci", "movie_id", "t", "id"), JoinClause("mc", "movie_id", "t", "id")]
        predicates = [
            Predicate("ci", "role_id", ComparisonOperator.LT, 3),
            Predicate("t", "year", ComparisonOperator.EQ, 2000),
            Predicate("t", "year", ComparisonOperator.GT, 1990),
        ]
        canonical = Query(tuple(tables), tuple(joins), tuple(predicates))
        assert (canonical.tables, canonical.joins, canonical.predicates) == (
            tuple(tables),
            tuple(joins),
            tuple(predicates),
        )
        for clauses in itertools.permutations(range(3)):
            shuffled = Query(
                tuple(tables[i] for i in clauses) + (tables[clauses[0]],),
                tuple(reversed(joins)) + tuple(joins),
                [predicates[i] for i in clauses] * 2,
            )
            assert shuffled == canonical
            assert hash(shuffled) == hash(canonical)
            assert shuffled.tables == canonical.tables
            assert shuffled.joins == canonical.joins
            assert shuffled.predicates == canonical.predicates

    def test_clauses_of_any_iterable_type_become_tuples(self):
        table = TableRef("title", "t")
        predicate = Predicate("t", "year", ComparisonOperator.GT, 2000)
        from_lists = Query([table], [], [predicate])
        from_iterators = Query.create(iter([table]), iter(()), iter([predicate]))
        assert from_lists == from_iterators == Query((table,), (), (predicate,))
        for query in (from_lists, from_iterators):
            assert (query.tables, query.joins, query.predicates) == ((table,), (), (predicate,))

    def test_from_signature_ignores_predicates(self):
        query = self.make_query()
        assert query.from_signature() == query.without_predicates().from_signature()

    def test_predicates_for_alias(self):
        query = self.make_query()
        assert len(query.predicates_for("t")) == 1
        assert query.predicates_for("mc") == ()

    def test_num_joins_and_aliases(self):
        query = self.make_query()
        assert query.num_joins == 1
        assert set(query.aliases) == {"t", "mc"}

    def test_str_is_sql(self):
        assert str(self.make_query()).startswith("SELECT * FROM")


class TestClauseTuples:
    """The clause types are named tuples; these pin what that keeps and changes."""

    TABLE = TableRef("title", "t")
    JOIN = JoinClause("t", "id", "mc", "movie_id")
    PREDICATE = Predicate("t", "year", ComparisonOperator.GT, 2000)

    def test_hash_is_the_hash_of_the_field_tuple(self):
        # A frozen dataclass hashed the tuple of its fields too, so set and
        # dict orders (and the pinned workload digests) do not move.
        assert hash(TableRef("title", "t")) == hash(("title", "t"))
        assert hash(TableRef("title")) == hash(("title", "title"))
        assert hash(self.JOIN) == hash(("mc", "movie_id", "t", "id"))
        assert hash(self.PREDICATE) == hash(("t", "year", ComparisonOperator.GT, 2000.0))

    def test_join_orientation_is_canonical(self):
        backward = JoinClause("t", "id", "mc", "movie_id")
        forward = JoinClause("mc", "movie_id", "t", "id")
        for join in (backward, forward):
            assert tuple(join) == ("mc", "movie_id", "t", "id")
            assert (join.left, join.right) == ("mc.movie_id", "t.id")
        # Equal sides, or equal aliases ordered by column, stay as written.
        assert tuple(JoinClause("t", "id", "t", "id")) == ("t", "id", "t", "id")
        assert tuple(JoinClause("t", "kind_id", "t", "id")) == ("t", "id", "t", "kind_id")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TableRef(""), "table name must be non-empty"),
            (lambda: TableRef("", "t"), "table name must be non-empty"),
            (lambda: JoinClause("", "id", "mc", "movie_id"), "join clause components must be non-empty"),
            (lambda: JoinClause("t", "", "mc", "movie_id"), "join clause components must be non-empty"),
            (lambda: JoinClause("t", "id", "", "movie_id"), "join clause components must be non-empty"),
            (lambda: JoinClause("t", "id", "mc", ""), "join clause components must be non-empty"),
            (lambda: Predicate("", "year", ComparisonOperator.EQ, 1), "predicate alias and column must be non-empty"),
            (lambda: Predicate("t", "", ComparisonOperator.EQ, 1), "predicate alias and column must be non-empty"),
            (lambda: Predicate("t", "year", ComparisonOperator.EQ, "x"), "could not convert string to float: 'x'"),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_fields_coercion_and_defaults(self):
        assert TableRef("title") == TableRef("title", "") == TableRef(name="title", alias="title")
        value = Predicate("t", "year", ComparisonOperator.LT, 7).value
        assert type(value) is float and value == 7.0
        assert not hasattr(self.TABLE, "__dict__")  # __slots__ = () on every class
        assert repr(self.TABLE) == "TableRef(name='title', alias='t')"

    def test_pickle_and_copy_round_trip(self):
        for clause in (self.TABLE, self.JOIN, self.PREDICATE):
            for restored in (
                pickle.loads(pickle.dumps(clause)),
                copy.copy(clause),
                copy.deepcopy(clause),
            ):
                assert type(restored) is type(clause)
                assert restored == clause and hash(restored) == hash(clause)
        query = Query((self.TABLE,), (), (self.PREDICATE,))
        assert pickle.loads(pickle.dumps(query)) == query

    def test_clause_kinds_never_equal_each_other(self):
        # Same arity, different kinds: a predicate's operator is an enum.
        assert JoinClause("t", "year", "t", "id") != Predicate(
            "t", "year", ComparisonOperator.EQ, 1
        )
        assert self.TABLE != self.JOIN != self.PREDICATE != self.TABLE

    def test_query_never_equals_a_tuple(self):
        query = Query((self.TABLE,), (), (self.PREDICATE,))
        assert query != (query.tables, query.joins, query.predicates)
        assert query != query.tables

    def test_table_ref_equals_its_signature_pair(self):
        # The one semantic change from the dataclass: a TableRef is the
        # plain (name, alias) tuple, so a query's tables equal its signature.
        query = Query((self.TABLE, TableRef("movie_companies", "mc")), (self.JOIN,))
        assert self.TABLE == ("title", "t")
        assert query.tables == query.from_signature()

