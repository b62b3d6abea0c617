"""Unit tests for the SQL subset parser and formatter."""

import pytest
from hypothesis import given

from repro.sql.parser import SQLParseError, format_query, parse_query
from repro.sql.query import ComparisonOperator
from tests.test_property_based import _COMMON_SETTINGS, toy_queries


class TestParseQuery:
    def test_single_table_no_where(self):
        query = parse_query("SELECT * FROM title t")
        assert query.table_names == ("title",)
        assert query.num_joins == 0
        assert query.num_predicates == 0

    def test_alias_defaults_to_table_name(self):
        query = parse_query("SELECT * FROM title")
        assert query.aliases == ("title",)

    def test_as_keyword_alias(self):
        query = parse_query("SELECT * FROM title AS t")
        assert query.aliases == ("t",)

    def test_join_and_predicates(self):
        query = parse_query(
            "SELECT * FROM title t, movie_companies mc "
            "WHERE t.id = mc.movie_id AND t.production_year > 2000 AND mc.company_id = 5"
        )
        assert query.num_joins == 1
        assert query.num_predicates == 2
        operators = {predicate.operator for predicate in query.predicates}
        assert operators == {ComparisonOperator.GT, ComparisonOperator.EQ}

    def test_case_insensitive_keywords_and_trailing_semicolon(self):
        query = parse_query("select * from title t where t.kind_id = 1;")
        assert query.num_predicates == 1

    def test_where_true_is_ignored(self):
        query = parse_query("SELECT * FROM title t WHERE TRUE")
        assert query.num_predicates == 0

    def test_float_literal(self):
        query = parse_query("SELECT * FROM title t WHERE t.production_year < 1999.5")
        assert query.predicates[0].value == pytest.approx(1999.5)

    def test_rejects_projection(self):
        with pytest.raises(SQLParseError):
            parse_query("SELECT id FROM title t")

    def test_rejects_non_equi_join(self):
        with pytest.raises(SQLParseError):
            parse_query("SELECT * FROM title t, movie_companies mc WHERE t.id < mc.movie_id")

    def test_rejects_unsupported_condition(self):
        with pytest.raises(SQLParseError):
            parse_query("SELECT * FROM title t WHERE t.production_year BETWEEN 1990 AND 2000")

    def test_rejects_malformed_from_item(self):
        with pytest.raises(SQLParseError):
            parse_query("SELECT * FROM title the alias t")

    def test_rejects_unknown_alias_reference(self):
        with pytest.raises(SQLParseError):
            parse_query("SELECT * FROM title t WHERE mc.company_id = 3")


class TestFormatQuery:
    def test_round_trip(self):
        sql = (
            "SELECT * FROM movie_companies mc, title t "
            "WHERE mc.movie_id = t.id AND mc.company_id = 5 AND t.production_year > 2000"
        )
        query = parse_query(sql)
        assert parse_query(format_query(query)) == query

    def test_no_where_clause(self):
        query = parse_query("SELECT * FROM title t")
        assert format_query(query) == "SELECT * FROM title t"

    def test_format_contains_all_clauses(self):
        query = parse_query(
            "SELECT * FROM title t, movie_keyword mk WHERE t.id = mk.movie_id AND mk.keyword_id = 9"
        )
        text = format_query(query)
        assert "mk.movie_id = t.id" in text  # joins are stored in canonical orientation
        assert "mk.keyword_id = 9" in text


_CANONICAL = parse_query(
    "SELECT * FROM movie_companies mc, title t "
    "WHERE mc.movie_id = t.id AND mc.company_id = -5 AND t.production_year < 1999.5"
)

#: Spellings of one statement the parser must accept and canonicalize alike.
ACCEPTED_SPELLINGS = [
    "select * from movie_companies mc, title t "
    "where mc.movie_id = t.id and mc.company_id = -5 and t.production_year < 1999.5",
    "SeLeCt * FrOm movie_companies mc, title t "
    "WhErE mc.movie_id = t.id aNd mc.company_id = -5 AnD t.production_year < 1999.5",
    "SELECT * FROM movie_companies AS mc, title as t "
    "WHERE mc.movie_id = t.id AND mc.company_id = -5 AND t.production_year < 1999.5;",
    "  SELECT  *  FROM title t ,movie_companies mc\n"
    "WHERE t.production_year<1999.5\tAND t.id=mc.movie_id AND\nmc.company_id = -5 ; ",
    "SELECT * FROM title t, movie_companies mc, title t WHERE TRUE AND t.id = mc.movie_id "
    "AND mc.company_id = -5 AND true AND mc.movie_id = t.id AND mc.company_id = -5.0 "
    "AND t.production_year < 1999.50 AND TRUE",
]

#: ``(statement, message)``: each is refused with a ``SQLParseError`` carrying
#: exactly the message the split-then-match parser gave it.
REJECTED_STATEMENTS = [
    ("SELECT id FROM title t", "not a supported SELECT * query: 'SELECT id FROM title t'"),
    ("", "not a supported SELECT * query: ''"),
    ("SELECT * FROM", "not a supported SELECT * query: 'SELECT * FROM'"),
    (
        "SELECT * FROM title t, movie_companies mc WHERE t.id < mc.movie_id",
        "only equi-joins are supported, got: 't.id < mc.movie_id'",
    ),
    (
        "SELECT * FROM title t, movie_companies mc "
        "WHERE t.kind_id = 1 AND  t.id > mc.movie_id  AND mc.company_id = 2",
        "only equi-joins are supported, got: 't.id > mc.movie_id'",
    ),
    (
        "SELECT * FROM title t WHERE mc.company_id = 3",
        "predicate mc.company_id = 3 references an alias outside the FROM clause",
    ),
    (
        "SELECT * FROM title t, movie_companies mc WHERE t.id = ci.movie_id",
        "join ci.movie_id = t.id references an alias outside the FROM clause",
    ),
    (
        "SELECT * FROM title t, movie_companies t",
        "duplicate table aliases in FROM clause: ['t', 't']",
    ),
    (
        "SELECT * FROM title t WHERE t.production_year BETWEEN 1990 AND 2000",
        "unsupported WHERE condition: 't.production_year BETWEEN 1990'",
    ),
    (
        "SELECT * FROM title t WHERE t.kind_id = 1 AND AND t.production_year > 5",
        "unsupported WHERE condition: 'AND t.production_year > 5'",
    ),
    (
        "SELECT * FROM title t WHERE t.kind_id = 1 AND",
        "unsupported WHERE condition: 't.kind_id = 1 AND'",
    ),
    (
        "SELECT * FROM title t WHERE t.kind_id = 1 OR t.kind_id = 2",
        "unsupported WHERE condition: 't.kind_id = 1 OR t.kind_id = 2'",
    ),
    ("SELECT * FROM title t WHERE t.kind_id >= 1", "unsupported WHERE condition: 't.kind_id >= 1'"),
    (
        "SELECT * FROM title t WHERE t.kind_id = 1.5.2",
        "unsupported WHERE condition: 't.kind_id = 1.5.2'",
    ),
    (
        "SELECT * FROM title t WHERE t.kind_id = 12and t.id = 3",
        "unsupported WHERE condition: 't.kind_id = 12and t.id = 3'",
    ),
    ("SELECT * FROM title t WHERE kind_id = 1", "unsupported WHERE condition: 'kind_id = 1'"),
    (
        "SELECT * FROM title t WHERE t.kind_id = 1 AND true AND nonsense",
        "unsupported WHERE condition: 'nonsense'",
    ),
    ("SELECT * FROM title t WHERE TRUE TRUE", "unsupported WHERE condition: 'TRUE TRUE'"),
    ("SELECT * FROM title the alias t", "unsupported FROM item: 'title the alias t'"),
    ("SELECT * FROM title t,", "unsupported FROM item: ''"),
    (
        "SELECT * FROM title t JOIN movie_companies mc",
        "unsupported FROM item: 'title t JOIN movie_companies mc'",
    ),
]


class TestParserDifferential:
    """The one-pass parser against the behaviour it replaced, case by case."""

    @_COMMON_SETTINGS
    @given(toy_queries())
    def test_format_then_parse_is_the_identity(self, query):
        parsed = parse_query(format_query(query))
        assert parsed == query
        assert hash(parsed) == hash(query)
        assert parsed.from_signature() == query.from_signature()
        assert (parsed.tables, parsed.joins, parsed.predicates) == (
            query.tables,
            query.joins,
            query.predicates,
        )

    @pytest.mark.parametrize("sql", ACCEPTED_SPELLINGS)
    def test_accepted_spellings_canonicalize_alike(self, sql):
        parsed = parse_query(sql)
        assert parsed == _CANONICAL
        assert hash(parsed) == hash(_CANONICAL)
        assert format_query(parsed) == format_query(_CANONICAL)

    def test_negative_decimal_and_signed_literals(self):
        query = parse_query("SELECT * FROM title t WHERE t.a = -0.25 AND t.b > +7 AND t.c < 007")
        assert [predicate.value for predicate in query.predicates] == [-0.25, 7.0, 7.0]

    def test_keywords_are_valid_names_where_the_grammar_allows(self):
        query = parse_query("SELECT * FROM andy and, truth true WHERE and.and = true.and AND true.x = 1")
        assert query.aliases == ("and", "true")
        assert query.num_joins == 1 and query.num_predicates == 1

    @pytest.mark.parametrize("sql, message", REJECTED_STATEMENTS)
    def test_rejected_statements_keep_type_and_message(self, sql, message):
        with pytest.raises(SQLParseError) as raised:
            parse_query(sql)
        assert str(raised.value) == message
