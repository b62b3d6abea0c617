"""Inputs are a function of the seed alone."""

from __future__ import annotations

from dataclasses import replace

from repro.sql import format_query, parse_query

from bench.world import bucket_queries, bucket_requests, generated_queries


def _all_sql(world) -> list[str]:
    generated = generated_queries(world, 40, 2, False)
    return (
        bucket_queries(world, 200, 3)
        + bucket_requests(world, 20, 4)
        + [format_query(item.query) for item in generated]
    )


def test_same_seed_same_sql_and_other_seed_other_sql(tiny_world):
    assert _all_sql(tiny_world) == _all_sql(tiny_world)
    other = replace(tiny_world, seed=tiny_world.seed + 1)
    assert bucket_queries(other, 200, 3) != bucket_queries(tiny_world, 200, 3)
    assert bucket_requests(other, 20, 4) != bucket_requests(tiny_world, 20, 4)
    assert _all_sql(other) != _all_sql(tiny_world)


def test_bucket_queries_are_distinct_parseable_and_evenly_split(tiny_world):
    queries = bucket_queries(tiny_world, 200, 3)
    assert len(set(queries)) == 200
    signatures = [parse_query(sql).from_signature() for sql in queries]
    assert sorted(signatures.count(s) for s in set(signatures)) == [100, 100]
    requests = bucket_requests(tiny_world, 21, 4)
    assert len(set(requests)) == 21
    assert {parse_query(sql).from_signature() for sql in requests} == set(signatures)
