"""Section 9 extensions: set-operation queries, string predicates, database updates."""

from repro.extensions.set_queries import (
    CompoundCardinalityEstimator,
    CompoundContainmentEstimator,
    CompoundQuery,
    ExceptQuery,
    OrQuery,
    UnionQuery,
    leading_query,
)
from repro.extensions.strings import (
    HASH_SPACE,
    StringDictionary,
    hash_string,
    string_equality_predicate,
)
from repro.extensions.updates import (
    incremental_update,
    refresh_queries_pool,
    retrain_from_scratch,
)

__all__ = [
    "CompoundCardinalityEstimator",
    "CompoundContainmentEstimator",
    "CompoundQuery",
    "ExceptQuery",
    "HASH_SPACE",
    "OrQuery",
    "StringDictionary",
    "UnionQuery",
    "hash_string",
    "incremental_update",
    "leading_query",
    "refresh_queries_pool",
    "retrain_from_scratch",
    "string_equality_predicate",
]
