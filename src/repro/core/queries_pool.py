"""The queries pool (Section 5.2).

The pool stores previously executed queries together with their actual
cardinalities (not their results) as part of the database's meta information.
It is indexed by FROM-clause signature because the Cnt2Crd technique only
matches a new query with old queries sharing its FROM clause.

Each FROM-signature bucket is internally keyed by query (queries are
immutable and hash structurally), so recording an executed query —
including the re-add-updates-cardinality case — is O(1) instead of a linear
scan of the bucket.  That keeps pool construction linear in the number of
entries even when one FROM signature dominates, which is exactly the regime
the paper's Table 14 pool-size sweep (and any production pool) runs in.

The pool is also safe to mutate while serving: every operation holds a
per-pool lock, and the read side (:meth:`matching_entries`, iteration,
:meth:`subset`) works on consistent snapshots, so
:meth:`add` can record freshly executed queries concurrently with the
serving layer's batch planning (see :mod:`repro.serving`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.datasets.pairs import LabeledQuery
from repro.sql.query import Query


@dataclass(frozen=True)
class PoolEntry:
    """One pool record: an executed query and its actual cardinality."""

    query: Query
    cardinality: int

    def __post_init__(self) -> None:
        # Written as a chained comparison so NaN fails it too.
        if not 0 <= self.cardinality < math.inf:
            raise ValueError(
                f"cardinality must be finite and non-negative, got {self.cardinality!r}"
            )


@dataclass(frozen=True)
class PoolSlab:
    """One FROM-signature bucket at one version: the unit of Cnt2Crd scoring work.

    Every matched request resolves to one of these.  A slab always carries
    the bucket's eligible entries and their cardinalities; the encoding rows
    are *resident* only when a :class:`repro.serving.PoolEncodingIndex`
    built them, and a rate model decides how to score from that alone (a
    row-less slab is scored pair by pair).

    Attributes:
        entries: the eligible pool entries (positive cardinality), in bucket
            insertion order; column ``i`` of every matrix belongs to
            ``entries[i].query``.
        cardinalities: ``(len(entries),)`` float64 entry cardinalities,
            aligned with ``entries`` — precomputed so the per-request
            estimate math needs no Python loop over the entries.
        token: a hashable identity of this slab state; two slabs with equal
            tokens carry identical entries (and rows), so batched callers
            deduplicate rate computation on ``(query, token)``.
        first: ``None``, or the ``(H, len(entries))`` position-1 encodings
            (the pool query as the *first* element of its ``(Qold, Qnew)``
            x-rate pair), **feature-major**: entry ``i`` is column ``i``.
            float32 when the resolving estimator has a compiled inference
            plan (whose fused slab kernel reads it in place), float64
            otherwise.  A read-only view into index-owned storage.
        second: ``None``, or the position-2 encodings (the pool query as the
            *second* element of its ``(Qnew, Qold)`` y-rate pair), same
            layout and dtype.
    """

    entries: tuple[PoolEntry, ...]
    cardinalities: np.ndarray
    token: tuple
    first: np.ndarray | None = None
    second: np.ndarray | None = None


class QueriesPool:
    """A FROM-clause-indexed pool of executed queries with known cardinalities."""

    def __init__(self, entries: Iterable[PoolEntry] = ()) -> None:
        # FROM signature -> {query -> entry}; the inner dict gives O(1)
        # dedup/update and preserves insertion order like the old list did.
        self._by_from: dict[tuple[tuple[str, str], ...], dict[Query, PoolEntry]] = {}
        # Per-signature mutation counters: every add() bumps its bucket's
        # version, so incremental consumers (the serving layer's
        # PoolEncodingIndex) can detect "this bucket changed" in O(1)
        # instead of re-diffing the bucket on every read.
        self._bucket_versions: dict[tuple[tuple[str, str], ...], int] = {}
        self._size = 0
        self._lock = threading.Lock()
        for entry in entries:
            self.add(entry.query, entry.cardinality)

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def from_labeled_queries(cls, labeled: Sequence[LabeledQuery]) -> "QueriesPool":
        """Build a pool from queries already labelled with true cardinalities."""
        return cls(PoolEntry(item.query, item.cardinality) for item in labeled)

    def add(self, query: Query, cardinality: int) -> None:
        """Record an executed query with its actual cardinality.

        Re-adding an identical query updates its cardinality instead of
        duplicating it.  Safe to call while the pool is serving requests:
        concurrent readers see either the pool before or after this entry,
        never a partial state.
        """
        entry = PoolEntry(query, cardinality)
        signature = query.from_signature()
        with self._lock:
            bucket = self._by_from.setdefault(signature, {})
            if query not in bucket:
                self._size += 1
            bucket[query] = entry
            self._bucket_versions[signature] = self._bucket_versions.get(signature, 0) + 1

    # ------------------------------------------------------------------ #
    # lookup

    def matching_entries(self, query: Query) -> list[PoolEntry]:
        """All pool entries whose FROM clause matches ``query``'s FROM clause."""
        with self._lock:
            bucket = self._by_from.get(query.from_signature())
            return list(bucket.values()) if bucket else []

    def has_match(self, query: Query) -> bool:
        """Whether at least one pool entry shares ``query``'s FROM clause."""
        with self._lock:
            return bool(self._by_from.get(query.from_signature()))

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def __iter__(self) -> Iterator[PoolEntry]:
        with self._lock:
            snapshot = [
                entry for bucket in self._by_from.values() for entry in bucket.values()
            ]
        return iter(snapshot)

    def bucket_version(self, signature: tuple[tuple[str, str], ...]) -> int:
        """The mutation counter of one FROM-signature bucket (0 when absent).

        Every :meth:`add` touching the bucket increments it, so a consumer
        that cached derived per-bucket state (e.g. the serving layer's pool
        encoding index) can check "did this bucket change?" in O(1) without
        copying the bucket.
        """
        with self._lock:
            return self._bucket_versions.get(signature, 0)

    def bucket_snapshot(
        self, signature: tuple[tuple[str, str], ...]
    ) -> tuple[list[PoolEntry], int]:
        """One bucket's entries plus its version, read atomically.

        Reading entries and version under one lock acquisition means the
        returned version describes exactly the returned entries: an
        :meth:`add` landing concurrently is either fully included (and the
        version reflects it) or fully excluded — a consumer caching by
        version can never associate a version with a partially-applied state.
        """
        with self._lock:
            bucket = self._by_from.get(signature)
            entries = list(bucket.values()) if bucket else []
            return entries, self._bucket_versions.get(signature, 0)

    def bucket_slab(self, signature: tuple[tuple[str, str], ...]) -> PoolSlab:
        """A row-less :class:`PoolSlab` of one bucket's eligible entries.

        A pool query with an empty result cannot contribute: its estimate is
        always x/y * 0 = 0, and with exact rates the y_rate guard would skip
        it anyway (Qnew ⊂% Qold = 0 when Qold is empty).  Entries and version
        come from one :meth:`bucket_snapshot`, so the token names exactly the
        returned entries.
        """
        entries, version = self.bucket_snapshot(signature)
        eligible = tuple(entry for entry in entries if entry.cardinality > 0)
        cardinalities = np.fromiter(
            (entry.cardinality for entry in eligible),
            dtype=np.float64,
            count=len(eligible),
        )
        return PoolSlab(eligible, cardinalities, token=(signature, version, len(eligible)))

    def from_signatures(self) -> list[tuple[tuple[str, str], ...]]:
        """All distinct FROM-clause signatures present in the pool."""
        with self._lock:
            return list(self._by_from)

    def subset(self, size: int) -> "QueriesPool":
        """Return a smaller pool with roughly ``size`` entries.

        Entries are taken round-robin across FROM signatures so the subset
        stays "equally distributed among all the possible FROM clauses"
        (Section 6.2), which is what the Table 14 pool-size sweep varies.
        """
        if size <= 0:
            raise ValueError("subset size must be positive")
        with self._lock:
            buckets = [list(bucket.values()) for bucket in self._by_from.values()]
            total = self._size
        if size >= total:
            return QueriesPool(entry for bucket in buckets for entry in bucket)
        selected: list[PoolEntry] = []
        round_index = 0
        while len(selected) < size:
            progressed = False
            for bucket in buckets:
                if round_index < len(bucket):
                    selected.append(bucket[round_index])
                    progressed = True
                    if len(selected) >= size:
                        break
            if not progressed:
                break
            round_index += 1
        return QueriesPool(selected)
