"""Cross-request caches for the estimation service's featurization hot path.

Under sustained traffic the same request queries arrive over and over, and
each is featurized and encoded once per pair slot before it is scored.  Both
stages are pure functions of the query (see
:meth:`repro.core.crn.CRNModel.encode_set`), which makes them safely
memoizable:

* :class:`FeaturizationCache` memoizes the query → set-of-feature-vectors
  step (:meth:`repro.core.featurization.QueryFeaturizer.featurize`);
* :class:`EncodingCache` memoizes the featurized query → ``Qvec`` step of the
  CRN set encoders, keyed by ``(query, pair slot)``.

Both hold request queries only: a pool entry's encodings live in its
:class:`repro.serving.PoolEncodingIndex` slab, which encodes them without
passing through either cache.

Queries are immutable and hash structurally (:mod:`repro.sql.query`), so the
query itself is the cache key.  Nothing else needs to be in it: the two
caches serve one :class:`repro.core.crn.CRNEstimator`, whose model and
featurizer are fixed at construction, and a database update is served by a
newly wired estimator with caches of its own
(:func:`repro.serving.stack.wire_estimator`).  Both caches keep LRU order and
take an optional ``max_entries`` bound for long-running services.

Thread safety: both caches are safe under concurrent access.  Each cache
counts its hits, misses and evictions in one
:class:`repro.observability.Counters` (its ``stats``) and every
:class:`_LRUStore` operation holds a fine-grained per-store lock, so many
serving threads — or the :class:`repro.serving.ServingDispatcher` thread plus
direct callers — can share one cache.  Value computation happens *outside*
the store lock: two threads missing on the same key may both compute the
value (featurization is pure, so the duplicate work is benign), and the
second ``put`` simply overwrites the first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.featurization import QueryFeaturizer
from repro.observability.counters import Counters
from repro.sql.query import Query

_MISSING = object()  # what _LRUStore.get reads for an absent key


def _stats_snapshot(stats: Counters) -> dict[str, float]:
    """A cache's counters plus its hit rate, from one locked read."""
    values = stats.snapshot()
    lookups = values["hits"] + values["misses"]
    snapshot = {name: float(value) for name, value in values.items()}
    snapshot["hit_rate"] = values["hits"] / lookups if lookups else 0.0
    return snapshot


class _LRUStore:
    """A tiny LRU map with shared stats accounting and a per-store lock."""

    def __init__(self, max_entries: int | None, stats: Counters) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self._store: OrderedDict = OrderedDict()
        self._max_entries = max_entries
        self._stats = stats
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING:
                self._stats.add("hits")
                self._store.move_to_end(key)
                return value
        self._stats.add("misses")
        return None

    def put(self, key, value) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            if self._max_entries is not None and len(self._store) > self._max_entries:
                self._store.popitem(last=False)
                self._stats.add("evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


class FeaturizationCache:
    """A memoizing stand-in for a :class:`QueryFeaturizer`.

    Wraps a featurizer and caches :meth:`featurize` results per query, so a
    query asked thousands of times is featurized once.  What
    :class:`repro.core.crn.CRNEstimator` and
    :class:`repro.serving.PoolEncodingIndex` read of a featurizer besides
    :meth:`featurize` — ``vector_size`` and ``featurize_many``, uncached — is
    forwarded, so the cache can stand in for the featurizer there.

    Args:
        featurizer: the wrapped featurizer.
        max_entries: optional LRU bound on cached queries (None = unbounded).
    """

    def __init__(self, featurizer: QueryFeaturizer, max_entries: int | None = None) -> None:
        self.featurizer = featurizer
        self.stats = Counters(hits=0, misses=0, evictions=0)
        self._store = _LRUStore(max_entries, self.stats)

    def featurize(self, query: Query) -> np.ndarray:
        """Memoized :meth:`QueryFeaturizer.featurize`."""
        cached = self._store.get(query)
        if cached is not None:
            return cached
        features = self.featurizer.featurize(query)
        self._store.put(query, features)
        return features

    def featurize_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`QueryFeaturizer.featurize_many`, uncached: bulk featurization
        (a pool bucket's entries, a batch's encoding-cache misses) feeds
        encodings that are stored elsewhere, and this cache keeps what
        :meth:`featurize` memoizes for single request queries."""
        return self.featurizer.featurize_many(queries)

    @property
    def vector_size(self) -> int:
        """The wrapped featurizer's vector dimension ``L``."""
        return self.featurizer.vector_size

    def __len__(self) -> int:
        return len(self._store)

    def stats_snapshot(self) -> dict[str, float]:
        """Hits, misses, evictions and the hit rate."""
        return _stats_snapshot(self.stats)


class EncodingCache:
    """A ``(query, pair slot) -> Qvec`` cache for the CRN set encoders.

    The CRN uses a different encoder per pair position (``MLP1`` / ``MLP2``),
    so the slot is part of the key: a query serving as containment source
    *and* target caches two encodings.  Entries are ``(H,)`` float64 arrays —
    a few hundred bytes each — so even a million cached queries fit
    comfortably in memory.

    Encodings are a function of the model's weights, so a cache is tied to
    exactly one model: :class:`repro.core.crn.CRNEstimator` calls
    :meth:`bind` at construction, and binding the same cache to a second
    model raises instead of silently serving the first model's encodings.
    A retrained model gets a cache of its own
    (:func:`repro.serving.stack.wire_estimator` builds one per estimator), so
    a hot swap never clears or re-ties a live cache.

    Args:
        max_entries: optional LRU bound on cached encodings (None = unbounded).
    """

    def __init__(self, max_entries: int | None = None) -> None:
        self.stats = Counters(hits=0, misses=0, evictions=0)
        self._store = _LRUStore(max_entries, self.stats)
        self._owner: object | None = None

    def bind(self, owner: object) -> None:
        """Tie this cache to the model producing its encodings."""
        if self._owner is None:
            self._owner = owner
        elif self._owner is not owner:
            raise ValueError(
                "EncodingCache is already bound to a different model; encodings "
                "are model-specific, use one cache per model"
            )

    def get(self, query: Query, position: int) -> np.ndarray | None:
        """The cached encoding for ``(query, position)``, or None on a miss."""
        return self._store.get((query, position))

    def put(self, query: Query, position: int, encoding: np.ndarray) -> None:
        """Record an encoding (evicting the least recently used if bounded)."""
        self._store.put((query, position), encoding)

    def __len__(self) -> int:
        return len(self._store)

    def stats_snapshot(self) -> dict[str, float]:
        """Hits, misses, evictions and the hit rate."""
        return _stats_snapshot(self.stats)
