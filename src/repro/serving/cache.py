"""Cross-request caches for the estimation service's featurization hot path.

Under sustained traffic the same request queries arrive over and over, and
each is featurized and encoded once per pair slot before it is scored.  Both
stages are pure functions of the query (see
:meth:`repro.core.crn.CRNModel.encode_set`), which makes them safely
memoizable:

* :class:`FeaturizationCache` memoizes the query → set-of-feature-vectors
  step (:meth:`repro.core.featurization.QueryFeaturizer.featurize`);
* :class:`EncodingCache` memoizes the featurized query → ``Qvec`` step of the
  CRN set encoders, keyed by ``(snapshot scope, query, pair slot)``.

Both hold request queries only: a pool entry's encodings live in its
:class:`repro.serving.PoolEncodingIndex` slab, which encodes them without
passing through either cache.

Queries are immutable and hash structurally (:mod:`repro.sql.query`), so the
query itself is the cache key; :meth:`QueryFeaturizer.cache_key` additionally
scopes keys to the database snapshot the featurizer is bound to, and the
encoding cache carries the same scope so a featurizer rebound after a
database update (:mod:`repro.extensions.updates`) can never serve stale
encodings.  Both caches keep LRU order and support a ``max_entries`` bound
for long-running services.

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

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


class FeaturizationCache:
    """A memoizing drop-in replacement for :class:`QueryFeaturizer`.

    Wraps a featurizer and caches :meth:`featurize` results per query, so a
    query asked thousands of times is featurized once.  The read-side
    surface of the featurizer (``vector_size``, ``layout``,
    ``featurize_many`` — uncached —, ``normalize_value``, ``fingerprint``)
    is forwarded, so the cache can be passed anywhere a featurizer is
    expected — in particular to :class:`repro.core.crn.CRNEstimator`.

    Args:
        featurizer: the wrapped featurizer.
        max_entries: optional LRU bound on cached queries (None = unbounded).
    """

    def __init__(self, featurizer: QueryFeaturizer, max_entries: int | None = None) -> None:
        self.featurizer = featurizer
        self.stats = Counters(hits=0, misses=0, evictions=0)
        self._store = _LRUStore(max_entries, self.stats)

    # ------------------------------------------------------------------ #
    # cached featurization

    def featurize(self, query: Query) -> np.ndarray:
        """Memoized :meth:`QueryFeaturizer.featurize`."""
        key = self.featurizer.cache_key(query)
        cached = self._store.get(key)
        if cached is not None:
            return cached
        features = self.featurizer.featurize(query)
        self._store.put(key, features)
        return features

    def featurize_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`QueryFeaturizer.featurize_many`, uncached: bulk featurization
        (a pool bucket's entries, a batch's encoding-cache misses) feeds
        encodings that are stored elsewhere, and this cache keeps what
        :meth:`featurize` memoizes for single request queries."""
        return self.featurizer.featurize_many(queries)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def max_entries(self) -> int | None:
        """The LRU bound this cache was built with (None = unbounded)."""
        return self._store._max_entries

    def clear(self) -> None:
        """Drop all cached featurizations (keeps the stats)."""
        self._store.clear()

    def stats_snapshot(self) -> dict[str, float]:
        """Hits, misses, evictions and the hit rate."""
        return _stats_snapshot(self.stats)

    # ------------------------------------------------------------------ #
    # featurizer passthrough

    @property
    def vector_size(self) -> int:
        """The wrapped featurizer's vector dimension ``L``."""
        return self.featurizer.vector_size

    @property
    def layout(self):
        """The wrapped featurizer's segment layout."""
        return self.featurizer.layout

    @property
    def database(self):
        """The database snapshot the wrapped featurizer is bound to."""
        return self.featurizer.database

    @property
    def fingerprint(self) -> int:
        """The wrapped featurizer's snapshot fingerprint (scopes cache keys)."""
        return self.featurizer.fingerprint

    def normalize_value(self, qualified_column: str, value: float) -> float:
        """Forwarded to :meth:`QueryFeaturizer.normalize_value`."""
        return self.featurizer.normalize_value(qualified_column, value)

    def cache_key(self, query: Query):
        """Forwarded to :meth:`QueryFeaturizer.cache_key`."""
        return self.featurizer.cache_key(query)


class EncodingCache:
    """A ``(scope, query, pair slot) -> Qvec`` cache for the CRN set encoders.

    The CRN uses a different encoder per pair position (``MLP1`` / ``MLP2``),
    so the slot is part of the key: a pool query serving as containment
    source *and* target caches two encodings.  The ``scope`` component is the
    featurizer's database-snapshot fingerprint
    (:attr:`repro.core.featurization.QueryFeaturizer.fingerprint`): an
    encoding is a function of the *featurized* query, so when the database is
    mutated and the estimator's featurizer is rebound to the new snapshot
    (:mod:`repro.extensions.updates`), the old snapshot's encodings must not
    be served for the new one.  Keying by scope makes correctness automatic:
    stale entries simply stop matching.  They are *reclaimed* by the LRU
    bound (old-scope entries stop being touched, so they are the first
    evicted) — an unbounded cache keeps them until :meth:`clear`, so
    long-running services whose database updates should either set
    ``max_entries`` or clear after a snapshot change.  Entries are ``(H,)``
    float64 arrays — a few hundred bytes each — so even a million cached
    queries fit comfortably in memory.

    Encodings are a function of the model's weights, so a cache is tied to
    exactly one model: :class:`repro.core.crn.CRNEstimator` calls
    :meth:`bind` at construction, and binding the same cache to a second
    model raises instead of silently serving the first model's encodings.
    A retrained model gets a cache of its own
    (:func:`repro.serving.stack.wire_estimator` builds one per estimator), so
    a hot swap never clears or re-ties a live cache.  Binding tracks object
    identity only — retraining the bound model *in place* invalidates the
    cached encodings, so call :meth:`clear` after updating weights.

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

    def get(self, query: Query, position: int, scope=None) -> np.ndarray | None:
        """The cached encoding for ``(scope, query, position)``, or None on a miss."""
        return self._store.get((scope, query, position))

    def put(self, query: Query, position: int, encoding: np.ndarray, scope=None) -> None:
        """Record an encoding (evicting the least recently used if bounded)."""
        self._store.put((scope, query, position), encoding)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all cached encodings (keeps the stats)."""
        self._store.clear()

    def stats_snapshot(self) -> dict[str, float]:
        """Hits, misses, evictions and the hit rate."""
        return _stats_snapshot(self.stats)
