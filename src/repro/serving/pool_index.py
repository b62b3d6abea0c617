"""The pool-resident encoding index: whole-pool Cnt2Crd scoring without lookups.

The Cnt2Crd technique scores one incoming query against *every* matching pool
query, so a request over a bucket with ``E`` eligible entries needs ``2·E``
containment rates.  The per-request path pays, per request, ``2·E`` Python
pair tuples, ``2·E`` dict-keyed encoding-cache lookups (three lock
acquisitions each), and a ``2·E``-row ``np.stack`` — even though the pool
side of every pair is *identical* across all requests sharing a FROM
signature.

:class:`PoolEncodingIndex` hoists that invariant work out of the request
path.  Per ``(FROM signature, dtype)`` it keeps two feature-major ``(H, E)``
matrices of pool-query encodings — one per pair slot, column ``i``
belonging to eligible entry ``i`` — maintained incrementally.  The dtype is
the index's CRN's: float32 when it has a compiled inference plan (whose
fused slab kernel reads the slab in place), float64 otherwise, so each
bucket is stored in the precision its scorer reads.

* a :meth:`repro.core.queries_pool.QueriesPool.add` bumps the bucket's
  version; the next request appends only the new tail columns (the
  matrices grow geometrically, so appends are amortized O(1));
* a cardinality *update* (re-adding an existing query), or an entry whose
  cardinality drops to 0, rebuilds the bucket's slab — cheap, because the
  entries the old slab held keep their columns, copied across by query, and
  only entries it never held are encoded.

A slab is the only place a pool entry's encodings are stored: maintenance
featurizes the entries a slab lacks in one
:meth:`~repro.core.featurization.QueryFeaturizer.featurize_many` pass and
encodes them with one :meth:`~repro.core.crn.CRNModel.encode_sets` call per
slot, never through the request caches
(:class:`~repro.serving.FeaturizationCache`,
:class:`~repro.serving.EncodingCache`), which hold request queries only.

A request is then served as *encode Qnew once → the slab kernel*
(:meth:`repro.core.crn.CRNEstimator.rates_against_pools`): no per-pair
Python work at all.  On float64 slabs the kernel is two strided writes from
the transposed slab and the fixed-shape pair head, and — because the
assembled rows are exactly the rows the per-pair route would have stacked,
in the same order — estimates are **bit-for-bit identical**.

An index belongs to one CRN estimator and one pool, both fixed at
construction, and the estimator's model and featurizer are fixed too: a
model's slabs live and die with the estimator
:func:`repro.serving.stack.wire_estimator` builds for it.  A database update
is served by a retrained model, which is wired a fresh index over the
refreshed pool and warmed before the hot swap; requests still in
flight on the outgoing estimator finish on its own slabs.  The dtype stays
in the slab key because a plan may be attached after the index exists.

Thread safety: one index lock guards the slab store, and long holders
release it between signatures.  Returned
:class:`repro.core.queries_pool.PoolSlab` views are snapshots — appends
write columns past the snapshot's entry count and growth or a rebuild
allocates fresh matrices, so what an in-flight request was handed is never
mutated under it.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.crn import CRNEstimator
from repro.core.queries_pool import PoolEntry, PoolSlab, QueriesPool
from repro.observability.counters import Counters
from repro.sql.query import Query

#: Starting row capacity of a fresh slab (it grows geometrically).
INITIAL_CAPACITY = 8


class _Slab:
    """Mutable per-(signature, dtype) storage with geometric growth.

    Two ``(H, capacity)`` matrices in the slab's dtype, entry ``i`` in
    column ``i`` — the feature-major layout
    :attr:`repro.core.queries_pool.PoolSlab.first` documents.
    """

    __slots__ = ("entries", "first", "second", "cardinalities", "version")

    def __init__(self, hidden: int, capacity: int, dtype) -> None:
        self.entries: tuple[PoolEntry, ...] = ()
        self.first = np.empty((hidden, capacity), dtype=dtype)
        self.second = np.empty((hidden, capacity), dtype=dtype)
        self.cardinalities = np.empty(capacity, dtype=np.float64)
        self.version = -1

    @property
    def count(self) -> int:
        return len(self.entries)

    def fill(
        self, entries: tuple[PoolEntry, ...], first: np.ndarray, second: np.ndarray, kept=None
    ) -> None:
        """Extend to ``entries``, columns ``count:`` in order.

        Each column comes from the next row of the ``(n, H)`` float64 blocks,
        except, with ``kept = (view, sources)``, where ``sources`` names a
        column of ``view`` (a snapshot of the slab this one replaces), which
        is copied instead; ``-1`` takes the next block row.
        """
        start, stop = self.count, len(entries)
        self.ensure_capacity(stop)
        columns = slice(start, stop)
        if kept is not None:
            view, sources = kept
            reused = np.flatnonzero(sources >= 0)
            self.first[:, start + reused] = view.first[:, sources[reused]]
            self.second[:, start + reused] = view.second[:, sources[reused]]
            columns = start + np.flatnonzero(sources < 0)
        self.first[:, columns], self.second[:, columns] = first.T, second.T
        self.cardinalities[start:stop] = [entry.cardinality for entry in entries[start:]]
        self.entries = entries

    def view(self, key: tuple) -> PoolSlab:
        """A snapshot of the first :attr:`count` entries (see the module docstring)."""
        count = self.count
        return PoolSlab(
            entries=self.entries,
            cardinalities=self.cardinalities[:count],
            token=(*key, self.version, count),
            first=self.first[:, :count],
            second=self.second[:, :count],
        )

    def ensure_capacity(self, entries: int) -> None:
        """Grow the storage to hold ``entries`` columns (doubling, amortized O(1)).

        Growth reallocates instead of resizing in place: an in-flight request
        may still hold views into the old matrices, and those entries must
        stay exactly what its resolve returned.
        """
        capacity = self.cardinalities.shape[0]
        if entries <= capacity:
            return
        while capacity < entries:
            capacity *= 2
        count = self.count

        def grown(matrix: np.ndarray) -> np.ndarray:
            fresh = np.empty((*matrix.shape[:-1], capacity), dtype=matrix.dtype)
            fresh[..., :count] = matrix[..., :count]
            return fresh

        self.first, self.second = grown(self.first), grown(self.second)
        self.cardinalities = grown(self.cardinalities)


class PoolEncodingIndex:
    """Per-FROM-signature pool encoding matrices for whole-pool Cnt2Crd scoring.

    Args:
        pool: the queries pool whose buckets the index mirrors.
        crn: the CRN estimator whose model, featurizer and (optional) plan
            the slabs are built for and scored by.
    """

    def __init__(self, pool: QueriesPool, crn: CRNEstimator) -> None:
        if not isinstance(crn, CRNEstimator):
            raise TypeError(
                "PoolEncodingIndex needs a CRN containment estimator, "
                f"got {type(crn).__name__}"
            )
        self.pool = pool
        self.crn = crn
        #: ``served``: resolves answered from a slab; ``builds``, ``rebuilds``
        #: and ``appended_rows``: slab maintenance.
        self.stats = Counters(served=0, builds=0, rebuilds=0, appended_rows=0)
        # Optional observability hook (repro.observability.EventRecorder):
        # when set, every slab build / rebuild / append emits an IndexBuild
        # event.  Emission is a single deque append, safe under the index
        # lock.  None costs one attribute test.
        self.recorder = None
        # Optional tracing hook (repro.observability.Tracer): when set, slab
        # builds that do real work additionally record an ``index_build``
        # span — nested under the in-flight request's ``plan`` span when one
        # is open on this thread, standalone during warm-up.
        self.tracer = None
        self._slabs: dict[tuple, _Slab] = {}
        # Guards the slab store.  Encoding runs outside it (see _sync), so the
        # lock is only ever held for array writes and dict reads.
        self._lock = threading.Lock()

    def resolve(self, query: Query) -> PoolSlab:
        """The scoring slab, with resident rows, of ``query``'s FROM signature.

        A snapshot: concurrent pool adds never mutate the returned entries
        or rows.
        """
        view = self._sync(query.from_signature())
        self.stats.add("served")
        return view

    def warm(self) -> None:
        """Build (or refresh) the slabs of every signature in the pool.

        A promote calls this on the candidate's fresh index before the
        hot swap, so steady state is reached before the swap is visible.
        """
        for signature in self.pool.from_signatures():
            self._sync(signature)

    def __len__(self) -> int:
        """Total indexed rows across all slabs."""
        with self._lock:
            return sum(slab.count for slab in self._slabs.values())

    # ------------------------------------------------------------------ #
    # maintenance

    def _sync(self, signature) -> PoolSlab:
        """One signature's up-to-date slab view.

        A stale slab encodes only the entries it lacks: the appended tail on
        pure growth; on a rebuild (an in-place cardinality update, an entry
        whose cardinality dropped to 0) the entries of a snapshot view taken
        under the lock keep their columns, matched by query, and only the
        rest are encoded; a new slab (a new signature or dtype)
        encodes every eligible entry.  Encoding is one
        :meth:`QueryFeaturizer.featurize_many` array pass on the uncached
        featurizer and one :meth:`CRNModel.encode_sets` call per slot — the
        slab is the only place a pool entry's encodings are stored; the
        request caches never see them.  Encoding runs outside the index lock;
        the array writes run under it, and a sync that finds the slab changed
        by another writer meanwhile starts over.  Reading the bucket version
        outside the lock is safe: a concurrent add is either reflected by it
        (and the slab syncs) or lands after — the either-in-or-out snapshot
        ``bucket_slab`` gives.
        """
        crn = self.crn
        # The slab's dtype is its scorer's: float32 for the fused kernel of a
        # compiled plan, float64 for the live pair head.
        dtype = np.float64 if crn.inference_plan is None else np.float32
        key = (signature, dtype)
        while True:
            version = self.pool.bucket_version(signature)
            with self._lock:
                slab = self._slabs.get(key)
                if slab is not None and slab.version == version:
                    return slab.view(key)
                held = None if slab is None else slab.view(key)
            entries, version = self.pool.bucket_snapshot(signature)
            eligible = tuple(entry for entry in entries if entry.cardinality > 0)
            append = held is not None and eligible[: len(held.entries)] == held.entries
            fresh, kept = eligible[len(held.entries) :] if append else eligible, None
            if held is not None and not append:
                # A rebuild: entries the held snapshot has keep their columns.
                columns = {entry.query: index for index, entry in enumerate(held.entries)}
                sources = np.fromiter(
                    (columns.get(entry.query, -1) for entry in eligible), np.intp, len(eligible)
                )
                fresh = tuple(entry for entry, source in zip(eligible, sources) if source < 0)
                kept = (held, sources)
            mode = "append" if append else "rebuild" if slab is not None else "build"
            work = bool(fresh) or not append
            span = self.tracer.begin("index_build") if self.tracer is not None and work else None
            try:
                rows, counts = crn.featurizer.featurize_many([e.query for e in fresh])
                first = crn.model.encode_sets(rows, counts, 1)
                second = crn.model.encode_sets(rows, counts, 2)
                with self._lock:
                    if self._slabs.get(key) is not slab or (
                        slab is not None and slab.entries is not held.entries
                    ):
                        continue  # another writer synced this slab meanwhile
                    if not append:
                        capacity = max(INITIAL_CAPACITY, len(eligible))
                        slab = _Slab(first.shape[1], capacity, dtype)
                        self._slabs[key] = slab
                    slab.fill(eligible, first, second, kept)
                    slab.version = version
                    if append:
                        self.stats.add("appended_rows", len(fresh))
                    else:
                        self.stats.add("rebuilds" if mode == "rebuild" else "builds")
                    if self.recorder is not None and work:
                        from repro.observability.events import IndexBuild

                        self.recorder.emit(
                            IndexBuild(signature=str(signature), rows=len(fresh), mode=mode)
                        )
                    return slab.view(key)
            finally:
                if span is not None:
                    self.tracer.end(span, signature=str(signature), rows=len(fresh), mode=mode)

    # ------------------------------------------------------------------ #
    # reporting

    def stats_snapshot(self) -> dict[str, float]:
        """Counters plus gauges, mergeable into ``format_service_stats``."""
        with self._lock:
            signatures = len(self._slabs)
            rows = sum(slab.count for slab in self._slabs.values())
            float32 = any(key[-1] is np.float32 for key in self._slabs)
        snapshot = {
            f"pool_index_{name}": float(value) for name, value in self.stats.snapshot().items()
        }
        snapshot["pool_index_signatures"] = float(signatures)
        snapshot["pool_index_rows"] = float(rows)
        # "Slabs are float32"; the name stays for saved bundles' index.json.
        snapshot["pool_index_f32_mirrors"] = float(float32)
        return snapshot
