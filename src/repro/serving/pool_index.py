"""The pool-resident encoding index: whole-pool Cnt2Crd scoring without lookups.

The Cnt2Crd technique scores one incoming query against *every* matching pool
query, so a request over a bucket with ``E`` eligible entries needs ``2·E``
containment rates.  The per-request path pays, per request, ``2·E`` Python
pair tuples, ``2·E`` dict-keyed encoding-cache lookups (three lock
acquisitions each), and a ``2·E``-row ``np.stack`` — even though the pool
side of every pair is *identical* across all requests sharing a FROM
signature.

:class:`PoolEncodingIndex` hoists that invariant work out of the request
path.  Per ``(featurizer-snapshot scope, FROM signature, dtype)`` it keeps
two feature-major ``(H, E)`` matrices of pool-query encodings — one per pair
slot, column ``i`` belonging to eligible entry ``i`` — maintained
incrementally.  The dtype is the resolving estimator's: float32 when it has
a compiled inference plan (whose fused slab kernel reads the slab in place),
float64 otherwise, so each bucket is stored once, in the precision its
scorer reads, and a plan-less and a compiled estimator over one index never
read each other's slabs.

* a :meth:`repro.core.queries_pool.QueriesPool.add` bumps the bucket's
  version; the next request appends only the new tail columns (the
  matrices grow geometrically, so appends are amortized O(1));
* a cardinality *update* (re-adding an existing query), or an entry whose
  cardinality drops to 0, rebuilds the bucket's slab — cheap, because the
  entries the old slab held keep their columns, copied across by query, and
  only entries it never held are encoded;
* a featurizer rebind changes the scope, so stale-snapshot slabs simply stop
  matching (exactly the :class:`~repro.serving.EncodingCache` keying rule)
  and the bucket is encoded afresh.

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

Owner fencing mirrors :class:`~repro.serving.EncodingCache`: the index is
bound to the model whose weights produced its rows, :meth:`rebind`
atomically drops every slab and re-ties it (optionally retargeting a
refreshed pool), and :meth:`resolve` returns a row-less slab — never stale
rows — for an estimator whose model is not the bound owner.  A row-less slab
is scored per pair, so a lifecycle hot swap mid-traffic degrades in-flight
old-model requests to the slow route instead of ever mixing two models'
encodings.  The :class:`repro.serving.AdaptationManager`
rebinds and re-warms the index with the candidate model *before* the
registry swap, so the first post-swap request pays no re-encoding stall.

Thread safety: one index lock guards the owner fence *and* the slab store as
a unit (see the constructor comment for why they cannot be split), and long
holders release it between signatures.  Returned
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
    """Mutable per-(scope, signature, dtype) storage with geometric growth.

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
        column of ``view`` (another slab's snapshot of the same model and
        scope), which is copied instead; ``-1`` takes the next block row.
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
        pool: the queries pool whose buckets the index mirrors.  A lifecycle
            promote retargets it with :meth:`rebind`.
    """

    def __init__(self, pool: QueriesPool) -> None:
        self.pool = pool
        #: ``served`` / ``fallbacks``: resolves answered from a slab / turned
        #: away by the fence; ``builds``, ``rebuilds`` and ``appended_rows``:
        #: slab maintenance.
        self.stats = Counters(served=0, fallbacks=0, builds=0, rebuilds=0, appended_rows=0)
        # Optional observability hook (repro.observability.EventRecorder):
        # when set, every slab build / rebuild / append emits an IndexBuild
        # event.  Emission is a single deque append, safe under the index
        # lock.  The client wires this; None costs one attribute test.
        self.recorder = None
        # Optional tracing hook (repro.observability.Tracer): when set, slab
        # builds that do real work additionally record an ``index_build``
        # span — nested under the in-flight request's ``plan`` span when one
        # is open on this thread, standalone during warm-up.
        self.tracer = None
        self._slabs: dict[tuple, _Slab] = {}
        # One lock guards the owner fence AND the slab store: the fence
        # check and the slab install must be a single unit, or a reader
        # could pass the fence, lose the CPU to a rebind, and then install a
        # slab with the *old* model's rows under a key the new model would
        # read (two models over the same snapshot share the scope).  Encoding
        # runs outside it (see _sync), so the lock is only ever held for
        # array writes and dict reads.
        self._owner: object | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # owner fence (mirrors EncodingCache)

    def bind(self, owner: object) -> None:
        """Tie this index to the model whose weights produce its rows."""
        with self._lock:
            if self._owner is None:
                self._owner = owner
            elif self._owner is not owner:
                raise ValueError(
                    "PoolEncodingIndex is already bound to a different model; "
                    "encodings are model-specific, use one index per model (or "
                    "rebind() to hot-swap a retrained model)"
                )

    def rebind(self, owner: object, pool: QueriesPool | None = None) -> None:
        """Atomically drop every slab and tie the index to a new model.

        This is the hot-swap path: the lifecycle calls it with the candidate
        model (and the refreshed pool) *before* building the replacement
        estimator, then re-warms, so the swapped-in model never sees the
        outgoing model's rows and the first post-swap request hits warm
        slabs.  Stale readers are fenced exactly like
        :meth:`repro.serving.EncodingCache.rebind` fences writers: an
        in-flight request on the old model resolves a row-less slab and is
        scored per pair instead of observing the swap partially.
        """
        with self._lock:
            self._slabs.clear()
            if pool is not None:
                self.pool = pool
            self._owner = owner

    # ------------------------------------------------------------------ #
    # resolution

    def resolve(self, estimator, query: Query) -> PoolSlab:
        """The scoring slab for ``query``'s FROM signature — never ``None``.

        A slab with resident rows when the index can serve the request; a
        row-less snapshot of the estimator's own pool bucket (counted as a
        fallback, never stored) when it cannot — the estimator's containment
        model is not the bound owner (a hot swap is in flight), its pool is
        not the indexed pool, or it is not a CRN at all.  Either is a
        snapshot: concurrent pool adds or rebinds never mutate the returned
        entries or rows.
        """
        containment = estimator.containment_estimator
        signature = query.from_signature()
        view = None
        if isinstance(containment, CRNEstimator) and estimator.pool is self.pool:
            view = self._sync(containment, containment._encoding_scope(), signature)
        if view is None:
            self.stats.add("fallbacks")
            return estimator.pool.bucket_slab(signature)
        self.stats.add("served")
        return view

    def warm(self, estimator) -> None:
        """Build (or refresh) the slabs of every signature in the pool.

        The promote path calls this with the candidate estimator after
        :meth:`rebind`, so steady state is reached before the swap is
        visible.  Raises when the estimator cannot be served by this index
        at all — warming would otherwise silently do nothing.
        """
        containment = getattr(estimator, "containment_estimator", None)
        if not isinstance(containment, CRNEstimator):
            raise TypeError(
                "PoolEncodingIndex.warm needs a Cnt2Crd estimator over a CRN "
                f"containment model, got {type(estimator).__name__}"
            )
        self.bind(containment.model)
        scope = containment._encoding_scope()
        for signature in self.pool.from_signatures():
            if self._sync(containment, scope, signature) is None:
                return  # rebound mid-warm; the new owner re-warms

    def clear(self) -> None:
        """Drop every slab (keeps the binding and the stats)."""
        with self._lock:
            self._slabs.clear()

    def __len__(self) -> int:
        """Total indexed rows across all slabs."""
        with self._lock:
            return sum(slab.count for slab in self._slabs.values())

    # ------------------------------------------------------------------ #
    # maintenance

    def _sync(self, containment: CRNEstimator, scope, signature) -> PoolSlab | None:
        """One signature's up-to-date slab view, or None when the fence turns it away.

        A stale slab encodes only the entries it lacks: the appended tail on
        pure growth; on a rebuild (an in-place cardinality update, an entry
        whose cardinality dropped to 0) the entries of a snapshot view taken
        under the lock keep their columns, matched by query, and only the
        rest are encoded; a new slab (a new signature, scope, dtype or owner)
        encodes every eligible entry.  Encoding is one
        :meth:`QueryFeaturizer.featurize_many` array pass on the uncached
        featurizer and one :meth:`CRNModel.encode_sets` call per slot — the
        slab is the only place a pool entry's encodings are stored; the
        request caches never see them.  Encoding runs outside the index lock;
        the array writes run under it after the owner fence is re-checked,
        and a sync that finds the slab changed by another writer meanwhile
        starts over.  Reading the bucket version outside the lock is safe: a
        concurrent add is either reflected by it (and the slab syncs) or
        lands after — the either-in-or-out snapshot ``bucket_slab`` gives.
        """
        # The slab's dtype is its scorer's: float32 for the fused kernel of a
        # compiled plan, float64 for the live pair head.
        dtype = np.float64 if containment.inference_plan is None else np.float32
        key = (scope, signature, dtype)
        while True:
            version = self.pool.bucket_version(signature)
            with self._lock:
                if self._owner is not containment.model:
                    return None  # a hot swap rebound the index to another model
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
                rows, counts = containment.featurizer.featurize_many([e.query for e in fresh])
                first = containment.model.encode_sets(rows, counts, 1)
                second = containment.model.encode_sets(rows, counts, 2)
                with self._lock:
                    if self._owner is not containment.model:
                        return None
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
