"""The CRN (Containment Rate Network) model (Section 3.2).

The model runs in three stages:

1. each query of the input pair is converted into a set of feature vectors
   (:mod:`repro.core.featurization`);
2. a one-layer fully connected network per query (``MLP1`` / ``MLP2``)
   transforms each vector and the transformed vectors are average-pooled into
   a single representative vector ``Qvec`` per query;
3. a two-layer network ``MLPout`` consumes
   ``Expand(Qvec1, Qvec2) = [v1, v2, |v1 - v2|, v1 ⊙ v2]`` and outputs the
   estimated containment rate through a sigmoid.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.estimators import ContainmentEstimator
from repro.core.featurization import QueryFeaturizer
from repro.nn.layers import Linear, Module
from repro.sql.query import Query

#: Pooling strategies supported by the set encoders.  The paper uses the
#: average "to ease generalization to different numbers of elements in the
#: sets"; sum pooling is kept for the ablation benchmark.
POOLING_STRATEGIES = ("average", "sum")

#: Rows per fixed-shape pair-head pass: what :class:`CRNEstimator` always runs
#: and every ``slab_size`` defaults to.  A rate's bits depend on this height
#: alone, so a request pays for its own rows rounded up to it, not for a
#: 256-row slab.
PASS_ROWS = 16
#: Most rows one stacked :func:`pair_head` pass covers: its buffers stay
#: cache-resident however many rows a batch brings.
_STACK_ROWS = 256


@dataclass(frozen=True)
class CRNConfig:
    """Architecture hyperparameters of the CRN model.

    Attributes:
        hidden_size: the shared hidden dimension ``H`` (the paper settles on
            512 after the Figure 3 sweep; smaller values keep the NumPy
            substrate fast).
        pooling: how the set encoders pool transformed vectors ("average" as
            in the paper, or "sum" for the ablation).
        use_expand: whether ``MLPout`` sees the paper's Expand features or a
            plain concatenation of the two query vectors (ablation).
        seed: RNG seed for weight initialisation.
    """

    hidden_size: int = 64
    pooling: str = "average"
    use_expand: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if self.pooling not in POOLING_STRATEGIES:
            raise ValueError(f"pooling must be one of {POOLING_STRATEGIES}, got {self.pooling!r}")


def encode_sets(
    rows: np.ndarray, counts, weight: np.ndarray, bias: np.ndarray, pooling: str
) -> np.ndarray:
    """The set encoder (``MLP1`` / ``MLP2``) of one query or a whole bucket alike.

    ``rows`` stacks every set's ``(counts[i], L)`` vectors; returns ``(n, H)``
    float64, row ``i`` for set ``i``.  Per chunk of sets, the rows run in
    zero-padded ``PASS_ROWS``-row tiles — the :func:`pair_head` idiom: one
    identically-shaped GEMM per tile, so a row's bits never depend on how many
    rows share the call, and a lone row is never sent to GEMV — then the sets
    are zero-padded and summed along the row axis, row after row from +0.0: a
    set's ``sum(axis=0)`` bit for bit (see ``docs/architecture.md``).
    """
    counts = np.asarray(counts, dtype=np.intp)
    hidden = weight.shape[1]
    pooled = np.empty((len(counts), hidden), dtype=np.float64)
    ends = np.cumsum(counts)
    for first in range(0, len(counts), _CHUNK_SETS):
        chunk = counts[first : first + _CHUNK_SETS]
        sets = len(chunk)
        block = rows[ends[first] - chunk[0] : ends[first + sets - 1]]
        tiles = -(-len(block) // PASS_ROWS)
        stacked = np.zeros((tiles * PASS_ROWS, weight.shape[0]))
        stacked[: len(block)] = block
        transformed = np.matmul(stacked.reshape(tiles, PASS_ROWS, weight.shape[0]), weight)
        transformed = transformed.reshape(-1, hidden)[: len(block)]
        np.add(transformed, bias, out=transformed)
        np.maximum(transformed, 0.0, out=transformed)
        width = int(chunk.max())
        if chunk.min() == width:  # equal sizes, e.g. one set: no padding
            padded = transformed.reshape(sets, width, hidden)
        else:
            padded = np.zeros((sets, width, hidden))
            # Set j's rows go to padded rows j * width + 0, 1, ...
            shift = np.repeat(np.arange(sets) * width - (np.cumsum(chunk) - chunk), chunk)
            padded.reshape(-1, hidden)[np.arange(len(transformed)) + shift] = transformed
        padded.sum(axis=1, out=pooled[first : first + sets])
    if pooling == "average":
        pooled /= np.maximum(counts, 1)[:, None]
    return pooled


#: Sets :func:`encode_sets` pools at once: ~1 100 feature rows, cache-resident.
_CHUNK_SETS = 256


def sigmoid_into(a, out, t0, t1, t2, mask) -> None:
    """The numerically stable logistic sigmoid, allocation-free: both branches
    over the full array, then selected by the sign mask — the values
    ``np.where`` would pick, without its output allocation (the bits of the
    autodiff reference's ``sigmoid`` in ``tests/autodiff.py``)."""
    np.clip(a, -60.0, 60.0, out=t0)  # c
    np.negative(t0, out=t1)
    np.exp(t1, out=t1)  # exp(-c)
    np.add(t1, 1.0, out=t1)
    np.divide(1.0, t1, out=t1)  # positive branch: 1 / (1 + exp(-c))
    np.exp(t0, out=t2)  # exp(c)
    np.add(t2, 1.0, out=t0)
    np.divide(t2, t0, out=t0)  # negative branch: exp(c) / (1 + exp(c))
    np.greater_equal(a, 0.0, out=mask)
    np.copyto(out, t0)
    np.copyto(out, t1, where=mask)


def pair_head(first, second, w_hidden, b_hidden, w_out, b_out, rows: int, scratch) -> np.ndarray:
    """``MLPout`` over ``(n, H)`` encoded pairs in fixed ``rows``-row tiles.

    The arithmetic behind :meth:`CRNModel.rates_from_encodings`: Expand
    ``[v1, v2, |v1 - v2|, v1 ⊙ v2]`` (Section 3.2.3) written straight into the
    pair buffer, then matmul, bias, ReLU, matmul, bias, sigmoid — the autodiff
    reference head's primitives in its order (its ``a + (-b)`` as the
    bit-equal ``a - b``; ``tests/autodiff.py``) — through
    ``out=`` ufuncs into ``scratch``, a per-thread attribute bag.  Rows are
    zero-padded to the next multiple of ``rows``; the buffers are then viewed
    as ``(tiles, rows, width)``, on which ``np.matmul`` runs one
    identically-shaped GEMM per tile — a row's bits depend on ``rows`` alone,
    never on how many other rows share the call.  Returns fresh float64 rates.
    """
    if rows <= 0:
        raise ValueError("slab_size must be positive")
    if first.shape != second.shape:
        raise ValueError("first and second encodings must have the same shape")
    if first.ndim != 2 or w_hidden.shape[0] not in (2 * first.shape[1], 4 * first.shape[1]):
        raise ValueError(f"expected (n, H) encodings for this head, got {first.shape}")
    total, size = first.shape
    rates = np.empty(total, dtype=np.float64)
    step = rows * max(1, _STACK_ROWS // rows)
    for start in range(0, total, step):
        count = min(step, total - start)
        tiles = -(-count // rows)
        padded = tiles * rows
        if getattr(scratch, "capacity", 0) < padded:
            # Geometric growth: slowly-increasing batches cost O(log) reallocations.
            capacity = max(padded, 2 * getattr(scratch, "capacity", 0))
            scratch.pair = np.empty((capacity, w_hidden.shape[0]))
            scratch.hidden = np.empty((capacity, w_hidden.shape[1]))
            # The output column, three sigmoid temporaries and its sign mask.
            scratch.columns = tuple(np.empty((capacity, 1)) for _ in range(4))
            scratch.mask = np.empty((capacity, 1), dtype=bool)
            scratch.capacity = capacity
            scratch.allocations = getattr(scratch, "allocations", 0) + 1
        pair = scratch.pair[:padded]
        first_section = pair[:, :size]
        second_section = pair[:, size : 2 * size]
        np.copyto(first_section[:count], first[start : start + count])
        np.copyto(second_section[:count], second[start : start + count])
        pair[count:, : 2 * size] = 0.0
        if pair.shape[1] == 4 * size:
            diff = pair[:, 2 * size : 3 * size]
            np.subtract(first_section, second_section, out=diff)
            np.absolute(diff, out=diff)
            np.multiply(first_section, second_section, out=pair[:, 3 * size :])
        hidden = scratch.hidden[:padded]
        np.matmul(pair.reshape(tiles, rows, -1), w_hidden, out=hidden.reshape(tiles, rows, -1))
        np.add(hidden, b_hidden, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        z, aux0, aux1, aux2 = (column[:padded] for column in scratch.columns)
        np.matmul(hidden.reshape(tiles, rows, -1), w_out, out=z.reshape(tiles, rows, 1))
        np.add(z, b_out, out=z)
        sigmoid_into(z, z, aux0, aux1, aux2, scratch.mask[:padded])
        rates[start : start + count] = z[:count, 0]
    return rates


class CRNModel(Module):
    """The containment rate network.

    Args:
        vector_size: the featurized vector dimension ``L``.
        config: architecture configuration.
    """

    def __init__(self, vector_size: int, config: CRNConfig | None = None) -> None:
        if vector_size <= 0:
            raise ValueError("vector_size must be positive")
        self.config = config or CRNConfig()
        self.vector_size = vector_size
        hidden = self.config.hidden_size
        rng = np.random.default_rng(self.config.seed)
        # Stage 2: one single-layer set encoder per input query (MLP1, MLP2).
        self.set_encoder1 = Linear(vector_size, hidden, rng=rng)
        self.set_encoder2 = Linear(vector_size, hidden, rng=rng)
        # Stage 3: MLPout over the expanded pair representation.
        out_input = 4 * hidden if self.config.use_expand else 2 * hidden
        self.out_hidden = Linear(out_input, 2 * hidden, rng=rng)
        self.out_final = Linear(2 * hidden, 1, rng=rng)
        self._scratch = threading.local()  # pair_head buffers, per thread

    @property
    def hidden_size(self) -> int:
        """The hidden dimension ``H``."""
        return self.config.hidden_size

    # ------------------------------------------------------------------ #
    # deterministic inference path

    def encode_set(self, vectors: np.ndarray, position: int) -> np.ndarray:
        """The ``(H,)`` float64 ``Qvec`` of one query's ``(set size, L)`` vectors.

        A pure function of ``vectors`` — the same bits whether the set is
        encoded alone or in bulk by :meth:`encode_sets` — which is what makes
        per-query encoding cacheable across requests (see
        :mod:`repro.serving`).  Plain arrays, no autodiff graph.  ``position``
        1 encodes with ``MLP1`` (first pair slot), 2 with ``MLP2``.
        """
        return self.encode_sets(vectors, (vectors.shape[0],), position)[0]

    def encode_sets(self, rows: np.ndarray, counts, position: int) -> np.ndarray:
        """:func:`encode_sets` on the live weights: ``(n, H)``, row ``i`` for set ``i``."""
        if position not in (1, 2):
            raise ValueError(f"position must be 1 or 2, got {position}")
        encoder = self.set_encoder1 if position == 1 else self.set_encoder2
        return encode_sets(
            rows, counts, encoder.weight.data, encoder.bias.data, self.config.pooling
        )

    def rates_from_encodings(
        self,
        first_reprs: np.ndarray,
        second_reprs: np.ndarray,
        slab_size: int = PASS_ROWS,
    ) -> np.ndarray:
        """Run ``MLPout`` over pre-encoded pairs in fixed-shape tiles.

        :func:`pair_head` on the live weights: every GEMM sees exactly
        ``slab_size`` rows, so each pair's rate is bit-for-bit independent of
        how pairs were grouped into batches — the invariant the serving
        layer's cross-request batching relies on.

        Args:
            first_reprs: ``(n, H)`` encodings from :meth:`encode_set` (pos 1).
            second_reprs: ``(n, H)`` encodings from :meth:`encode_set` (pos 2).
            slab_size: rows per fixed-shape pass; must be positive.
        """
        weights = (
            self.out_hidden.weight.data,
            self.out_hidden.bias.data,
            self.out_final.weight.data,
            self.out_final.bias.data,
        )
        return pair_head(first_reprs, second_reprs, *weights, slab_size, self._scratch)

    def assemble_pool_pairs(
        self,
        query_first_repr: np.ndarray,
        query_second_repr: np.ndarray,
        pool_first_reprs: np.ndarray,
        pool_second_reprs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(2n, H)`` pair-head input matrices of one query-vs-pool scoring.

        The Cnt2Crd technique needs, per eligible pool entry ``Qold``, the
        ordered pairs ``(Qold, Qnew)`` then ``(Qnew, Qold)``
        (:func:`repro.core.estimators.containment_pairs`).  Given the pool
        side pre-encoded as contiguous matrices (one per pair slot), this
        assembles the pair-head inputs with two vectorized strided writes —
        no per-pair Python tuples, dict lookups, or row stacking.  The rows
        are exactly those ``estimate_containments`` would have stacked for
        the same pairs, in the same interleaved order, and
        :meth:`rates_from_encodings` makes each row's rate independent of
        batch composition — so the serving layer can concatenate several
        requests' blocks into one kernel run without changing a bit.

        Args:
            query_first_repr: ``(H,)`` encoding of the incoming query from
                :meth:`encode_set` position 1 (it is the *first* element of
                every ``(Qnew, Qold)`` y-rate pair).
            query_second_repr: ``(H,)`` position-2 encoding of the incoming
                query (the *second* element of every ``(Qold, Qnew)`` pair).
            pool_first_reprs: ``(n, H)`` position-1 encodings of the eligible
                pool queries, row ``i`` belonging to entry ``i``.
            pool_second_reprs: ``(n, H)`` position-2 encodings, same order.

        Returns:
            ``(first, second)``: row ``2i`` is entry ``i``'s x_rate pair, row
            ``2i + 1`` its y_rate pair.
        """
        if pool_first_reprs.shape != pool_second_reprs.shape:
            raise ValueError("pool encoding matrices must have the same shape")
        count = pool_first_reprs.shape[0]
        hidden = self.hidden_size
        first = np.empty((2 * count, hidden), dtype=np.float64)
        second = np.empty((2 * count, hidden), dtype=np.float64)
        first[0::2] = pool_first_reprs  # x_rate pairs: (Qold, Qnew)
        first[1::2] = query_first_repr  # y_rate pairs: (Qnew, Qold)
        second[0::2] = query_second_repr
        second[1::2] = pool_second_reprs
        return first, second


class CRNEstimator(ContainmentEstimator):
    """A :class:`ContainmentEstimator` backed by a trained CRN model.

    Inference is split into two cache-friendly stages:

    1. every *unique* query in the batch is featurized once, all of them in
       one :meth:`QueryFeaturizer.featurize_many` pass, and encoded once per
       pair slot by one :meth:`CRNModel.encode_sets` call per slot (a query
       appearing in hundreds of pairs — e.g. a pool query scored against
       many incoming queries — costs one featurization and at most two
       encodings per call);
    2. the pair head runs over the gathered encodings in fixed-shape tiles
       (:meth:`CRNModel.rates_from_encodings`), so estimates are bit-for-bit
       identical no matter how pairs are batched together.

    Both stages run on the live model in every mode: an attached compiled
    plan (:meth:`attach_plan`) only scores resident float32 index slabs.

    The model and the featurizer are fixed at construction, so an encoding
    is a function of the query and its pair slot alone, and the caches and
    index slabs key by nothing else.  A database update is served by a newly
    wired estimator over the retrained model and a new featurizer
    (:func:`repro.serving.stack.wire_estimator`), never by rebinding this one.

    Args:
        model: the (trained) CRN network.
        featurizer: the featurizer bound to the evaluation database.  Any
            object with ``featurize`` / ``featurize_many`` / ``vector_size``
            works, so a :class:`repro.serving.FeaturizationCache` can be
            dropped in.
        encoding_cache: optional cross-call ``(query, position) -> Qvec``
            cache (:class:`repro.serving.EncodingCache`); when omitted,
            encodings are still deduplicated within each call.
    """

    name = "CRN"

    def __init__(
        self,
        model: CRNModel,
        featurizer: QueryFeaturizer,
        encoding_cache=None,
    ) -> None:
        if model.vector_size != featurizer.vector_size:
            raise ValueError(
                f"model expects vectors of size {model.vector_size}, "
                f"featurizer produces {featurizer.vector_size}"
            )
        self.model = model
        self.featurizer = featurizer
        self.encoding_cache = encoding_cache
        #: Optional compiled inference plan
        #: (:class:`repro.serving.InferencePlan`).  When attached, resident
        #: index slabs are scored by its fused float32 kernel; encodings and
        #: per-pair rates still come from the live model.  Duck-typed so core
        #: never imports the serving layer.
        self.inference_plan = None
        if encoding_cache is not None:
            encoding_cache.bind(model)  # cached encodings are this model's alone

    def estimate_containment(self, first: Query, second: Query) -> float:
        return self.estimate_containments([(first, second)])[0]

    # ------------------------------------------------------------------ #
    # compiled inference plans

    def attach_plan(self, plan) -> None:
        """Score resident index slabs through a compiled plan's fused kernel.

        The plan must have been compiled from *this* estimator's model.
        """
        if plan.model is not self.model:
            raise ValueError(
                "inference plan was compiled from a different model; "
                "recompile against this estimator's model"
            )
        self.inference_plan = plan

    def estimate_containments(self, pairs) -> list[float]:
        if not pairs:
            return []
        encodings = self._encode_keys(
            key for first, second in pairs for key in ((first, 1), (second, 2))
        )
        first_reprs = np.stack([encodings[(first, 1)] for first, _ in pairs])
        second_reprs = np.stack([encodings[(second, 2)] for _, second in pairs])
        rates = self.model.rates_from_encodings(first_reprs, second_reprs)
        return [float(rate) for rate in rates]

    def encode_query(self, query: Query, position: int) -> np.ndarray:
        """The ``Qvec`` of ``query`` in pair slot ``position``: cache get,
        featurize (on a miss), encode, cache put."""
        if self.encoding_cache is not None:
            cached = self.encoding_cache.get(query, position)
            if cached is not None:
                return cached
        encoding = self.model.encode_set(self.featurizer.featurize(query), position)
        if self.encoding_cache is not None:
            self.encoding_cache.put(query, position, encoding)
        return encoding

    def rates_against_pools(self, items) -> list[np.ndarray]:
        """Score many ``(query, slab)`` Cnt2Crd requests at once.

        The one place that chooses a scorer, on what the slab carries: a
        :class:`repro.core.queries_pool.PoolSlab` with resident rows (built
        by a :class:`repro.serving.PoolEncodingIndex` for this model) runs
        the resident-row kernels below; a row-less slab is scored pair by
        pair through the :class:`ContainmentEstimator` default.

        With a plan attached, each resident item runs the plan's fused slab
        kernel on the slab's feature-major float32 rows.  Without one,
        resident items are assembled with :meth:`CRNModel.assemble_pool_pairs`
        from the transposed float64 rows and all blocks run through *one*
        pair-head pass: with many concurrent requests over small buckets,
        per-request runs would each pad their last tile and pay the kernel's
        fixed cost again.  Because every row's rate is independent of batch
        composition, the fused run returns bit-for-bit the rates of the
        per-pair route (with a plan: the same rates up to float32 rounding).

        Returns one ``(2 * n_i,)`` rate array per item, in order.
        """
        items = list(items)
        results: list[np.ndarray | None] = [None] * len(items)
        rowless: list[int] = []
        resident: list[int] = []
        for index, (_, slab) in enumerate(items):
            (rowless if slab.first is None else resident).append(index)
        if rowless:
            blocks = super().rates_against_pools([items[index] for index in rowless])
            for index, block in zip(rowless, blocks):
                results[index] = block
        if not resident:
            return results
        plan = self.inference_plan
        if plan is not None:
            # Per-item fused slab runs: the kernel folds the item's query into
            # its first-layer weight, so there is nothing to share across
            # items — and it never assembles the (2E, 4H) pair matrix that one
            # stacked pass would need.
            for index in resident:
                query, slab = items[index]
                results[index] = plan.rates_against_slab(
                    self.encode_query(query, 1),
                    self.encode_query(query, 2),
                    slab.first,
                    slab.second,
                )
            return results
        blocks = []
        for index in resident:
            query, slab = items[index]
            blocks.append(
                self.model.assemble_pool_pairs(
                    self.encode_query(query, 1),
                    self.encode_query(query, 2),
                    slab.first.T,
                    slab.second.T,
                )
            )
        if len(blocks) == 1:  # nothing to stack: skip two whole-batch copies
            stacked_first, stacked_second = blocks[0]
        else:
            stacked_first = np.concatenate([first for first, _ in blocks], axis=0)
            stacked_second = np.concatenate([second for _, second in blocks], axis=0)
        rates = self.model.rates_from_encodings(stacked_first, stacked_second)
        offset = 0
        for index, (first, _) in zip(resident, blocks):
            count = first.shape[0]
            results[index] = rates[offset : offset + count]
            offset += count
        return results

    def warm(self, queries) -> None:
        """Pre-encode request ``queries`` for both pair slots into the
        encoding cache, featurizing them in one pass.  A pool's entries are
        encoded by its :class:`repro.serving.PoolEncodingIndex` instead,
        straight into the index slabs."""
        self._encode_keys((query, position) for query in queries for position in (1, 2))

    def _encode_keys(self, keys) -> dict[tuple[Query, int], np.ndarray]:
        """The encoding of every distinct ``(query, slot)`` of ``keys``.

        Encoding-cache hits are read back.  The queries missing a slot are
        featurized once each — across both slots — by one
        :meth:`QueryFeaturizer.featurize_many` pass, and each slot's misses
        are encoded by one ``encode_sets`` call (bit for bit what
        :meth:`encode_query` computes alone), then cached.
        """
        cache = self.encoding_cache
        encodings: dict[tuple[Query, int], np.ndarray] = {}
        missing: dict[int, list[Query]] = {1: [], 2: []}
        for key in dict.fromkeys(keys):
            cached = None if cache is None else cache.get(*key)
            if cached is None:
                missing[key[1]].append(key[0])
            else:
                encodings[key] = cached
        queries = list(dict.fromkeys(missing[1] + missing[2]))
        if not queries:
            return encodings
        rows, counts = self.featurizer.featurize_many(queries)
        starts = np.cumsum(counts) - counts
        index = {query: number for number, query in enumerate(queries)}
        for position, wanted in missing.items():
            if not wanted:
                continue
            taken = np.array([index[query] for query in wanted], dtype=np.intp)
            sizes = counts[taken]
            # Set j's rows, moved from its start in ``rows`` to its start in the gather.
            shift = np.repeat(starts[taken] - (np.cumsum(sizes) - sizes), sizes)
            fresh = self.model.encode_sets(rows[np.arange(sizes.sum()) + shift], sizes, position)
            for query, encoding in zip(wanted, fresh):
                encodings[(query, position)] = encoding
                if cache is not None:
                    cache.put(query, position, encoding)
        return encodings
