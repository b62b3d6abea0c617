"""Compiled inference plans: the CRN pair head on frozen weights.

Serving never needs gradients, and no serving path builds an autodiff graph:
the pair head is one array kernel, :func:`repro.core.crn.pair_head`, which
``reference`` mode runs on the model's live weights.  An
:class:`InferencePlan` runs that same kernel on dtype-cast constant **copies**
of the head and encoder weights, so a later optimizer step cannot reach what
is being served.  The kernel's contract is the op order of
:meth:`repro.core.crn.CRNModel.head`, and :func:`compile_plan` checks it
against a ``model.head`` forward pass: a model whose head computes something
else does not compile.

Two dtype modes:

* **float64** — the bit-exact mode.  Rows run in fixed ``slab_size``-row
  tiles (zero-padded last tile), stacked so ``np.matmul`` issues one
  identically-shaped GEMM per tile: rates are bit-for-bit those of the live
  weights at the same ``batch_size``, and of the ``Tensor`` head run tile by
  tile.  What the plan adds over ``reference`` mode is the freeze.
* **float32** — the tolerance mode.  Constants and scratch are float32 and
  the whole batch runs as **one** variable-row pass (no padding at all).
  Rates differ from the reference by float32 rounding; the
  documented bound (see ``docs/architecture.md``) is that per-rate relative
  error stays ~1e-5..1e-4, which the serving config exposes as
  ``inference.tolerance`` and the property tests check end to end as a
  q-error bound on final estimates.

float32 plans additionally carry a **fused slab kernel**
(:meth:`InferencePlan.rates_against_slab`) for the Cnt2Crd access pattern,
where every pair couples one query vector with one pool row.  Instead of
materializing the ``(2E, H)`` interleaved pair matrices and the ``(2E, 4H)``
Expand concatenation, it exploits two algebraic facts: the first head matmul
splits by Expand section (``concat([f, s, |f-s|, f*s]) @ W  ==  f@W_f +
s@W_s + |f-s|@W_d + (f*s)@W_p``), and per slab half the sections are either
a pure function of the pool rows (``pool @ W_f`` / ``pool @ W_s`` — cached
per slab version, invalidated by the slab token) or one broadcast row
(``q @ W_s + b``, folded into the per-request GEMM as a ones-column).  Per
request only the genuinely pair-dependent work remains: the ``|f-s|`` /
``f*s`` elementwise maps and one ``(E, 2H+1)`` GEMM per direction — about
half the FLOPs and none of the assembly copies of the generic pass.

The plan also carries frozen float64 copies of the encoder weights, so
:meth:`InferencePlan.encode_set` is a pure function of the weights *at
compile time*.  Encodings stay canonical float64 regardless of plan dtype
(they feed the shared :class:`repro.serving.EncodingCache`); the head casts
on input load.  Scratch buffers are per-thread (a dispatcher thread and
client threads never share arrays) and grow geometrically.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

from repro.core.crn import PASS_ROWS, CRNEstimator, CRNModel, encode_set, pair_head, sigmoid_into
from repro.nn.tensor import Tensor, no_grad
from repro.observability.events import PlanCompiled

__all__ = ["InferencePlan", "compile_plan"]


class InferencePlan:
    """A frozen CRN pair head run as fused NumPy kernels.

    Built by :func:`compile_plan`; not constructed directly.  The plan holds
    dtype-cast **copies** of the head and encoder weights: mutating the
    source model after compilation (an optimizer step, a manual weight poke)
    does not change what the plan computes — recompile instead, which is
    exactly what the adaptation lifecycle does on promote.
    """

    def __init__(
        self, model: CRNModel, *, dtype: np.dtype, slab_size: int, tolerance: float
    ) -> None:
        self.model = model
        self.dtype = np.dtype(dtype)
        self.slab_size = slab_size
        self.tolerance = tolerance
        self.hidden_size = hidden = model.hidden_size
        self.compile_seconds = 0.0

        def frozen(parameter: Tensor, dtype: np.dtype = self.dtype) -> np.ndarray:
            # Freeze: an explicit copy, cast to the plan dtype.
            return np.array(parameter.data, dtype=dtype, order="C", copy=True)

        self._w_hidden = frozen(model.out_hidden.weight)
        self._b_hidden = frozen(model.out_hidden.bias)
        self._w_out = frozen(model.out_final.weight)
        self._b_out = frozen(model.out_final.bias)
        self._encoder = {
            position: (frozen(encoder.weight, np.float64), frozen(encoder.bias, np.float64))
            for position, encoder in ((1, model.set_encoder1), (2, model.set_encoder2))
        }
        self._pooling = model.config.pooling
        self._pair: dict[str, Any] | None = None
        if self.dtype == np.float32:
            # Split the first head matmul by Expand section so the pool
            # halves of the pair GEMM can be cached per slab.  Float64 mode
            # stays on the generic pass: the split reorders the accumulation,
            # which is fine within float32 rounding but breaks the
            # bit-exactness contract.
            head_weight = self._w_hidden
            self._pair = {
                "use_expand": bool(model.config.use_expand),
                "w_first": head_weight[:hidden],
                "w_second": head_weight[hidden : 2 * hidden],
                "bias": self._b_hidden,
                "w_out": self._w_out,
                "b_out": self._b_out,
            }
            if self._pair["use_expand"]:
                self._pair["w_diff"] = head_weight[2 * hidden : 3 * hidden]
                self._pair["w_prod"] = head_weight[3 * hidden :]
        # Per-(scope, signature) cache of pool-side weight projections for
        # the fused slab kernel; entries are keyed by the full slab token,
        # so a pool append (version bump) or rebind recomputes lazily.
        self._projection_lock = threading.Lock()
        self._projections: dict[Any, tuple[Any, np.ndarray, np.ndarray]] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # reporting

    def kernel_info(self) -> dict[str, Any]:
        """How this plan executes a slab pass, as span/report attributes.

        What the tracer stamps onto ``slab_kernel`` spans, so a stored trace
        says which execution mode (fused float32 variable-row vs fixed-tile
        float64) produced the batch it amortizes over.
        """
        return {
            "mode": "compiled",
            "dtype": self.dtype.name,
            "slab_size": self.slab_size,
            "fused": self._pair is not None,
        }

    def scratch_stats(self) -> dict[str, int]:
        """This thread's scratch state (capacity rows and realloc count)."""
        state = self._local
        return {
            "capacity_rows": int(getattr(state, "capacity", 0)),
            "allocations": int(getattr(state, "allocations", 0)),
        }

    # ------------------------------------------------------------------ #
    # encoder stage (frozen weights, canonical float64)

    def encode_set(self, vectors: np.ndarray, position: int) -> np.ndarray:
        """``CRNModel.encode_set`` against the weights frozen at compile time.

        Bit-identical to the model's method as long as the model has not been
        mutated since compilation — and deliberately *not* identical after,
        which is the freeze guarantee.
        """
        if position not in self._encoder:
            raise ValueError(f"position must be 1 or 2, got {position}")
        weight, bias = self._encoder[position]
        return encode_set(vectors, weight, bias, self._pooling)

    # ------------------------------------------------------------------ #
    # pair head

    def rates_from_encodings(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Containment rates for ``(n, H)`` pre-encoded pair matrices.

        :func:`repro.core.crn.pair_head` on the frozen weights: float64 mode
        in fixed ``slab_size``-row tiles (bit-exact), float32 mode as one
        variable-row pass.  Always a fresh float64 ``(n,)`` array.
        """
        first = np.asarray(first)
        second = np.asarray(second)
        rows = self.slab_size if self.dtype == np.float64 else max(first.shape[0], 1)
        weights = (self._w_hidden, self._b_hidden, self._w_out, self._b_out)
        return pair_head(first, second, *weights, rows, self._local)

    # ------------------------------------------------------------------ #
    # fused slab kernel (float32 only)

    def rates_against_slab(
        self,
        query_first: np.ndarray,
        query_second: np.ndarray,
        pool_first: np.ndarray,
        pool_second: np.ndarray,
        token: Any = None,
    ) -> np.ndarray:
        """Fused query-vs-slab scoring in ``containment_pairs`` order.

        Scores one query against ``E`` pool rows and returns the ``(2E,)``
        float64 rates the interleaved pair assembly would produce: even rows
        are the ``(Qold, Qnew)`` direction, odd rows ``(Qnew, Qold)`` —
        exactly :meth:`repro.core.crn.CRNModel.assemble_pool_pairs` order,
        without ever materializing the pair matrices.

        Args:
            query_first: the query's ``(H,)`` slot-1 encoding.
            query_second: the query's ``(H,)`` slot-2 encoding.
            pool_first: ``(E, H)`` slot-1 pool rows (float32 mirrors when the
                index negotiated them; float64 rows are cast here once).
            pool_second: ``(E, H)`` slot-2 pool rows.
            token: the slab's identity token.  When given, the pool-side
                weight projections are cached under it and reused until the
                slab changes (append, rebuild, rebind); ``None`` recomputes
                them on every call.
        """
        pair = self._pair
        if pair is None:
            raise RuntimeError(
                "the fused slab kernel needs a float32 plan; float64 mode "
                "serves through the bit-exact generic pass"
            )
        count = pool_first.shape[0]
        rates = np.empty(2 * count, dtype=np.float64)
        if count == 0:
            return rates
        pool_first = np.ascontiguousarray(pool_first, dtype=self.dtype)
        pool_second = np.ascontiguousarray(pool_second, dtype=self.dtype)
        q_first = np.asarray(query_first, dtype=self.dtype)
        q_second = np.asarray(query_second, dtype=self.dtype)
        proj_first, proj_second = self._slab_projections(pool_first, pool_second, token)
        state = self._fused_state(count)
        # (Qold, Qnew): pool rows fill the first slot, the query the second.
        self._fused_half(state, count, pool_first, q_second, proj_first, pair["w_second"], rates[0::2])
        # (Qnew, Qold): the query fills the first slot, pool rows the second.
        self._fused_half(state, count, pool_second, q_first, proj_second, pair["w_first"], rates[1::2])
        return rates

    def _slab_projections(
        self, pool_first: np.ndarray, pool_second: np.ndarray, token: Any
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``pool @ W`` projections for one slab version."""
        pair = self._pair
        key = token[:2] if token is not None else None
        if key is not None:
            with self._projection_lock:
                cached = self._projections.get(key)
            if cached is not None and cached[0] == token:
                return cached[1], cached[2]
        proj_first = pool_first @ pair["w_first"]
        proj_second = pool_second @ pair["w_second"]
        if key is not None:
            with self._projection_lock:
                self._projections[key] = (token, proj_first, proj_second)
        return proj_first, proj_second

    def _fused_state(self, rows: int):
        """Per-thread scratch for the fused slab kernel (geometric growth)."""
        pair = self._pair
        state = self._local
        if getattr(state, "fused_capacity", 0) < rows:
            capacity = max(rows, 2 * getattr(state, "fused_capacity", 0))
            hidden = self.hidden_size
            out_dim = pair["w_out"].shape[0]
            if pair["use_expand"]:
                # [ |f-s| | f*s | 1 ] — the ones column folds the per-request
                # broadcast row (q @ W + b) into the single GEMM below.
                state.fused_stack = np.empty((capacity, 2 * hidden + 1), dtype=self.dtype)
                state.fused_stack[:, -1] = 1.0
                weight = np.empty((2 * hidden + 1, out_dim), dtype=self.dtype)
                weight[:hidden] = pair["w_diff"]
                weight[hidden : 2 * hidden] = pair["w_prod"]
                state.fused_weight = weight
            state.fused_hidden = np.empty((capacity, out_dim), dtype=self.dtype)
            state.fused_z = np.empty((capacity, 1), dtype=self.dtype)
            state.fused_aux = tuple(
                np.empty((capacity, 1), dtype=self.dtype) for _ in range(3)
            )
            state.fused_mask = np.empty((capacity, 1), dtype=bool)
            state.fused_capacity = capacity
            state.allocations = getattr(state, "allocations", 0) + 1
        return state

    def _fused_half(
        self,
        state,
        rows: int,
        pool_rows: np.ndarray,
        query_vec: np.ndarray,
        projection: np.ndarray,
        w_query: np.ndarray,
        out_view: np.ndarray,
    ) -> None:
        """One scoring direction: ``pool_rows`` in one slot, the query in the
        other.  The Expand cross terms (``|f-s|``, ``f*s``) are symmetric in
        the slot order, so both directions share this exact routine — only
        the projection (pool slot) and ``w_query`` (query slot) differ."""
        pair = self._pair
        qrow = query_vec @ w_query
        qrow += pair["bias"]
        hidden = state.fused_hidden[:rows]
        if pair["use_expand"]:
            size = self.hidden_size
            stack = state.fused_stack[:rows]
            diff = stack[:, :size]
            prod = stack[:, size : 2 * size]
            np.subtract(pool_rows, query_vec, out=diff)
            np.absolute(diff, out=diff)
            np.multiply(pool_rows, query_vec, out=prod)
            weight = state.fused_weight
            weight[-1] = qrow
            np.matmul(stack, weight, out=hidden)  # |f-s|@Wd + (f*s)@Wp + qrow
            np.add(hidden, projection, out=hidden)
        else:
            np.add(projection, qrow, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        z = state.fused_z[:rows]
        np.matmul(hidden, pair["w_out"], out=z)
        np.add(z, pair["b_out"], out=z)
        aux0, aux1, aux2 = (buf[:rows] for buf in state.fused_aux)
        sigmoid_into(z, z, aux0, aux1, aux2, state.fused_mask[:rows])
        out_view[:] = z[:, 0]


def compile_plan(
    model: CRNModel,
    *,
    dtype: np.dtype | str = np.float64,
    slab_size: int = PASS_ROWS,
    tolerance: float = 1e-3,
) -> InferencePlan:
    """Freeze ``model`` into an :class:`InferencePlan` and check it.

    Args:
        model: the trained CRN.  Its weights are **copied** (dtype-cast) into
            the plan; later mutation of the model does not affect the plan.
        dtype: ``np.float64`` for the bit-exact mode, ``np.float32`` for the
            fused tolerance mode.
        slab_size: rows per fixed-shape pass in float64 mode — must match
            the estimator's ``batch_size`` for bit-identity with the live
            weights (float32 mode ignores it for execution but keeps it for
            bookkeeping).
        tolerance: the documented end-to-end q-error bound of float32 mode;
            carried on the plan so serving stats and events can report it.

    Returns:
        A ready-to-run plan.  Compilation self-checks the kernel against a
        ``model.head`` forward pass, and tile stacking against a single tile,
        and raises ``RuntimeError`` when either disagrees (a subclass that
        overrides ``head``; a BLAS whose stacked matmul depends on the stack).
    """
    started = time.perf_counter()
    if not isinstance(model, CRNModel):
        raise TypeError(f"compile_plan needs a CRNModel, got {type(model).__name__}")
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"plan dtype must be float64 or float32, got {dtype}")
    if slab_size <= 0:
        raise ValueError("slab_size must be positive")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    plan = InferencePlan(model, dtype=dtype, slab_size=slab_size, tolerance=tolerance)

    # Self-check of what batch invariance rests on: (a) the kernel on one
    # zero-padded tile is the Tensor head on the same ``slab_size`` rows —
    # exactly in float64, within rounding in float32 — and (b) those rows
    # scored as the last tile of a 3-tile stack keep their single-tile bits.
    rng = np.random.default_rng(7)
    count = max(slab_size - 3, 1)
    first, second = rng.standard_normal((2, 2 * slab_size + count, model.hidden_size))
    probe = slice(2 * slab_size, None)
    tile = np.zeros((2, slab_size, model.hidden_size))
    tile[0, :count], tile[1, :count] = first[probe], second[probe]
    with no_grad():
        expected = model.head(Tensor(tile[0]), Tensor(tile[1])).numpy()[:count]
    actual = plan.rates_from_encodings(first[probe], second[probe])
    if dtype == np.float64:
        if not np.array_equal(actual, expected):
            raise RuntimeError("compiled float64 plan diverged from model.head")
        if not np.array_equal(plan.rates_from_encodings(first, second)[probe], actual):
            raise RuntimeError(
                "stacked matmul is not per-tile identical on this NumPy/BLAS "
                "build: float64 rates would depend on the batch"
            )
    elif not np.allclose(actual, expected, rtol=1e-3, atol=1e-5):
        raise RuntimeError("compiled float32 plan diverged beyond float32 rounding")

    plan.compile_seconds = time.perf_counter() - started
    return plan


def compile_and_attach(
    crn: CRNEstimator,
    *,
    dtype: np.dtype | str,
    tolerance: float,
    recorder,
    estimator_name: str,
    generation: int,
) -> InferencePlan:
    """The plan hand-over: compile for ``crn``'s model, attach, emit the event.

    Build-time wiring and the lifecycle's pre-swap recompile both go through
    here; they differ only in the ``generation`` the plan will serve.
    """
    plan = compile_plan(
        crn.model, dtype=dtype, slab_size=crn.batch_size, tolerance=tolerance
    )
    crn.attach_plan(plan)
    if recorder is not None:
        recorder.emit(
            PlanCompiled(
                estimator_name=estimator_name,
                generation=generation,
                dtype=plan.dtype.name,
                compile_seconds=plan.compile_seconds,
            )
        )
    return plan
