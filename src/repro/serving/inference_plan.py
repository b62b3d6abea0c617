"""Compiled inference plans: the CRN pair head as fused NumPy kernels.

Serving never needs gradients, yet the reference inference path still pays,
per pair-head slab, Python-level ``Module.__call__`` dispatch, autodiff graph
construction (parents/backward closures per op), thread-local grad-mode
checks, and a fresh allocation for every intermediate.  An
:class:`InferencePlan` removes all of it: it freezes the head and encoder
weights as dtype-cast constant copies and runs the head as one hand-written
kernel (:meth:`InferencePlan._head_pass`) of NumPy/BLAS calls into
preallocated, geometrically-grown scratch buffers — no ``Tensor`` objects
anywhere on the hot path.  The kernel's contract is the op order of
:meth:`repro.core.crn.CRNModel.head` (same primitives, same order), and
:func:`compile_plan` checks it against one ``model.head`` forward pass: a
model whose head computes something else does not compile.

Two dtype modes:

* **float64** — the bit-exact mode.  The plan replays the reference slab
  discipline of :meth:`repro.core.crn.CRNModel.rates_from_encodings`
  (fixed ``slab_size``-row passes, zero-padded final slab) with the exact
  same primitive ops in the exact same order, so its rates are bit-for-bit
  identical to the ``Tensor`` path.  The win is pure overhead removal.
* **float32** — the tolerance mode.  Constants and scratch are float32 and
  the whole batch runs as **one** fused variable-row pass (no slab padding
  waste).  Rates differ from the reference by float32 rounding; the
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

The encoder stage (``encode_set``) is already Tensor-free in the model; the
plan carries frozen float64 copies of the encoder weights so
:meth:`InferencePlan.encode_set` is a pure function of the weights *at
compile time* — a later optimizer step cannot leak into a compiled plan.
Encodings stay canonical float64 regardless of plan dtype (they feed the
shared :class:`repro.serving.EncodingCache`); the head casts on input load.

Scratch buffers are per-thread (a serving dispatcher thread and client
threads never share arrays) and grow geometrically: a plan serving mixed
batch sizes reuses one high-water-mark allocation instead of allocating per
request.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

from repro.core.crn import CRNEstimator, CRNModel, encode_set
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

        self._use_expand = bool(model.config.use_expand)
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
                "use_expand": self._use_expand,
                "w_first": head_weight[:hidden],
                "w_second": head_weight[hidden : 2 * hidden],
                "bias": self._b_hidden,
                "w_out": self._w_out,
                "b_out": self._b_out,
            }
            if self._use_expand:
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
        says which execution mode (fused float32 variable-row vs fixed-slab
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

        float64 mode replays the reference fixed-shape slab loop (bit-exact);
        float32 mode runs one fused variable-row pass.  Always returns a
        fresh float64 ``(n,)`` array (downstream estimate math is float64).
        """
        first = np.asarray(first)
        second = np.asarray(second)
        if first.shape != second.shape:
            raise ValueError("first and second encodings must have the same shape")
        if first.ndim != 2 or first.shape[1] != self.hidden_size:
            raise ValueError(
                f"expected (n, {self.hidden_size}) encodings, got {first.shape}"
            )
        total = first.shape[0]
        rates = np.empty(total, dtype=np.float64)
        if total == 0:
            return rates
        rows = self.slab_size if self.dtype == np.float64 else total
        for start in range(0, total, rows):
            stop = min(start + rows, total)
            rates[start:stop] = self._head_pass(first[start:stop], second[start:stop], rows)
        return rates

    def _head_pass(self, first: np.ndarray, second: np.ndarray, rows: int) -> np.ndarray:
        """``CRNModel.head`` over one ``rows``-row pass, into this thread's scratch.

        The ``count <= rows`` input rows are cast on load and zero-padded up
        to ``rows``; the returned ``(count,)`` rates are a view of scratch,
        valid until this thread's next pass.  Same primitives, same order as
        the ``Tensor`` head (``a - b`` as ``a + (-b)``), with Expand written
        straight into its sections of the pair buffer.
        """
        count = first.shape[0]
        size = self.hidden_size
        state = self._local
        if getattr(state, "capacity", 0) < rows:
            # Geometric growth: a stream of slowly-increasing batch sizes
            # costs O(log) reallocations, not one per new high-water mark.
            capacity = max(rows, 2 * getattr(state, "capacity", 0))
            state.pair = np.empty((capacity, self._w_hidden.shape[0]), dtype=self.dtype)
            state.hidden = np.empty((capacity, self._w_hidden.shape[1]), dtype=self.dtype)
            # The output column, three sigmoid temporaries and its sign mask.
            state.columns = tuple(
                np.empty((capacity, 1), dtype=self.dtype) for _ in range(4)
            )
            state.mask = np.empty((capacity, 1), dtype=bool)
            state.capacity = capacity
            state.allocations = getattr(state, "allocations", 0) + 1
        pair = state.pair[:rows]
        first_section = pair[:, :size]
        second_section = pair[:, size : 2 * size]
        np.copyto(first_section[:count], first)
        np.copyto(second_section[:count], second)
        if count < rows:
            pair[count:, : 2 * size] = 0.0
        if self._use_expand:
            diff = pair[:, 2 * size : 3 * size]
            np.negative(second_section, out=diff)
            np.add(first_section, diff, out=diff)
            np.absolute(diff, out=diff)
            np.multiply(first_section, second_section, out=pair[:, 3 * size :])
        hidden = state.hidden[:rows]
        np.matmul(pair, self._w_hidden, out=hidden)
        np.add(hidden, self._b_hidden, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        z, aux0, aux1, aux2 = (column[:rows] for column in state.columns)
        np.matmul(hidden, self._w_out, out=z)
        np.add(z, self._b_out, out=z)
        self._sigmoid(z, z, aux0, aux1, aux2, state.mask[:rows])
        return z[:count, 0]

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
        self._sigmoid(z, z, aux0, aux1, aux2, state.fused_mask[:rows])
        out_view[:] = z[:, 0]

    @staticmethod
    def _sigmoid(a, out, t0, t1, t2, mask) -> None:
        """The stable two-branch sigmoid, allocation-free and bit-identical.

        Mirrors ``Tensor.sigmoid``: both branches are computed over the full
        array, then selected by the sign mask — the exact elementwise values
        ``np.where`` would pick, without its output allocation.
        """
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


def compile_plan(
    model: CRNModel,
    *,
    dtype: np.dtype | str = np.float64,
    slab_size: int = 256,
    tolerance: float = 1e-3,
) -> InferencePlan:
    """Freeze ``model`` into an :class:`InferencePlan` and check it.

    Args:
        model: the trained CRN.  Its weights are **copied** (dtype-cast) into
            the plan; later mutation of the model does not affect the plan.
        dtype: ``np.float64`` for the bit-exact mode, ``np.float32`` for the
            fused tolerance mode.
        slab_size: rows per pair-head pass in float64 mode — must match the
            estimator's ``batch_size`` for bit-identity with the reference
            path (float32 mode ignores it for execution but keeps it for
            bookkeeping).
        tolerance: the documented end-to-end q-error bound of float32 mode;
            carried on the plan so serving stats and events can report it.

    Returns:
        A ready-to-run plan.  Compilation self-checks the kernel against one
        ``model.head`` forward pass and raises ``RuntimeError`` when they
        disagree (a subclass that overrides ``head``, say).
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

    # Self-check: the kernel must reproduce the Tensor head on the same rows
    # — exactly in float64, within rounding in float32.
    rng = np.random.default_rng(7)
    first = rng.standard_normal((13, model.hidden_size))
    second = rng.standard_normal((13, model.hidden_size))
    with no_grad():
        expected = model.head(Tensor(first), Tensor(second)).numpy()
    actual = plan._head_pass(first, second, first.shape[0])
    if dtype == np.float64:
        if not np.array_equal(actual, expected):
            raise RuntimeError("compiled float64 plan diverged from model.head")
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
