"""Compiled inference plans: the CRN pair head as fused NumPy kernels.

Serving never needs gradients, yet the reference inference path still pays,
per pair-head slab, Python-level ``Module.__call__`` dispatch, autodiff graph
construction (parents/backward closures per op), thread-local grad-mode
checks, and a fresh allocation for every intermediate.  An
:class:`InferencePlan` removes all of it: :func:`compile_plan` runs one
traced forward pass of ``CRNModel.head`` (via :mod:`repro.nn.trace`),
freezes the weights it touched as dtype-cast constant copies, and lowers the
tape into a flat program of NumPy/BLAS calls that execute into preallocated,
geometrically-grown scratch buffers — no ``Tensor`` objects anywhere on the
hot path.

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
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.crn import CRNModel
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trace import trace

__all__ = ["InferencePlan", "compile_plan"]

#: Ops the plan lowerer understands.  The head only uses a subset; the rest
#: are implemented so tracing-based compilation keeps working if the model
#: grows (e.g. a pooling ``sum`` showing up in a future traced stage).
_SUPPORTED_OPS = frozenset(
    {
        "add",
        "neg",
        "mul",
        "div",
        "matmul",
        "pow",
        "abs",
        "maximum",
        "relu",
        "sigmoid",
        "exp",
        "log",
        "clip_min",
        "reshape",
        "sum",
        "concat",
    }
)


@dataclass(frozen=True)
class _Step:
    """One lowered op: ``slots[output] = op(*slots[inputs], **attrs)``."""

    op: str
    inputs: tuple[int, ...]
    output: int
    attrs: dict[str, Any]


class InferencePlan:
    """A frozen CRN pair head lowered to fused NumPy kernels.

    Built by :func:`compile_plan`; not constructed directly.  The plan holds
    dtype-cast **copies** of every weight the traced forward pass touched:
    mutating the source model after compilation (an optimizer step, a manual
    weight poke) does not change what the plan computes — recompile instead,
    which is exactly what the adaptation lifecycle does on promote.
    """

    def __init__(
        self,
        *,
        model: CRNModel,
        dtype: np.dtype,
        slab_size: int,
        tolerance: float,
        steps: tuple[_Step, ...],
        constants: dict[int, np.ndarray],
        first_slot: int,
        second_slot: int,
        output_slot: int,
        templates: dict[int, tuple[int, ...]],
        alias_slots: frozenset[int],
        num_slots: int,
        encoder_weights: dict[str, np.ndarray],
        pooling: str,
        compile_seconds: float,
        pair_kernel: dict[str, Any] | None = None,
    ) -> None:
        self.model = model
        self.dtype = np.dtype(dtype)
        self.slab_size = slab_size
        self.tolerance = tolerance
        self.hidden_size = model.hidden_size
        self.compile_seconds = compile_seconds
        self._steps = steps
        self._constants = constants
        self._first_slot = first_slot
        self._second_slot = second_slot
        self._output_slot = output_slot
        self._alias_slots = alias_slots
        self._num_slots = num_slots
        self._encoder = encoder_weights
        self._pooling = pooling
        self._pair = pair_kernel
        # Per-(scope, signature) cache of pool-side weight projections for
        # the fused slab kernel; entries are keyed by the full slab token,
        # so a pool append (version bump) or rebind recomputes lazily.
        self._projection_lock = threading.Lock()
        self._projections: dict[Any, tuple[Any, np.ndarray, np.ndarray]] = {}
        # Buffer templates: -1 marks the batch (rows) dimension.  Dynamic
        # slots get capacity-sized scratch reused across calls; static slots
        # (no batch dim — reductions to scalars etc.) are allocated once.
        self._dynamic_templates = {
            slot: tpl for slot, tpl in templates.items() if tpl and tpl[0] == -1
        }
        self._static_templates = {
            slot: tpl for slot, tpl in templates.items() if not tpl or tpl[0] != -1
        }
        # Sigmoid needs elementwise temporaries (three value buffers and one
        # bool mask, shaped like its input) so the stable two-branch formula
        # can run allocation-free.
        self._aux_specs: dict[tuple[int, int], tuple[tuple[int, ...], np.dtype]] = {}
        for index, step in enumerate(steps):
            if step.op == "sigmoid":
                tpl = templates[step.inputs[0]]
                for j in range(3):
                    self._aux_specs[(index, j)] = (tpl, self.dtype)
                self._aux_specs[(index, 3)] = (tpl, np.dtype(bool))
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # reporting

    @property
    def num_nodes(self) -> int:
        """Number of lowered primitive ops."""
        return len(self._steps)

    @property
    def num_constants(self) -> int:
        """Number of frozen constant arrays (weights, biases, scalars)."""
        return len(self._constants)

    def describe(self) -> dict[str, Any]:
        """A plain-dict summary (feeds ``plan_compile`` events and stats)."""
        return {
            "dtype": self.dtype.name,
            "slab_size": self.slab_size,
            "tolerance": self.tolerance,
            "nodes": self.num_nodes,
            "constants": self.num_constants,
            "compile_seconds": self.compile_seconds,
        }

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
            "nodes": self.num_nodes,
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
        if position not in (1, 2):
            raise ValueError(f"position must be 1 or 2, got {position}")
        suffix = "1" if position == 1 else "2"
        weight = self._encoder[f"w{suffix}"]
        bias = self._encoder[f"b{suffix}"]
        transformed = np.maximum(vectors @ weight + bias, 0.0)
        pooled = transformed.sum(axis=0)
        if self._pooling == "average":
            pooled = pooled / max(vectors.shape[0], 1)
        return pooled

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
        state = self._state()
        if self.dtype == np.float64:
            slab = self.slab_size
            self._ensure(state, slab)
            first_buf = state.views[self._first_slot]
            second_buf = state.views[self._second_slot]
            for start in range(0, total, slab):
                count = min(slab, total - start)
                np.copyto(first_buf[:count], first[start : start + count])
                np.copyto(second_buf[:count], second[start : start + count])
                if count < slab:
                    first_buf[count:] = 0.0
                    second_buf[count:] = 0.0
                out = self._execute(state)
                rates[start : start + count] = out[:count]
            return rates
        self._ensure(state, total)
        np.copyto(state.views[self._first_slot], first)
        np.copyto(state.views[self._second_slot], second)
        np.copyto(rates, self._execute(state))
        return rates

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

    # ------------------------------------------------------------------ #
    # scratch management

    def _state(self):
        state = self._local
        if getattr(state, "views", None) is None:
            state.views = [None] * self._num_slots
            for slot, value in self._constants.items():
                state.views[slot] = value
            state.buffers = {}
            state.aux = {}
            state.aux_views = {}
            state.capacity = 0
            state.rows = 0
            state.allocations = 0
            for slot, tpl in self._static_templates.items():
                state.buffers[slot] = np.empty(tpl, dtype=self.dtype)
                state.views[slot] = state.buffers[slot]
        return state

    def _ensure(self, state, rows: int) -> None:
        """Size this thread's scratch for ``rows`` and refresh slot views."""
        if rows > state.capacity:
            # Geometric growth: a stream of slowly-increasing batch sizes
            # costs O(log) reallocations, not one per new high-water mark.
            capacity = max(rows, 2 * state.capacity)
            for slot, tpl in self._dynamic_templates.items():
                state.buffers[slot] = np.empty((capacity, *tpl[1:]), dtype=self.dtype)
            for key, (tpl, aux_dtype) in self._aux_specs.items():
                state.aux[key] = np.empty((capacity, *tpl[1:]), dtype=aux_dtype)
            state.capacity = capacity
            state.allocations += 1
            state.rows = 0
        if rows != state.rows:
            for slot in self._dynamic_templates:
                state.views[slot] = state.buffers[slot][:rows]
            state.aux_views = {key: buf[:rows] for key, buf in state.aux.items()}
            state.rows = rows

    # ------------------------------------------------------------------ #
    # interpreter

    def _execute(self, state) -> np.ndarray:
        """Run the lowered program over this thread's current views."""
        views = state.views
        rows = state.rows
        for index, step in enumerate(self._steps):
            op = step.op
            inputs = step.inputs
            if op == "matmul":
                np.matmul(views[inputs[0]], views[inputs[1]], out=views[step.output])
            elif op == "add":
                np.add(views[inputs[0]], views[inputs[1]], out=views[step.output])
            elif op == "relu":
                np.maximum(views[inputs[0]], 0.0, out=views[step.output])
            elif op == "neg":
                np.negative(views[inputs[0]], out=views[step.output])
            elif op == "abs":
                np.absolute(views[inputs[0]], out=views[step.output])
            elif op == "mul":
                np.multiply(views[inputs[0]], views[inputs[1]], out=views[step.output])
            elif op == "concat":
                np.concatenate(
                    [views[slot] for slot in inputs],
                    axis=step.attrs["axis"],
                    out=views[step.output],
                )
            elif op == "sigmoid":
                self._sigmoid(
                    views[inputs[0]],
                    views[step.output],
                    state.aux_views[(index, 0)],
                    state.aux_views[(index, 1)],
                    state.aux_views[(index, 2)],
                    state.aux_views[(index, 3)],
                )
            elif op == "reshape":
                shape = tuple(
                    rows if dim == -1 else dim for dim in step.attrs["shape"]
                )
                views[step.output] = views[inputs[0]].reshape(shape)
            elif op == "div":
                np.divide(views[inputs[0]], views[inputs[1]], out=views[step.output])
            elif op == "maximum":
                np.maximum(views[inputs[0]], views[inputs[1]], out=views[step.output])
            elif op == "clip_min":
                np.maximum(
                    views[inputs[0]], step.attrs["minimum"], out=views[step.output]
                )
            elif op == "pow":
                np.power(
                    views[inputs[0]], step.attrs["exponent"], out=views[step.output]
                )
            elif op == "exp":
                out = views[step.output]
                np.clip(views[inputs[0]], -700.0, 700.0, out=out)
                np.exp(out, out=out)
            elif op == "log":
                np.log(views[inputs[0]], out=views[step.output])
            elif op == "sum":
                np.sum(
                    views[inputs[0]],
                    axis=step.attrs["axis"],
                    keepdims=step.attrs["keepdims"],
                    out=views[step.output],
                )
            else:  # pragma: no cover - compile_plan rejects unknown ops
                raise RuntimeError(f"unlowerable op {op!r}")
        return views[self._output_slot]

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
    """Trace ``model.head`` and lower it into an :class:`InferencePlan`.

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
        A ready-to-run plan.  Compilation self-checks by replaying the
        traced forward pass through the lowered program.
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
    hidden = model.hidden_size
    # The marker batch size must differ from every static dimension in the
    # head, so "this dim == marker" unambiguously means "the batch dim".
    marker = 13
    forbidden = {1, hidden, 2 * hidden, 4 * hidden}
    while marker in forbidden:
        marker += 2
    rng = np.random.default_rng(7)
    first = Tensor(rng.standard_normal((marker, hidden)))
    second = Tensor(rng.standard_normal((marker, hidden)))
    with no_grad(), trace() as tape:
        traced = model.head(first, second)
    if not tape.nodes:
        raise ValueError("tracing model.head produced no ops")
    first_slot = tape.slot_of(first)
    second_slot = tape.slot_of(second)
    output_slot = tape.slot_of(traced)
    if first_slot is None or second_slot is None or output_slot is None:
        raise ValueError("traced head does not connect both inputs to the output")

    produced: set[int] = set()
    constants: dict[int, np.ndarray] = {}
    steps: list[_Step] = []
    alias_slots: set[int] = set()
    for node in tape.nodes:
        if node.op not in _SUPPORTED_OPS:
            raise ValueError(f"traced op {node.op!r} has no fused lowering")
        for slot in node.inputs:
            if slot in produced or slot in (first_slot, second_slot) or slot in constants:
                continue
            tensor = tape.tensor_for_slot(slot)
            if marker in tensor.shape:
                raise ValueError(
                    "a weight dimension collides with the trace marker batch "
                    f"size {marker}; cannot distinguish batch from static dims"
                )
            # Freeze: an explicit copy, cast to the plan dtype.
            constants[slot] = np.array(tensor.data, dtype=dtype, order="C", copy=True)
        attrs = dict(node.attrs)
        if node.op == "reshape":
            shape = tuple(-1 if dim == marker else dim for dim in attrs["shape"])
            if shape.count(-1) > 1:
                raise ValueError(f"ambiguous batch dimension in reshape to {shape}")
            attrs["shape"] = shape
            alias_slots.add(node.output)
        produced.add(node.output)
        steps.append(_Step(node.op, node.inputs, node.output, attrs))

    templates: dict[int, tuple[int, ...]] = {}
    for slot in {first_slot, second_slot, *produced}:
        if slot in alias_slots:
            continue  # reshape outputs are views, not buffers
        shape = tape.tensor_for_slot(slot).shape
        template = tuple(-1 if dim == marker else dim for dim in shape)
        if -1 in template[1:]:
            raise ValueError(
                f"batch dimension in non-leading position of shape {shape}; "
                "the buffer planner only supports leading-batch layouts"
            )
        templates[slot] = template

    encoder_weights = {
        "w1": np.array(model.set_encoder1.weight.data, dtype=np.float64, copy=True),
        "b1": np.array(model.set_encoder1.bias.data, dtype=np.float64, copy=True),
        "w2": np.array(model.set_encoder2.weight.data, dtype=np.float64, copy=True),
        "b2": np.array(model.set_encoder2.bias.data, dtype=np.float64, copy=True),
    }

    pair_kernel: dict[str, Any] | None = None
    if dtype == np.float32:
        # Split the first head matmul by Expand section so the pool halves of
        # the pair GEMM can be cached per slab.  Float64 mode stays on the
        # generic pass: the split reorders the accumulation, which is fine
        # within float32 rounding but breaks the bit-exactness contract.
        def _frozen(value: np.ndarray) -> np.ndarray:
            return np.array(value, dtype=np.float32, order="C", copy=True)

        head_weight = model.out_hidden.weight.data
        use_expand = bool(model.config.use_expand)
        pair_kernel = {
            "use_expand": use_expand,
            "w_first": _frozen(head_weight[:hidden]),
            "w_second": _frozen(head_weight[hidden : 2 * hidden]),
            "bias": _frozen(model.out_hidden.bias.data),
            "w_out": _frozen(model.out_final.weight.data),
            "b_out": _frozen(model.out_final.bias.data),
        }
        if use_expand:
            pair_kernel["w_diff"] = _frozen(head_weight[2 * hidden : 3 * hidden])
            pair_kernel["w_prod"] = _frozen(head_weight[3 * hidden :])

    plan = InferencePlan(
        model=model,
        dtype=dtype,
        slab_size=slab_size,
        tolerance=tolerance,
        steps=tuple(steps),
        constants=constants,
        first_slot=first_slot,
        second_slot=second_slot,
        output_slot=output_slot,
        templates=templates,
        alias_slots=frozenset(alias_slots),
        num_slots=tape.num_slots,
        encoder_weights=encoder_weights,
        pooling=model.config.pooling,
        compile_seconds=0.0,
        pair_kernel=pair_kernel,
    )

    # Self-check: the lowered program must reproduce the traced forward pass
    # on the marker inputs — exactly in float64, within rounding in float32.
    state = plan._state()
    plan._ensure(state, marker)
    np.copyto(state.views[first_slot], first.data)
    np.copyto(state.views[second_slot], second.data)
    replayed = np.asarray(plan._execute(state), dtype=np.float64)
    expected = traced.numpy()
    if dtype == np.float64:
        if not np.array_equal(replayed, expected):
            raise RuntimeError("compiled float64 plan diverged from the traced pass")
    elif not np.allclose(replayed, expected, rtol=1e-3, atol=1e-5):
        raise RuntimeError("compiled float32 plan diverged beyond float32 rounding")

    plan.compile_seconds = time.perf_counter() - started
    return plan
