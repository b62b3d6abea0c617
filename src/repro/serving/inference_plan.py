"""Compiled inference plans: the CRN pair head on frozen float32 weights.

Serving never needs gradients, and no serving path builds an autodiff graph.
The set encoders and the per-pair head (:func:`repro.core.crn.pair_head`)
always run on the model's live float64 weights.  An :class:`InferencePlan`
has one job: score one query against a float32 pool-index slab through a
**fused slab kernel** (:meth:`InferencePlan.rates_against_slab`) on float32
constant **copies** of the head weights.  Rates differ from the reference by
float32 rounding, ~1e-5..1e-4 relative per rate (see
``docs/architecture.md``), which the property tests check end to end as a
q-error bound on final estimates.  The kernel's contract is the float64 pair
head, :func:`repro.core.crn.pair_head`, and :func:`compile_plan` checks it
against :meth:`~repro.core.crn.CRNModel.rates_from_encodings`: a model whose
pair head computes something else does not compile.

In the Cnt2Crd access pattern every pair couples one query vector ``q`` with
one pool row.  Instead of materializing the ``(2E, H)`` interleaved pair
matrices and the ``(2E, 4H)`` Expand concatenation, the kernel uses three
facts.  The first head matmul splits by Expand section (``concat([f, s,
|f-s|, f*s]) @ W  ==  f@W_f + s@W_s + |f-s|@W_d + (f*s)@W_p``).  With the
pool rows ``P`` in one slot and ``q`` in the other, both pool-side sections
fold into one small per-request weight applied to ``P`` itself (``(P*q)@W_p
+ P@W_f  ==  P@(diag(q)·W_p + W_f)``), and the query-side section is one
broadcast row (``q@W_s + b``) carried by a ones row.  And the pool side
arrives **feature-major** — ``(H, E)``, the layout the pool index keeps its
float32 slabs in — so per direction the kernel is ``hiddenᵀ (2H×E) = Wᵀ
(2H×(2H+1)) @ [|P−q| ; P ; 1] ((2H+1)×E)``: one copy, one ``|P−q|`` and one
ReLU pass, each over contiguous ``E``-long rows, around one GEMM.  Nothing
is kept between requests, so a pool append has nothing to invalidate.  The
per-request weight costs two passes over ``H×2H`` floats: nothing at
``H=64``, but at the paper's ``H=512`` it is comparable to the GEMM itself
for a slab of fewer than ~30 rows (numbers in ``docs/architecture.md``).

Only the head is frozen: a model mutated in place after compilation moves
its encodings but not the plan's head, so recompile after a manual weight
change (training builds a new model, and a promote recompiles).  Scratch
buffers are per-thread and grow geometrically.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

from repro.core.crn import PASS_ROWS, CRNEstimator, CRNModel, sigmoid_into
from repro.nn.layers import Parameter
from repro.observability.events import PlanCompiled

__all__ = ["InferencePlan", "compile_plan"]


class InferencePlan:
    """A frozen float32 CRN pair head run as a fused slab kernel.

    Built by :func:`compile_plan`; not constructed directly.  The plan holds
    float32 **copies** of the head weights only: mutating the source model's
    head after compilation does not change what the plan computes, while its
    encoders are the model's own — recompile after a weight change, which is
    exactly what the adaptation lifecycle does on promote.
    """

    #: The execution dtype of every plan, and of the index slabs it reads.
    dtype = np.dtype(np.float32)

    def __init__(self, model: CRNModel) -> None:
        self.model = model
        self.hidden_size = hidden = model.hidden_size
        self.compile_seconds = 0.0

        def frozen(parameter: Parameter) -> np.ndarray:
            # Freeze: an explicit copy, cast to the plan dtype.
            return np.array(parameter.data, dtype=self.dtype, order="C", copy=True)

        self._w_hidden = frozen(model.out_hidden.weight)
        self._b_hidden = frozen(model.out_hidden.bias)
        self._w_out = frozen(model.out_final.weight)
        self._b_out = frozen(model.out_final.bias)
        # The first head matmul split by Expand section, for the fused slab
        # kernel: sections [W_f, W_s] or [W_f, W_s, W_d, W_p].
        self._sections = self._w_hidden.reshape(-1, hidden, self._w_hidden.shape[1])
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # reporting

    def kernel_info(self) -> dict[str, Any]:
        """How this plan executes a slab pass, as span/report attributes.

        What the tracer stamps onto ``slab_kernel`` spans, so a stored trace
        says which execution mode produced the batch it amortizes over.
        """
        return {"mode": "compiled", "dtype": self.dtype.name}

    # ------------------------------------------------------------------ #
    # fused slab kernel

    def rates_against_slab(
        self,
        query_first: np.ndarray,
        query_second: np.ndarray,
        pool_first: np.ndarray,
        pool_second: np.ndarray,
    ) -> np.ndarray:
        """Fused query-vs-slab scoring in ``containment_pairs`` order.

        Scores one query against ``E`` pool entries and returns the ``(2E,)``
        float64 rates the interleaved pair assembly would produce: even rows
        are the ``(Qold, Qnew)`` direction, odd rows ``(Qnew, Qold)`` —
        exactly :meth:`repro.core.crn.CRNModel.assemble_pool_pairs` order,
        without ever materializing the pair matrices.  A pure function of its
        arguments: no per-slab state survives the call.

        Args:
            query_first: the query's ``(H,)`` slot-1 encoding.
            query_second: the query's ``(H,)`` slot-2 encoding.
            pool_first: ``(H, E)`` feature-major slot-1 pool encodings, column
                ``i`` belonging to entry ``i`` — the index's float32 slab,
                read in place whatever its column stride, or any ``(H, E)``
                array, cast once on load.
            pool_second: ``(H, E)`` slot-2 pool encodings, same layout.
        """
        sections = self._sections
        size = self.hidden_size
        if pool_first.shape != pool_second.shape or pool_first.shape[:-1] != (size,):
            raise ValueError(
                f"expected two (H={size}, E) feature-major pool matrices, got "
                f"{pool_first.shape} and {pool_second.shape}"
            )
        count = pool_first.shape[1]
        rates = np.empty(2 * count, dtype=np.float64)
        if count == 0:
            return rates
        # Cast on load: free for a float32 slab, one copy for anything else.
        pools = [np.asarray(rows, dtype=self.dtype) for rows in (pool_first, pool_second)]
        state = self._fused_state(count)
        # Direction 0 scores (Qold, Qnew): pool rows fill the first slot and
        # the query the second; direction 1, (Qnew, Qold), is the reverse.
        # The Expand cross terms are symmetric in the slot order, so the two
        # differ only in which query vector and which head sections they use.
        queries, weight = state.fused_queries, state.fused_weight
        queries[0], queries[1] = query_second, query_first
        columns = queries[:, :, None]
        use_expand = len(sections) == 4
        w_pool = sections[:2]  # meets the pool slot: W_f, then W_s
        if use_expand:
            folded = weight[:, size : 2 * size]
            np.multiply(sections[3], columns, out=folded)
            np.add(folded, w_pool, out=folded)  # (P*q)@W_p + P@W == P@folded
        np.matmul(queries[:, None], w_pool[::-1], out=weight[:, -1:])
        np.add(weight[:, -1], self._b_hidden, out=weight[:, -1])
        width, out_dim = weight.shape[1:]
        stack = state.fused_stack[: width * count].reshape(width, count)
        hidden = state.fused_hidden[: out_dim * count].reshape(out_dim, count)
        z = state.fused_z[: 2 * count]
        z_rows = z.reshape(2, 1, count)
        stack[-1] = 1.0
        for direction, pool_rows in enumerate(pools):
            np.copyto(stack[-1 - size : -1], pool_rows)
            if use_expand:
                np.subtract(pool_rows, columns[direction], out=stack[:size])
                np.absolute(stack[:size], out=stack[:size])
            np.matmul(weight[direction].T, stack, out=hidden)
            np.maximum(hidden, 0.0, out=hidden)
            np.matmul(self._w_out.T, hidden, out=z_rows[direction])
        np.add(z, self._b_out, out=z)
        aux0, aux1, aux2 = (buffer[: 2 * count] for buffer in state.fused_aux)
        sigmoid_into(z, z, aux0, aux1, aux2, state.fused_mask[: 2 * count])
        rates[0::2] = z[:count]
        rates[1::2] = z[count:]
        return rates

    def _fused_state(self, entries: int):
        """Per-thread scratch for the fused slab kernel (geometric growth).

        The stack and hidden buffers are **flat**: each call reshapes a
        prefix to ``(width, E)``, so every row the kernel touches is
        contiguous whatever ``E`` is.
        """
        state = self._local
        if getattr(state, "fused_capacity", 0) < entries:
            capacity = max(entries, 2 * getattr(state, "fused_capacity", 0))
            sections, hidden, out_dim = self._sections.shape
            # Per direction, weight rows [ W_d ; diag(q)·W_p + W_pool ;
            # q@W_query + b ] meet stack rows [ |P-q| ; P ; 1 ]; only W_d
            # outlives a request.  Without Expand there is no first block
            # and nothing to fold: rows [ W_pool ; q@W_query + b ].
            width = sections // 2 * hidden + 1
            state.fused_weight = np.empty((2, width, out_dim), dtype=self.dtype)
            state.fused_weight[:, :hidden] = (
                self._sections[2] if sections == 4 else self._sections[:2]
            )
            state.fused_queries = np.empty((2, hidden), dtype=self.dtype)
            state.fused_stack = np.empty(capacity * width, dtype=self.dtype)
            state.fused_hidden = np.empty(capacity * out_dim, dtype=self.dtype)
            # Both directions' output rows, three sigmoid temporaries, its mask.
            state.fused_z = np.empty(2 * capacity, dtype=self.dtype)
            state.fused_aux = tuple(np.empty(2 * capacity, dtype=self.dtype) for _ in range(3))
            state.fused_mask = np.empty(2 * capacity, dtype=bool)
            state.fused_capacity = capacity
            state.allocations = getattr(state, "allocations", 0) + 1
        return state


def compile_plan(model: CRNModel) -> InferencePlan:
    """Freeze ``model``'s head into a float32 :class:`InferencePlan` and check it.

    Args:
        model: the trained CRN.  Its head weights are **copied** into the
            plan; later mutation of the model's head does not affect the plan.

    Returns:
        A ready-to-run plan.  Compilation self-checks the fused slab kernel
        against the model's float64 pair head (``rates_from_encodings``), and
        raises ``RuntimeError`` when they disagree beyond float32 rounding (a
        subclass that overrides ``rates_from_encodings``, say).
    """
    started = time.perf_counter()
    if not isinstance(model, CRNModel):
        raise TypeError(f"compile_plan needs a CRNModel, got {type(model).__name__}")
    plan = InferencePlan(model)

    # Self-check: the fused slab kernel (what float32 serving scores slabs
    # through) on random probe rows as the pool side, with the first of them
    # as the query.  13 rows keep the probe's GEMMs under OpenBLAS's
    # threading cutoff: at 32 fused pairs a woken BLAS thread cost ~16 ms per
    # compile on a busy 2-core box.
    rng = np.random.default_rng(7)
    first, second = rng.standard_normal((2, PASS_ROWS - 3, model.hidden_size))
    query = first[0], second[0]
    expected = model.rates_from_encodings(*model.assemble_pool_pairs(*query, first, second))
    fused = plan.rates_against_slab(*query, first.T, second.T)
    if not np.allclose(fused, expected, rtol=1e-3, atol=1e-5):
        raise RuntimeError("compiled float32 plan diverged beyond float32 rounding")

    plan.compile_seconds = time.perf_counter() - started
    return plan


def compile_and_attach(
    crn: CRNEstimator,
    *,
    recorder,
    estimator_name: str,
    generation: int,
) -> InferencePlan:
    """The plan hand-over: compile for ``crn``'s model, attach, emit the event.

    Build-time wiring and the lifecycle's pre-swap recompile both go through
    here; they differ only in the ``generation`` the plan will serve.
    """
    plan = compile_plan(crn.model)
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
