"""Adaptive model lifecycle: drift monitoring, background retraining, hot swaps.

The paper's Section 9 prescribes keeping CRN accurate under database change
via full or incremental retraining; :mod:`repro.extensions.updates`
implements both as offline functions.  This module closes the loop for a
*live* service: it watches the feedback window
(:class:`repro.serving.FeedbackCollector`), decides when the serving model
has drifted (:class:`DriftMonitor`), retrains in the background while the
dispatcher keeps serving, gates the candidate on a held-out feedback slice,
and promotes it with the zero-downtime swap primitive
:meth:`repro.serving.EstimationService.replace`.  One
:class:`repro.serving.AdaptationConfig` holds every knob of the loop.

The adaptation cycle, end to end::

    feedback window ──drift conditions──▶ trigger
        │ (rolling p90 q-error / degradation vs baseline / row-count delta)
        ▼
    retrain (incremental_update, escalating to retrain_from_scratch
             after repeated failures) + refresh_queries_pool
        ▼
    shadow candidate (never served) ──▶ score the most recent feedback
        │                                slice (post-update ground truth)
        ▼
    accept gate: candidate q-error ≤ accept_ratio × incumbent q-error
        ├── reject ──▶ count it, cool down
        └── accept ──▶ wire the candidate as boot does (its own caches,
                       plan and pool index), warm its index, replace()
                       atomically, clear the feedback window, re-baseline

One object owns the loop, :class:`AdaptationManager`: the accepted model,
pool and database snapshot, the retrain attempts, and the worker thread
(started with :meth:`~AdaptationManager.start`) that runs policy-driven
cycles under a cooldown.  :meth:`~AdaptationManager.trigger` runs a forced
cycle on the caller's thread and :meth:`~AdaptationManager.pause` suspends
the policy; the worker's cycles and triggers serialize on one lock, so at
most one retrain is in flight at any time.  The swap itself never drops or
corrupts an in-flight request: a model's caches and index slabs live and die
with its estimator, so in-flight batches finish on the estimator object they
resolved, on its own encodings, and the new model never sees one of the old
model's.  Until the outgoing estimator is released, both models' slabs are
in memory: up to twice the slab memory, for the promote window only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.metrics import q_errors
from repro.core.queries_pool import QueriesPool
from repro.core.training import TrainingResult
from repro.datasets.workloads import build_training_pairs
from repro.db.database import Database
from repro.extensions.updates import (
    incremental_update,
    refresh_queries_pool,
    retrain_from_scratch,
)
from repro.observability.counters import Counters
from repro.observability.events import (
    AcceptGateDecision,
    DriftTrip,
    ModelSwap,
    PlanSwap,
)
from repro.serving.config import AdaptationConfig
from repro.serving.errors import ServingError
from repro.serving.feedback import FeedbackCollector
from repro.serving.service import ESTIMATOR_NAME
from repro.serving.stack import ServiceStack, wire_estimator


@dataclass(frozen=True)
class DriftVerdict:
    """One drift evaluation: did any drift condition fire, and why.

    Attributes:
        triggered: True when at least one condition fired.
        reasons: human-readable description of every fired condition.
        q_error: the watched rolling quantile (NaN with an empty window).
        baseline_q_error: the frozen baseline's quantile (NaN before the
            baseline exists).
        observations: feedback observations in the window.
        row_delta: fractional row-count change since the last refresh (NaN
            when unknown).
    """

    triggered: bool
    reasons: tuple[str, ...]
    q_error: float
    baseline_q_error: float
    observations: int
    row_delta: float


class DriftMonitor:
    """Evaluates an :class:`AdaptationConfig`'s drift conditions on a feedback window.

    The monitor owns the *baseline*: a frozen snapshot of the window's
    q-errors representing the model when it was last known healthy.  It
    freezes automatically the first time the window holds
    ``config.min_observations`` and is cleared by :meth:`rebaseline` after a
    swap (freezing again from the new model's first full window).

    Thread-safety: evaluations may race recordings — the collector hands out
    consistent snapshots — and the baseline is guarded by the monitor lock,
    so the lifecycle worker and ad-hoc callers can share one monitor.

    Args:
        collector: the feedback window to watch.
        config: the drift conditions (defaults apply when omitted).
        estimator: restrict the watch to observations stamped with this
            estimator name (None watches everything).
    """

    def __init__(
        self,
        collector: FeedbackCollector,
        config: AdaptationConfig | None = None,
        estimator: str | None = None,
    ) -> None:
        self.collector = collector
        self.config = config or AdaptationConfig()
        self.estimator = estimator
        if collector.max_observations < self.config.min_observations:
            raise ValueError(
                f"the collector's window bound ({collector.max_observations}) is smaller "
                f"than min_observations ({self.config.min_observations}): the q-error "
                f"conditions could never arm and the baseline would never freeze"
            )
        self._baseline_errors: tuple[float, ...] | None = None
        self._lock = threading.Lock()

    @property
    def baseline_frozen(self) -> bool:
        """Whether a baseline window is currently frozen."""
        with self._lock:
            return self._baseline_errors is not None

    def baseline_quantile(self, q: float | None = None) -> float:
        """The baseline's q-error quantile (``config.quantile`` by default; NaN when unfrozen)."""
        with self._lock:
            errors = self._baseline_errors
        if not errors:
            return float("nan")
        quantile = q if q is not None else self.config.quantile
        return float(np.quantile(np.asarray(errors, dtype=np.float64), quantile))

    def freeze_baseline(self) -> None:
        """Snapshot the current window as the healthy reference (no-op when empty)."""
        errors = self.collector.window_errors(self.estimator)
        if not errors:
            return
        with self._lock:
            self._baseline_errors = tuple(errors)

    def rebaseline(self) -> None:
        """Drop the frozen baseline (it re-freezes from the next full window)."""
        with self._lock:
            self._baseline_errors = None

    def evaluate(
        self,
        current_rows: int | None = None,
        rows_at_refresh: int | None = None,
    ) -> DriftVerdict:
        """Evaluate every enabled drift condition and explain the verdict.

        Args:
            current_rows: the database's total row count now (enables the
                row-delta condition together with ``rows_at_refresh``).
            rows_at_refresh: the total row count when the serving model was
                last (re)trained.
        """
        config = self.config
        errors = self.collector.window_errors(self.estimator)
        count = len(errors)
        observed = (
            float(np.quantile(np.asarray(errors, dtype=np.float64), config.quantile))
            if count
            else float("nan")
        )
        # Never freeze a NaN-poisoned window as the healthy reference: a
        # diverged model emitting NaN estimates during the *first* full
        # window would otherwise bake a NaN baseline in forever (rebaseline
        # only runs after a swap, and a NaN baseline can never arm the
        # degradation condition that would cause one).
        if (
            count >= config.min_observations
            and not np.isnan(observed)
            and not self.baseline_frozen
        ):
            self.freeze_baseline()
        baseline = self.baseline_quantile()
        label = f"p{config.quantile * 100:.0f}"
        reasons: list[str] = []
        # A NaN quantile (empty window, or a NaN observation poisoning the
        # window — e.g. a diverged model emitting NaN estimates) is "no
        # signal", not "infinite error".  The q-error conditions require a
        # non-NaN reading *explicitly*: NaN comparisons happen to be False,
        # but a drift condition must not hinge on IEEE comparison semantics.
        if count >= config.min_observations and not np.isnan(observed):
            if config.max_q_error is not None and observed > config.max_q_error:
                reasons.append(
                    f"rolling {label} q-error {observed:.2f} exceeds {config.max_q_error:.2f}"
                )
            if (
                config.degradation_ratio is not None
                and np.isfinite(baseline)
                and baseline > 0.0
                and observed >= config.degradation_ratio * baseline
            ):
                reasons.append(
                    f"rolling {label} q-error {observed:.2f} degraded "
                    f"{observed / baseline:.2f}x vs baseline {baseline:.2f} "
                    f"(threshold {config.degradation_ratio:.2f}x)"
                )
        row_delta = float("nan")
        if current_rows is not None and rows_at_refresh is not None and rows_at_refresh > 0:
            row_delta = abs(current_rows - rows_at_refresh) / rows_at_refresh
        if (
            config.max_row_delta is not None
            and not np.isnan(row_delta)  # unknown row counts are "no signal"
            and row_delta > config.max_row_delta
        ):
            reasons.append(
                f"row count changed {row_delta:.1%} since the last refresh "
                f"(threshold {config.max_row_delta:.1%})"
            )
        return DriftVerdict(
            triggered=bool(reasons),
            reasons=tuple(reasons),
            q_error=observed,
            baseline_q_error=baseline,
            observations=count,
            row_delta=row_delta,
        )


@dataclass(frozen=True)
class AdaptationOutcome:
    """What one adaptation cycle did.

    ``action`` is one of ``"idle"`` (policy quiet), ``"paused"``,
    ``"cooldown"``, ``"retrain-failed"``, ``"rejected"`` (the gate turned the
    candidate away), ``"promote-failed"`` (the swap itself failed; the
    incumbent, untouched, keeps serving) or ``"swapped"``.
    """

    action: str
    mode: str | None
    verdict: DriftVerdict | None
    incumbent_q_error: float = float("nan")
    candidate_q_error: float = float("nan")
    retrain_seconds: float = 0.0

    @property
    def swapped(self) -> bool:
        """Whether the cycle promoted a new model."""
        return self.action == "swapped"


class AdaptationManager:
    """The background worker that keeps a serving CRN estimator fresh.

    Wires a :class:`DriftMonitor` (over a :class:`FeedbackCollector`) and a
    wired :class:`~repro.serving.ServiceStack` into the self-correcting loop
    described in the module docstring.  ``start()`` spawns one worker thread
    that evaluates the drift conditions every ``poll_interval_seconds``; at
    most one adaptation cycle runs at any time (the worker's cycles and
    manual triggers serialize on the cycle lock).  The knobs are the stack
    config's ``adaptation`` section, and the refreshed entry is the stack's
    Cnt2Crd estimator (``"crn"``).

    The manager owns the state it adapts: the last *accepted*
    :class:`TrainingResult`, the queries pool behind the served estimator
    and the database snapshot to label against, all read from the stack
    config at construction.  When the operator applies a database update,
    :meth:`set_database` points the manager at the new snapshot; the drift
    conditions then notice the model degrading (or the row count jumping).
    Attempt ``n`` (counted from 1, across both modes) trains on
    ``training_pairs`` pairs drawn from the current snapshot at seed
    ``seed + n``: :func:`~repro.extensions.incremental_update` from the
    accepted weights, or, after ``max_incremental_failures`` consecutive
    failures, :func:`~repro.extensions.retrain_from_scratch` of the accepted
    architecture.  Both run with the default
    :class:`~repro.core.TrainingConfig` for the section's epoch budget.

    Candidate validation is a *shadow deployment* that never touches the
    service: the candidate estimator scores the most recent feedback slice
    itself (in one batched scoring pass, the bits ``estimate_cardinality``
    gives, with the service's fallback answering what the pool cannot), and
    its q-errors are compared against the incumbent's recorded errors on
    exactly those queries — it is promoted via
    :meth:`EstimationService.replace` only if it passes the gate.  No
    request reaches it and none of its work lands in the service's
    counters, latency histogram or events.  With
    an empty window (e.g. a manual trigger before any feedback) the gate is
    skipped and the candidate promotes unconditionally.  Both the shadow and
    the promoted estimator are wired from the stack's config by
    :func:`~repro.serving.stack.wire_estimator`, exactly as boot wires the
    first one.

    Failures never kill the worker: retrain, validation, and promote errors
    are counted in :attr:`stats`, the most recent exception is kept on
    :attr:`last_error`, and the incumbent keeps serving (a failure *during*
    the promote leaves it untouched: the candidate was wired on caches and
    an index of its own).

    Args:
        stack: the wired deployment whose served estimator is kept fresh;
            its config must carry ``training_result`` and ``database``.
        collector: the feedback window ground truth flows into.
        artifact_store: an :class:`repro.artifacts.ArtifactStore` that every
            promoted candidate is saved to, under the generation
            its swap produced, so a restart through
            :meth:`repro.serving.ServingClient.from_artifact` serves the
            adapted model.  A failed save is counted
            (``artifact_save_failures``, :attr:`last_error`) but never fails
            the swap, which already completed.
    """

    def __init__(
        self,
        stack: ServiceStack,
        collector: FeedbackCollector,
        *,
        artifact_store=None,
    ) -> None:
        config = stack.config
        if config.training_result is None or config.database is None:
            raise ValueError(
                "adaptation needs the stack config's training_result and database: "
                "retrains fine-tune the accepted weights against the current snapshot"
            )
        self.stack = stack
        self.service = stack.service
        self.config = config.adaptation
        self.estimator_name = ESTIMATOR_NAME
        self.collector = collector
        self.artifact_store = artifact_store
        # The monitor watches only the adapted estimator's feedback: the
        # fallback's answers share the collector, and their errors must not
        # fire (or mask) this estimator's drift.
        self.monitor = DriftMonitor(collector, self.config, estimator=self.estimator_name)
        # Counters, plus gauges describing the most recent retrain and swap.
        # The generation gauge starts from the live service, so pre-swap
        # snapshots agree with the generation stamped on every response.
        self.stats = Counters(
            evaluations=0,
            drift_triggers=0,
            manual_triggers=0,
            retrains=0,
            incremental_retrains=0,
            full_retrains=0,
            retrain_failures=0,
            promote_failures=0,
            escalations=0,
            candidates_rejected=0,
            swaps=0,
            total_retrain_seconds=0.0,
            last_retrain_seconds=0.0,
            pre_swap_q_error=float("nan"),
            post_swap_q_error=float("nan"),
            requests_between_swaps=0,
            model_generation=self.service.generation,
            artifact_saves=0,
            artifact_save_failures=0,
            gauges=(
                "last_retrain_seconds",
                "pre_swap_q_error",
                "post_swap_q_error",
                "requests_between_swaps",
                "model_generation",
            ),
        )
        self.last_outcome: AdaptationOutcome | None = None
        self.last_error: BaseException | None = None
        self._result: TrainingResult = config.training_result
        self._database: Database = config.database
        self._pool: QueriesPool = config.pool
        self._attempts = 0
        #: The service's cumulative request count at the last swap (at
        #: construction before the first): ``requests_between_swaps`` is the
        #: difference of two such reads.  Cycle-lock state.
        self._requests_at_swap = self.service.stats.requests
        self._rows_at_refresh = config.database.total_rows
        self._consecutive_failures = 0
        self._cooldown_until = 0.0
        self._clear_pending = False
        self._cycle_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._wake = threading.Event()
        self._stopped = False
        self._paused = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle of the lifecycle

    def start(self) -> "AdaptationManager":
        """Spawn the background worker (idempotent while running)."""
        with self._state_lock:
            self._ensure_running()
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="adaptation-manager", daemon=True
                )
                self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop the worker.  Idempotent, and final.

        With ``wait`` it returns once the worker has exited and no cycle is
        running on any thread (a :meth:`trigger` on another thread included).
        From then on every other entry point raises
        :class:`~repro.serving.ServingError`; only :attr:`paused`,
        :meth:`stats_snapshot` and ``stop`` itself still answer.
        """
        with self._state_lock:
            self._stopped = True
            self._wake.set()
            thread = self._thread
        if not wait:
            return
        if thread is not None:
            thread.join()
        with self._cycle_lock:
            pass

    def _ensure_running(self) -> None:
        """Refuse every entry point but the read-only ones after :meth:`stop`
        (called with ``_state_lock`` held): a stopped manager never retrains,
        swaps or changes state again."""
        if self._stopped:
            raise ServingError("adaptation manager has been stopped")

    def __enter__(self) -> "AdaptationManager":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(wait=True)

    # ------------------------------------------------------------------ #
    # operator controls

    def set_database(self, database: Database) -> None:
        """Point retrains at an updated snapshot (the operator's hook).

        The next cycle's row-count condition compares against it, and every
        later candidate is labelled against it.
        """
        with self._state_lock:
            self._ensure_running()
            self._database = database

    def pause(self) -> None:
        """Suspend policy-driven adaptation (manual triggers still run)."""
        with self._state_lock:
            self._ensure_running()
            self._paused = True

    def resume(self) -> None:
        """Resume policy-driven adaptation."""
        with self._state_lock:
            self._ensure_running()
            self._paused = False

    @property
    def paused(self) -> bool:
        """Whether policy-driven adaptation is suspended."""
        with self._state_lock:
            return self._paused

    def trigger(self) -> AdaptationOutcome:
        """Run one adaptation cycle on the calling thread, bypassing the drift
        conditions, the cooldown and the pause flag.

        It waits for a cycle already running (the worker's, or another
        trigger's) and returns the outcome of its own.  After :meth:`stop` it
        raises :class:`~repro.serving.ServingError` and runs nothing.
        """
        with self._state_lock:
            self._ensure_running()
        self.stats.add("manual_triggers")
        return self.run_cycle(force=True)

    def stats_snapshot(self) -> dict[str, float]:
        """The adaptation counters and gauges, for
        :func:`repro.evaluation.format_service_stats`."""
        values = self.stats.snapshot()
        retrains = values["retrains"]
        snapshot = {}
        for name, value in values.items():
            if name == "total_retrain_seconds":
                snapshot["mean_retrain_seconds"] = value / retrains if retrains else 0.0
            else:
                snapshot[name] = float(value)
        return snapshot

    # ------------------------------------------------------------------ #
    # the adaptation cycle

    def run_cycle(self, force: bool = False) -> AdaptationOutcome:
        """Run one evaluate→retrain→validate→swap cycle synchronously.

        The cycle lock guarantees a single in-flight retrain: concurrent
        callers (worker plus manual) serialize here.  ``force`` skips the
        drift conditions, the cooldown, and the pause flag.  After
        :meth:`stop` it raises :class:`~repro.serving.ServingError`, also
        when the stop lands while it waits for the cycle lock.
        """
        outcome = self._cycle(force)
        if outcome is None:
            raise ServingError("adaptation manager has been stopped")
        return outcome

    def _cycle(self, force: bool) -> AdaptationOutcome | None:
        """One cycle under the cycle lock, or ``None`` (running nothing) once
        :meth:`stop` was called."""
        with self._cycle_lock:
            with self._state_lock:
                if self._stopped:
                    return None
            outcome = self._cycle_locked(force)
        self.last_outcome = outcome
        return outcome

    def _cycle_locked(self, force: bool) -> AdaptationOutcome:
        if self._clear_pending:
            # Second sweep after a swap: feedback for estimates that were in
            # flight on the outgoing model can land *after* the swap-time
            # clear (replace() lets those batches finish).  Clearing again on
            # the next cycle — one poll interval later — keeps the stale
            # errors out of the new model's window and its auto-frozen
            # baseline.
            self.collector.clear()
            self._clear_pending = False
        with self._state_lock:
            database = self._database
        verdict = self.monitor.evaluate(
            current_rows=database.total_rows, rows_at_refresh=self._rows_at_refresh
        )
        self.stats.update(evaluations=1, drift_triggers=int(verdict.triggered))
        recorder = self.service.recorder
        if recorder is not None and verdict.triggered:
            recorder.emit(
                DriftTrip(
                    estimator_name=self.estimator_name,
                    q_error=verdict.q_error,
                    baseline_q_error=verdict.baseline_q_error,
                    observations=verdict.observations,
                    row_delta=verdict.row_delta,
                    reasons=verdict.reasons,
                )
            )
        if not force:
            if self.paused:
                return AdaptationOutcome("paused", None, verdict)
            if not verdict.triggered:
                return AdaptationOutcome("idle", None, verdict)
            if time.monotonic() < self._cooldown_until:
                return AdaptationOutcome("cooldown", None, verdict)
        return self._adapt(verdict)

    def _adapt(self, verdict: DriftVerdict) -> AdaptationOutcome:
        cooldown = self.config.cooldown_seconds
        escalate = self._consecutive_failures >= self.config.max_incremental_failures
        mode = "full" if escalate else "incremental"
        if escalate:
            self.stats.add("escalations")
        with self._state_lock:
            self._attempts += 1
            attempt, accepted = self._attempts, self._result
            database, pool = self._database, self._pool
        started = time.perf_counter()
        try:
            pairs = build_training_pairs(
                database, count=self.config.training_pairs, seed=self.config.seed + attempt
            )
            if escalate:
                candidate = retrain_from_scratch(
                    database, pairs, accepted.model.config, epochs=self.config.full_epochs
                )
            else:
                candidate = incremental_update(
                    accepted, database, pairs, epochs=self.config.incremental_epochs
                )
            refreshed_pool = refresh_queries_pool(pool, database)
            incumbent = self.service.estimator
            # Its own caches and index, no plan, no recorder or tracer: the
            # shadow scores only the holdout and stays invisible.
            shadow = wire_estimator(
                self.stack.config, candidate.model, candidate.featurizer, refreshed_pool
            )
        except Exception as error:
            self.last_error = error
            seconds = time.perf_counter() - started
            self._consecutive_failures += 1
            self._count_retrain(mode, seconds, failed=True)
            self._cooldown_until = time.monotonic() + cooldown
            return AdaptationOutcome("retrain-failed", mode, verdict, retrain_seconds=seconds)
        seconds = time.perf_counter() - started
        self._count_retrain(mode, seconds, failed=False)

        incumbent_q, candidate_q, accepted, holdout_count = self._validate(shadow)
        del shadow  # its slabs need not outlive the gate
        recorder = self.service.recorder
        # holdout_count == 0 means the gate was skipped (empty window):
        # an unconditional promotion is not a gate decision, so no event.
        if recorder is not None and holdout_count:
            recorder.emit(
                AcceptGateDecision(
                    estimator_name=self.estimator_name,
                    accepted=accepted,
                    incumbent_q_error=incumbent_q,
                    candidate_q_error=candidate_q,
                    holdout_size=holdout_count,
                    mode=mode,
                )
            )
        if not accepted:
            self._consecutive_failures += 1
            self.stats.add("candidates_rejected")
            self._cooldown_until = time.monotonic() + cooldown
            return AdaptationOutcome(
                "rejected", mode, verdict, incumbent_q, candidate_q, seconds
            )

        try:
            promoted = self._promote(candidate, refreshed_pool)
        except Exception as error:
            # The incumbent was never touched: count, keep adapting.
            self.last_error = error
            crn = incumbent.containment_estimator
            if recorder is not None and crn.inference_plan is not None:
                # The incumbent's plan was never detached, so there is
                # nothing to re-attach — the event records that the
                # candidate's freshly compiled plan did NOT go live.
                recorder.emit(
                    PlanSwap(
                        estimator_name=self.estimator_name,
                        generation=self.service.generation,
                        dtype=crn.inference_plan.dtype.name,
                        outcome="rollback",
                    )
                )
            self._consecutive_failures += 1
            self.stats.add("promote_failures")
            self._cooldown_until = time.monotonic() + cooldown
            return AdaptationOutcome(
                "promote-failed", mode, verdict, incumbent_q, candidate_q, seconds
            )
        requests = self.service.stats.requests
        requests_between = int(requests - self._requests_at_swap)
        self._requests_at_swap = requests
        generation = self.service.generation
        self.stats.update(
            swaps=1,
            pre_swap_q_error=incumbent_q,
            post_swap_q_error=candidate_q,
            requests_between_swaps=requests_between,
            model_generation=generation,
        )
        if recorder is not None:
            recorder.emit(
                ModelSwap(
                    estimator_name=self.estimator_name,
                    generation=generation,
                    pre_swap_q_error=incumbent_q,
                    post_swap_q_error=candidate_q,
                    requests_between_swaps=requests_between,
                    mode=mode,
                    retrain_seconds=seconds,
                )
            )
            promoted_plan = promoted.containment_estimator.inference_plan
            if promoted_plan is not None:
                recorder.emit(
                    PlanSwap(
                        estimator_name=self.estimator_name,
                        generation=generation,
                        dtype=promoted_plan.dtype.name,
                        outcome="promoted",
                    )
                )
        if self.artifact_store is not None:
            # Durability, not correctness: the swap already completed, so a
            # failed save is counted and kept for the operator but must not
            # convert a successful promote into a failed cycle.
            try:
                self.artifact_store.save(
                    model=candidate.model,
                    pool=refreshed_pool,
                    config_mapping=self.stack.config.to_mapping(),
                    generation=generation,
                    source="promote",
                    pool_index=promoted.pool_index,
                    promote=True,
                )
            except Exception as error:
                self.last_error = error
                self.stats.update(artifact_saves=1, artifact_save_failures=1)
            else:
                self.stats.add("artifact_saves")
        self._consecutive_failures = 0
        self._rows_at_refresh = database.total_rows
        self._cooldown_until = time.monotonic() + cooldown
        self.collector.clear()
        self._clear_pending = True
        self.monitor.rebaseline()
        return AdaptationOutcome(
            "swapped", mode, verdict, incumbent_q, candidate_q, seconds
        )

    def _count_retrain(self, mode: str, seconds: float, failed: bool) -> None:
        """Count one retrain attempt of ``mode`` taking ``seconds``."""
        full = mode == "full"
        self.stats.update(
            retrains=1,
            full_retrains=int(full),
            incremental_retrains=int(not full),
            retrain_failures=int(failed),
            total_retrain_seconds=seconds,
            last_retrain_seconds=seconds,
        )

    def _validate(self, shadow: Cnt2CrdEstimator) -> tuple[float, float, bool, int]:
        """Score the candidate over the freshest feedback slice.

        Returns ``(incumbent q-error, candidate q-error, accepted, holdout
        size)``; both q-errors are NaN (and the gate is skipped) on an empty
        window.  The gate compares **median** holdout q-errors: on a small
        slice the arithmetic mean is owned by whichever near-zero-truth
        query happens to land in it, turning the accept decision into tail
        noise — the median compares how the two models serve the typical
        query.
        """
        # Only the adapted estimator's own observations grade the pair: the
        # fallback's errors in the slice would corrupt the incumbent's score
        # (and could wave through a worse candidate).
        holdout = self.collector.holdout(
            self.config.holdout_size, estimator=self.estimator_name
        )
        if not holdout:
            return float("nan"), float("nan"), True, 0
        try:
            # The service's fallback answers what the refreshed pool cannot.
            shadow.fallback = self.service.fallback
            # The core batch routine: each distinct matched query is scored
            # once, each estimate with the bits of shadow.estimate_cardinality.
            estimates = shadow.estimate_cardinalities([item.query for item in holdout])
        except Exception as error:
            # A candidate that cannot even score the holdout is rejected;
            # the exception is kept for the operator (last_error contract).
            self.last_error = error
            return float("nan"), float("nan"), False, len(holdout)
        truths = [item.true_cardinality for item in holdout]
        candidate_q = float(
            np.median(q_errors(estimates, truths, epsilon=self.collector.epsilon))
        )
        incumbent_q = float(np.median([item.q_error for item in holdout]))
        if np.isnan(candidate_q) or np.isnan(incumbent_q):
            # NaN medians (NaN estimates from a diverged candidate, or NaN
            # observations in the window) are "no signal": reject explicitly
            # instead of letting the always-False NaN comparison decide —
            # which would also, by accident, reject on a NaN *incumbent*
            # where promoting a finite candidate might look tempting but
            # would ship a model validated against nothing.
            return incumbent_q, candidate_q, False, len(holdout)
        accepted = candidate_q <= self.config.accept_ratio * incumbent_q
        return incumbent_q, candidate_q, accepted, len(holdout)

    def _promote(
        self, candidate: TrainingResult, pool: QueriesPool
    ) -> Cnt2CrdEstimator:
        """Atomically swap the candidate in; the dispatcher keeps serving.

        The candidate is wired as boot wires an estimator — its own caches,
        its plan (in a compiled deployment) and a pool index over the
        refreshed pool — and its index is warmed, so the first post-swap
        request scores against warm slabs.  Only then does
        :meth:`EstimationService.replace` make the candidate visible:
        in-flight batches finish on the incumbent object and its own slabs,
        every later submission resolves the candidate.  Returns the promoted
        estimator.
        """
        tracer = self.service.tracer
        span = (
            tracer.begin("model_swap", estimator_name=self.estimator_name)
            if tracer is not None
            else None
        )
        try:
            estimator = wire_estimator(
                self.stack.config,
                candidate.model,
                candidate.featurizer,
                pool,
                recorder=self.service.recorder,
                tracer=tracer,
                # replace() bumps the generation; the plan serves the
                # candidate's generation, not the incumbent's.
                generation=self.service.generation + 1,
            )
            estimator.pool_index.warm()
            self.service.replace(estimator)
        finally:
            if span is not None:
                tracer.end(
                    span,
                    generation=self.service.generation,
                    warmed=True,
                )
        with self._state_lock:
            self._result, self._pool = candidate, pool
        return estimator

    # ------------------------------------------------------------------ #
    # worker thread

    def _run(self) -> None:
        while True:
            self._wake.wait(self.config.poll_interval_seconds)
            self._wake.clear()
            with self._state_lock:
                stopped, paused = self._stopped, self._paused
            if stopped:
                return
            if not paused:
                try:
                    # None: stop() landed after the check above; the next
                    # pass returns.
                    self._cycle(force=False)
                except Exception as error:  # pragma: no cover - defensive
                    # _adapt guards its own failure modes; anything reaching
                    # here is a cycle bug.  Record it and keep adapting —
                    # a dead worker would silently freeze the lifecycle.
                    self.last_error = error
