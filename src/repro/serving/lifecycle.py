"""Adaptive model lifecycle: drift monitoring, background retraining, hot swaps.

The paper's Section 9 prescribes keeping CRN accurate under database change
via full or incremental retraining; :mod:`repro.extensions.updates`
implements both as offline functions.  This module closes the loop for a
*live* service: it watches the feedback window
(:class:`repro.serving.FeedbackCollector`), decides when the serving model
has drifted (:class:`DriftMonitor` over a :class:`DriftPolicy`), retrains in
the background while the dispatcher keeps serving, gates the candidate on a
held-out feedback slice, and promotes it with the zero-downtime swap
primitives (:meth:`repro.serving.EstimationService.replace`,
:meth:`repro.serving.EncodingCache.rebind`).

The adaptation cycle, end to end::

    feedback window ──DriftPolicy──▶ trigger
        │ (rolling p90 q-error / degradation vs baseline / row-count delta)
        ▼
    retrain (RetrainSession: incremental, escalating to full after
             repeated failures) + refresh_queries_pool
        ▼
    shadow-register candidate ──▶ validate on the most recent feedback
        │                          slice (post-update ground truth)
        ▼
    accept gate: candidate q-error ≤ accept_ratio × incumbent q-error
        ├── reject ──▶ unregister candidate, count it, cool down
        └── accept ──▶ rebind the shared encoding cache, pre-warm the
                       refreshed pool, replace() atomically, clear the
                       feedback window, re-baseline

Everything runs on one worker thread owned by :class:`AdaptationManager`
(started with :meth:`~AdaptationManager.start`); at most one retrain is in
flight at any time, policy-driven triggers respect a cooldown, and
:meth:`~AdaptationManager.trigger` / :meth:`~AdaptationManager.pause` give
operators manual control.  The swap itself never drops or corrupts an
in-flight request: in-flight batches finish on the estimator object they
resolved, and the encoding cache fences stale writers
(:meth:`repro.serving.EncodingCache.put` with ``owner=``), so the new model
can never be served an old model's encoding.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.crn import PASS_ROWS, CRNEstimator
from repro.core.metrics import q_errors
from repro.core.queries_pool import QueriesPool
from repro.core.training import TrainingConfig, TrainingResult
from repro.db.database import Database
from repro.extensions.updates import (
    RetrainProgress,
    RetrainSession,
    refresh_queries_pool,
)
from repro.observability.counters import Counters
from repro.observability.events import (
    AcceptGateDecision,
    DriftTrip,
    ModelSwap,
    PlanSwap,
)
from repro.serving.cache import FeaturizationCache
from repro.serving.feedback import FeedbackCollector
from repro.serving.inference_plan import compile_and_attach
from repro.serving.service import EstimationService


@dataclass(frozen=True)
class DriftPolicy:
    """When is the serving model considered stale?

    Any enabled condition firing marks the model as drifted.  The feedback
    conditions (absolute threshold, degradation ratio) only arm once the
    window holds ``min_observations``; the row-count condition needs no
    feedback at all — it reacts to the data changing under the model.

    Attributes:
        quantile: which rolling q-error quantile the feedback conditions
            watch (0.9 = the p90 the paper's tables report).
        max_q_error: absolute threshold on the watched quantile (None
            disables).
        degradation_ratio: fires when the watched quantile reaches this
            multiple of the baseline window's value (None disables).  The
            baseline freezes automatically from the first full window and
            re-freezes after every accepted swap, so the condition is
            self-calibrating: it compares the model against its own healthy
            self, not against a hand-tuned constant.
        max_row_delta: fires when the database's total row count has changed
            by more than this fraction since the last refresh (None
            disables).
        min_observations: feedback observations required before the q-error
            conditions arm (also the auto-baseline size).
        cooldown_seconds: minimum time between policy-driven adaptation
            attempts (manual triggers bypass it).
    """

    quantile: float = 0.9
    max_q_error: float | None = 10.0
    degradation_ratio: float | None = 2.0
    max_row_delta: float | None = None
    min_observations: int = 20
    cooldown_seconds: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must lie in (0, 1]")
        if self.max_q_error is not None and self.max_q_error < 1.0:
            raise ValueError("max_q_error must be >= 1 (q-errors never fall below 1)")
        if self.degradation_ratio is not None and self.degradation_ratio <= 1.0:
            raise ValueError("degradation_ratio must exceed 1")
        if self.max_row_delta is not None and self.max_row_delta <= 0.0:
            raise ValueError("max_row_delta must be positive")
        if self.min_observations <= 0:
            raise ValueError("min_observations must be positive")
        if self.cooldown_seconds < 0.0:
            raise ValueError("cooldown_seconds must be non-negative")


@dataclass(frozen=True)
class DriftVerdict:
    """One drift evaluation: did any policy condition fire, and why.

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
    """Evaluates a :class:`DriftPolicy` against a feedback window.

    The monitor owns the *baseline*: a frozen snapshot of the window's
    q-errors representing the model when it was last known healthy.  It
    freezes automatically the first time the window holds
    ``policy.min_observations`` and is cleared by :meth:`rebaseline` after a
    swap (freezing again from the new model's first full window).

    Thread-safety: evaluations may race recordings — the collector hands out
    consistent snapshots — and the baseline is guarded by the monitor lock,
    so the lifecycle worker and ad-hoc callers can share one monitor.

    Args:
        collector: the feedback window to watch.
        policy: the drift policy (defaults apply when omitted).
        estimator: restrict the watch to one registry name's observations
            (None watches everything).
    """

    def __init__(
        self,
        collector: FeedbackCollector,
        policy: DriftPolicy | None = None,
        estimator: str | None = None,
    ) -> None:
        self.collector = collector
        self.policy = policy or DriftPolicy()
        self.estimator = estimator
        if collector.max_observations < self.policy.min_observations:
            raise ValueError(
                f"the collector's window bound ({collector.max_observations}) is "
                f"smaller than the policy's min_observations "
                f"({self.policy.min_observations}): the q-error conditions could "
                f"never arm and the baseline would never freeze"
            )
        self._baseline_errors: tuple[float, ...] | None = None
        self._lock = threading.Lock()

    @property
    def baseline_frozen(self) -> bool:
        """Whether a baseline window is currently frozen."""
        with self._lock:
            return self._baseline_errors is not None

    def baseline_quantile(self, q: float | None = None) -> float:
        """The baseline's q-error quantile (policy quantile by default; NaN when unfrozen)."""
        with self._lock:
            errors = self._baseline_errors
        if not errors:
            return float("nan")
        quantile = q if q is not None else self.policy.quantile
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
        """Evaluate every enabled policy condition and explain the verdict.

        Args:
            current_rows: the database's total row count now (enables the
                row-delta condition together with ``rows_at_refresh``).
            rows_at_refresh: the total row count when the serving model was
                last (re)trained.
        """
        policy = self.policy
        errors = self.collector.window_errors(self.estimator)
        count = len(errors)
        observed = (
            float(np.quantile(np.asarray(errors, dtype=np.float64), policy.quantile))
            if count
            else float("nan")
        )
        # Never freeze a NaN-poisoned window as the healthy reference: a
        # diverged model emitting NaN estimates during the *first* full
        # window would otherwise bake a NaN baseline in forever (rebaseline
        # only runs after a swap, and a NaN baseline can never arm the
        # degradation condition that would cause one).
        if (
            count >= policy.min_observations
            and not np.isnan(observed)
            and not self.baseline_frozen
        ):
            self.freeze_baseline()
        baseline = self.baseline_quantile()
        label = f"p{policy.quantile * 100:.0f}"
        reasons: list[str] = []
        # A NaN quantile (empty window, or a NaN observation poisoning the
        # window — e.g. a diverged model emitting NaN estimates) is "no
        # signal", not "infinite error".  The q-error conditions require a
        # non-NaN reading *explicitly*: NaN comparisons happen to be False,
        # but a policy must not hinge on IEEE comparison semantics.
        if count >= policy.min_observations and not np.isnan(observed):
            if policy.max_q_error is not None and observed > policy.max_q_error:
                reasons.append(
                    f"rolling {label} q-error {observed:.2f} exceeds {policy.max_q_error:.2f}"
                )
            if (
                policy.degradation_ratio is not None
                and np.isfinite(baseline)
                and baseline > 0.0
                and observed >= policy.degradation_ratio * baseline
            ):
                reasons.append(
                    f"rolling {label} q-error {observed:.2f} degraded "
                    f"{observed / baseline:.2f}x vs baseline {baseline:.2f} "
                    f"(threshold {policy.degradation_ratio:.2f}x)"
                )
        row_delta = float("nan")
        if current_rows is not None and rows_at_refresh is not None and rows_at_refresh > 0:
            row_delta = abs(current_rows - rows_at_refresh) / rows_at_refresh
        if (
            policy.max_row_delta is not None
            and not np.isnan(row_delta)  # unknown row counts are "no signal"
            and row_delta > policy.max_row_delta
        ):
            reasons.append(
                f"row count changed {row_delta:.1%} since the last refresh "
                f"(threshold {policy.max_row_delta:.1%})"
            )
        return DriftVerdict(
            triggered=bool(reasons),
            reasons=tuple(reasons),
            q_error=observed,
            baseline_q_error=baseline,
            observations=count,
            row_delta=row_delta,
        )


class CRNRetrainer:
    """Builds retrained CRN candidates against the current database snapshot.

    The retrainer owns the mutable training state the lifecycle adapts:
    the last *accepted* :class:`TrainingResult`, the queries pool backing the
    serving estimator, and the database snapshot to label against.  When the
    operator applies a database update, :meth:`set_database` points the
    retrainer at the new snapshot; the drift policy then notices the model
    degrading (or the row count jumping) and the manager asks for candidates.

    Both retrain modes go through :class:`repro.extensions.RetrainSession`,
    so long retrains report per-epoch progress through ``on_progress``.
    Pair-generation seeds vary per attempt — a rejected candidate is not
    deterministically retried on the identical pair sample.

    Args:
        result: the currently-serving training result.
        database: the snapshot the serving model was trained against.
        pool: the queries pool backing the serving estimator.
        training_pairs: pairs generated per retrain attempt.
        incremental_epochs: epoch budget for incremental fine-tuning.
        full_epochs: epoch budget for a from-fresh-weights retrain.
        training_config: optimisation settings shared by both modes.
        seed: base pair-generation seed (varied per attempt).
        on_progress: per-epoch :class:`~repro.extensions.RetrainProgress`
            callback.
    """

    def __init__(
        self,
        result: TrainingResult,
        database: Database,
        pool: QueriesPool,
        training_pairs: int = 120,
        incremental_epochs: int = 4,
        full_epochs: int = 8,
        training_config: TrainingConfig | None = None,
        seed: int = 1,
        on_progress: Callable[[RetrainProgress], None] | None = None,
    ) -> None:
        if training_pairs <= 0:
            raise ValueError("training_pairs must be positive")
        if incremental_epochs <= 0 or full_epochs <= 0:
            raise ValueError("epoch budgets must be positive")
        self.training_pairs = training_pairs
        self.incremental_epochs = incremental_epochs
        self.full_epochs = full_epochs
        self.training_config = training_config
        self.on_progress = on_progress
        self._seed = seed
        self._attempts = 0
        self._result = result
        self._database = database
        self._pool = pool
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # accepted state

    @property
    def result(self) -> TrainingResult:
        """The currently-accepted training result."""
        with self._lock:
            return self._result

    @property
    def database(self) -> Database:
        """The current snapshot candidates are labelled against."""
        with self._lock:
            return self._database

    @property
    def pool(self) -> QueriesPool:
        """The currently-accepted queries pool."""
        with self._lock:
            return self._pool

    def set_database(self, database: Database) -> None:
        """Point the retrainer at an updated snapshot (the operator's hook)."""
        with self._lock:
            self._database = database

    def accept(self, result: TrainingResult, pool: QueriesPool) -> None:
        """Record a promoted candidate as the new accepted state."""
        with self._lock:
            self._result = result
            self._pool = pool

    # ------------------------------------------------------------------ #
    # candidate construction

    def incremental(self) -> TrainingResult:
        """Fine-tune the accepted weights on pairs from the current snapshot."""
        session = self._session(base_result=self.result)
        return session.run(self.incremental_epochs)

    def full(self) -> TrainingResult:
        """Train fresh weights (same architecture) on the current snapshot."""
        session = self._session(base_result=None)
        return session.run(self.full_epochs)

    def refresh_pool(self) -> QueriesPool:
        """Re-execute the accepted pool's queries on the current snapshot."""
        return refresh_queries_pool(self.pool, self.database)

    def _session(self, base_result: TrainingResult | None) -> RetrainSession:
        with self._lock:
            self._attempts += 1
            attempt = self._attempts
        return RetrainSession(
            self.database,
            base_result=base_result,
            training_pairs=self.training_pairs,
            crn_config=self.result.model.config,
            training_config=self.training_config,
            seed=self._seed + attempt,
            on_progress=self.on_progress,
        )


@dataclass(frozen=True)
class AdaptationOutcome:
    """What one adaptation cycle did.

    ``action`` is one of ``"idle"`` (policy quiet), ``"paused"``,
    ``"cooldown"``, ``"retrain-failed"``, ``"rejected"`` (the gate turned the
    candidate away), ``"promote-failed"`` (the swap itself failed; the
    incumbent keeps serving with its cache restored), ``"swapped"``, or
    ``"stopped"`` (the manager was stopped before a pending manual trigger's
    cycle could run).
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


class _ManualTrigger:
    """A pending operator trigger travelling to the worker thread."""

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: AdaptationOutcome | None = None


class AdaptationManager:
    """The background worker that keeps a serving CRN estimator fresh.

    Wires a :class:`DriftMonitor` (over a :class:`FeedbackCollector`), a
    :class:`CRNRetrainer`, and an :class:`EstimationService` into the
    self-correcting loop described in the module docstring.  ``start()``
    spawns one worker thread that evaluates the drift policy every
    ``poll_interval_seconds``; at most one adaptation cycle runs at any time
    (worker and manual triggers serialize on the cycle lock).

    Candidate validation is a *shadow deployment*: the candidate is
    registered under ``"<name>-candidate"``, served the most recent feedback
    slice through the ordinary batched path, compared against the incumbent's
    recorded errors on exactly those queries, then unregistered — promoted
    via :meth:`EstimationService.replace` only if it passes the gate.  With
    an empty window (e.g. a manual trigger before any feedback) the gate is
    skipped and the candidate promotes unconditionally.

    Failures never kill the worker: retrain, validation, and promote errors
    are counted in :attr:`stats`, the most recent exception is kept on
    :attr:`last_error`, and the incumbent keeps serving (a failure *during*
    the promote re-binds the shared encoding cache to the incumbent model so
    it is not left fenced out of its own cache).

    Args:
        service: the live estimation service.
        collector: the feedback window ground truth flows into.
        retrainer: builds candidates (and owns the accepted state).
        policy: drift policy (ignored when ``monitor`` is supplied).
        monitor: a pre-built monitor (built from ``policy`` when omitted).
        estimator_name: the registry entry to keep fresh (the service
            default when omitted); must resolve to a
            :class:`~repro.core.cnt2crd.Cnt2CrdEstimator` over a CRN.
        poll_interval_seconds: how often the worker evaluates the policy.
        holdout_size: most-recent observations used by the accept gate.
        accept_ratio: the candidate ships when its median holdout q-error is
            at most this multiple of the incumbent's (1.0 = must not be
            worse).
        max_incremental_failures: consecutive failed/rejected incremental
            attempts before escalating to a full retrain.
        warm_on_swap: pre-featurize/encode the refreshed pool through the
            shared caches before the swap, so the first post-swap requests
            hit warm caches.
    """

    def __init__(
        self,
        service: EstimationService,
        collector: FeedbackCollector,
        retrainer: CRNRetrainer,
        policy: DriftPolicy | None = None,
        monitor: DriftMonitor | None = None,
        estimator_name: str | None = None,
        poll_interval_seconds: float = 1.0,
        holdout_size: int = 16,
        accept_ratio: float = 1.0,
        max_incremental_failures: int = 2,
        warm_on_swap: bool = True,
    ) -> None:
        if poll_interval_seconds <= 0:
            raise ValueError("poll_interval_seconds must be positive")
        if holdout_size <= 0:
            raise ValueError("holdout_size must be positive")
        if accept_ratio <= 0:
            raise ValueError("accept_ratio must be positive")
        if max_incremental_failures < 0:
            raise ValueError("max_incremental_failures must be non-negative")
        self.service = service
        self.collector = collector
        self.retrainer = retrainer
        self.estimator_name = (
            estimator_name if estimator_name is not None else service.default_estimator
        )
        # The default monitor watches only the adapted estimator's feedback:
        # with several registry entries sharing one collector, another
        # estimator's errors must not fire (or mask) this estimator's drift.
        self.monitor = monitor or DriftMonitor(
            collector, policy, estimator=self.estimator_name
        )
        self.poll_interval_seconds = poll_interval_seconds
        self.holdout_size = holdout_size
        self.accept_ratio = accept_ratio
        self.max_incremental_failures = max_incremental_failures
        self.warm_on_swap = warm_on_swap
        # Counters, plus gauges describing the most recent retrain and swap.
        # The generation gauge starts from the live registry, so pre-swap
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
            model_generation=self.service.generation(self.estimator_name),
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
        self.artifact_store = None
        self.artifact_config_mapping: dict | None = None
        self.artifact_promote_on_save = True
        self._rows_at_refresh = retrainer.database.total_rows
        self._consecutive_failures = 0
        self._cooldown_until = 0.0
        self._clear_pending = False
        self._cycle_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._wake = threading.Event()
        self._stopped = False
        self._paused = False
        self._pending: list[_ManualTrigger] = []
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle of the lifecycle

    def start(self) -> "AdaptationManager":
        """Spawn the background worker (idempotent while running)."""
        with self._state_lock:
            if self._stopped:
                raise RuntimeError("adaptation manager has been stopped")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="adaptation-manager", daemon=True
                )
                self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop the worker after its current cycle completes.  Idempotent."""
        with self._state_lock:
            self._stopped = True
            self._wake.set()
            thread = self._thread
        if wait and thread is not None:
            thread.join()

    def __enter__(self) -> "AdaptationManager":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(wait=True)

    # ------------------------------------------------------------------ #
    # operator controls

    def attach_artifact_store(
        self, store, config_mapping, promote_on_save: bool = True
    ) -> None:
        """Persist every accepted candidate as a new artifact generation.

        After each successful hot swap the manager writes the promoted
        model + refreshed pool to ``store`` (an
        :class:`repro.artifacts.ArtifactStore`) under the swap's registry
        generation number, so the adapted model survives a client shutdown
        — a restart via :meth:`repro.serving.ServingClient.from_artifact`
        serves the promoted generation, not the originally-trained one.
        ``config_mapping`` is the serving config the bundle embeds
        (:meth:`repro.serving.ServingConfig.to_mapping`); with
        ``promote_on_save`` the store's ``latest`` pointer advances to each
        saved generation (leaving the prior one as the rollback target).

        A persistence failure is recorded (``artifact_save_failures``,
        :attr:`last_error`) but never fails the already-completed swap —
        the in-memory promote is authoritative; the snapshot is durability.
        """
        self.artifact_store = store
        self.artifact_config_mapping = dict(config_mapping)
        self.artifact_promote_on_save = bool(promote_on_save)

    def pause(self) -> None:
        """Suspend policy-driven adaptation (manual triggers still run)."""
        with self._state_lock:
            self._paused = True

    def resume(self) -> None:
        """Resume policy-driven adaptation."""
        with self._state_lock:
            self._paused = False

    @property
    def paused(self) -> bool:
        """Whether policy-driven adaptation is suspended."""
        with self._state_lock:
            return self._paused

    def trigger(
        self, wait: bool = True, timeout: float | None = None
    ) -> AdaptationOutcome | None:
        """Force one adaptation cycle, bypassing policy, cooldown, and pause.

        With a running worker the cycle executes on the worker thread
        (``wait=True`` blocks until it finishes and returns its outcome;
        ``wait=False`` returns None immediately).  Without one — the manager
        was never started, or already stopped — the cycle runs synchronously
        on the calling thread.

        Raises:
            TimeoutError: when ``wait`` expires before the cycle completes.
        """
        self.stats.add("manual_triggers")
        with self._state_lock:
            running = self._thread is not None and self._thread.is_alive() and not self._stopped
            if running:
                pending = _ManualTrigger()
                self._pending.append(pending)
                self._wake.set()
        if not running:
            return self.run_cycle(force=True)
        if not wait:
            return None
        if not pending.event.wait(timeout):
            raise TimeoutError("adaptation cycle did not complete within the timeout")
        return pending.outcome

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
        policy gate, the cooldown, and the pause flag.
        """
        with self._cycle_lock:
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
        verdict = self.monitor.evaluate(
            current_rows=self.retrainer.database.total_rows,
            rows_at_refresh=self._rows_at_refresh,
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
        policy = self.monitor.policy
        escalate = self._consecutive_failures >= self.max_incremental_failures
        mode = "full" if escalate else "incremental"
        if escalate:
            self.stats.add("escalations")
        started = time.perf_counter()
        try:
            candidate = self.retrainer.full() if escalate else self.retrainer.incremental()
            refreshed_pool = self.retrainer.refresh_pool()
            incumbent = self.service.get(self.estimator_name)
            shadow = self._build_estimator(candidate, refreshed_pool, incumbent, shared=False)
        except Exception as error:
            self.last_error = error
            seconds = time.perf_counter() - started
            self._consecutive_failures += 1
            self._count_retrain(mode, seconds, failed=True)
            self._cooldown_until = time.monotonic() + policy.cooldown_seconds
            return AdaptationOutcome("retrain-failed", mode, verdict, retrain_seconds=seconds)
        seconds = time.perf_counter() - started
        self._count_retrain(mode, seconds, failed=False)

        incumbent_q, candidate_q, accepted, holdout_count = self._validate(shadow)
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
            self._cooldown_until = time.monotonic() + policy.cooldown_seconds
            return AdaptationOutcome(
                "rejected", mode, verdict, incumbent_q, candidate_q, seconds
            )

        try:
            self._promote(candidate, refreshed_pool, incumbent)
        except Exception as error:
            # The promote path touches the shared encoding cache *before* the
            # registry swap; a failure in between (e.g. the estimator was
            # unregistered mid-cycle) must not leave the still-serving
            # incumbent fenced out of its own cache.  Re-bind it, count the
            # failure, and keep the worker alive.
            self.last_error = error
            if isinstance(incumbent.containment_estimator, CRNEstimator):
                if self.service.encoding_cache is not None:
                    self.service.encoding_cache.rebind(
                        incumbent.containment_estimator.model
                    )
                if self.service.pool_index is not None:
                    # Symmetric recovery: the index was already rebound to
                    # the candidate; hand it back (with the incumbent's pool)
                    # so the still-serving incumbent is not fenced out of its
                    # own fast path.  Slabs rebuild lazily from the cache.
                    self.service.pool_index.rebind(
                        incumbent.containment_estimator.model, pool=incumbent.pool
                    )
                incumbent_plan = getattr(
                    incumbent.containment_estimator, "inference_plan", None
                )
                if recorder is not None and incumbent_plan is not None:
                    # The incumbent's plan was never detached, so there is
                    # nothing to re-attach — the event records that the
                    # candidate's freshly compiled plan did NOT go live.
                    recorder.emit(
                        PlanSwap(
                            estimator_name=self.estimator_name,
                            generation=self.service.generation(self.estimator_name),
                            dtype=incumbent_plan.dtype.name,
                            outcome="rollback",
                        )
                    )
            self._consecutive_failures += 1
            self.stats.add("promote_failures")
            self._cooldown_until = time.monotonic() + policy.cooldown_seconds
            return AdaptationOutcome(
                "promote-failed", mode, verdict, incumbent_q, candidate_q, seconds
            )
        drained = self.service.drain_stats()
        # The drained interval includes the shadow validation's own
        # submissions; subtract them so the gauge attributes only real
        # traffic to the outgoing generation.
        generation = self.service.generation(self.estimator_name)
        requests_between = max(int(drained["requests"]) - holdout_count, 0)
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
            promoted = self.service.get(self.estimator_name)
            promoted_plan = getattr(
                promoted.containment_estimator, "inference_plan", None
            )
            if promoted_plan is not None:
                recorder.emit(
                    PlanSwap(
                        estimator_name=self.estimator_name,
                        generation=generation,
                        dtype=promoted_plan.dtype.name,
                        outcome="promoted",
                    )
                )
        if self.artifact_store is not None and self.artifact_config_mapping is not None:
            # Durability, not correctness: the swap already completed, so a
            # failed save is counted and kept for the operator but must not
            # convert a successful promote into a failed cycle.
            try:
                self.artifact_store.save(
                    model=candidate.model,
                    pool=refreshed_pool,
                    config_mapping=self.artifact_config_mapping,
                    generation=generation,
                    source="promote",
                    pool_index=self.service.pool_index,
                    promote=self.artifact_promote_on_save,
                )
            except Exception as error:
                self.last_error = error
                self.stats.update(artifact_saves=1, artifact_save_failures=1)
            else:
                self.stats.add("artifact_saves")
        self._consecutive_failures = 0
        self._rows_at_refresh = self.retrainer.database.total_rows
        self._cooldown_until = time.monotonic() + policy.cooldown_seconds
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
        """Shadow-deploy the candidate over the freshest feedback slice.

        Returns ``(incumbent q-error, candidate q-error, accepted, holdout
        size)``; both q-errors are NaN (and the gate is skipped) on an empty
        window.  The gate compares **median** holdout q-errors: on a small
        slice the arithmetic mean is owned by whichever near-zero-truth
        query happens to land in it, turning the accept decision into tail
        noise — the median compares how the two models serve the typical
        query.
        """
        # Only the adapted estimator's own observations grade the pair:
        # another registry entry's errors in the slice would corrupt the
        # incumbent's score (and could wave through a worse candidate).
        holdout = self.collector.holdout(
            self.holdout_size, estimator=self.estimator_name
        )
        if not holdout:
            return float("nan"), float("nan"), True, 0
        shadow_name = f"{self.estimator_name}-candidate"
        self.service.register(shadow_name, shadow)
        try:
            served = self.service.submit_batch(
                [item.query for item in holdout], estimator=shadow_name
            )
        except Exception as error:
            # A candidate that cannot even serve the holdout is rejected;
            # the exception is kept for the operator (last_error contract).
            self.last_error = error
            return float("nan"), float("nan"), False, len(holdout)
        finally:
            self.service.unregister(shadow_name)
        truths = [item.true_cardinality for item in holdout]
        candidate_q = float(
            np.median(
                q_errors(
                    [item.estimate for item in served],
                    truths,
                    epsilon=self.collector.epsilon,
                )
            )
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
        accepted = candidate_q <= self.accept_ratio * incumbent_q
        return incumbent_q, candidate_q, accepted, len(holdout)

    def _build_estimator(
        self,
        candidate: TrainingResult,
        pool: QueriesPool,
        incumbent,
        shared: bool,
    ) -> Cnt2CrdEstimator:
        """Assemble a serving estimator around ``candidate``.

        Mirrors the incumbent's configuration (final function, epsilon guard,
        slab size, built-in fallback).  ``shared=False`` builds against
        private caches for shadow validation; ``shared=True`` is the promote
        path — it rebinds the service's encoding cache to the candidate model
        (fencing stale writers from the outgoing model) and reuses it.
        """
        if not isinstance(incumbent, Cnt2CrdEstimator):
            raise TypeError(
                f"the adaptation manager can only refresh Cnt2Crd estimators; "
                f"{self.estimator_name!r} is {type(incumbent).__name__}"
            )
        containment = incumbent.containment_estimator
        batch_size = containment.batch_size if isinstance(containment, CRNEstimator) else PASS_ROWS
        # Carry the incumbent cache's LRU bound forward: a swap must not
        # silently turn an operator-bounded cache into an unbounded one.
        featurization_cache = FeaturizationCache(
            candidate.featurizer,
            max_entries=getattr(
                getattr(containment, "featurizer", None), "max_entries", None
            ),
        )
        encoding_cache = None
        if shared and self.service.encoding_cache is not None:
            self.service.encoding_cache.rebind(candidate.model)
            encoding_cache = self.service.encoding_cache
        pool_index = None
        if shared and self.service.pool_index is not None:
            # Same fence discipline as the encoding cache: drop the outgoing
            # model's slabs and retarget the refreshed pool atomically, so
            # in-flight old-model requests degrade to row-less slabs instead
            # of ever reading rows the candidate will own.
            self.service.pool_index.rebind(candidate.model, pool=pool)
            pool_index = self.service.pool_index
        crn = CRNEstimator(
            candidate.model,
            featurization_cache,
            batch_size=batch_size,
            encoding_cache=encoding_cache,
        )
        incumbent_plan = getattr(containment, "inference_plan", None)
        if shared and incumbent_plan is not None:
            # Plans freeze their head weights at compile time, so the
            # incumbent's plan cannot serve the candidate model: recompile
            # and attach *before* the registry swap ever exposes the new
            # estimator — the first post-swap request must already run the
            # compiled path.  Shadow builds
            # (shared=False) stay on the reference path: a rejected candidate
            # should not pay for a compile.
            compile_and_attach(
                crn,
                recorder=self.service.recorder,
                estimator_name=self.estimator_name,
                # replace() bumps the generation; this plan serves the
                # candidate's generation, not the incumbent's.
                generation=self.service.generation(self.estimator_name) + 1,
            )
        return Cnt2CrdEstimator(
            crn,
            pool,
            final_function=incumbent.final_function,
            epsilon=incumbent.epsilon,
            fallback=incumbent.fallback,
            pool_index=pool_index,
        )

    def _promote(
        self,
        candidate: TrainingResult,
        pool: QueriesPool,
        incumbent: Cnt2CrdEstimator,
    ) -> None:
        """Atomically swap the candidate in; the dispatcher keeps serving.

        Order matters: the shared encoding cache is rebound (cleared + fenced
        against the outgoing model's in-flight writers) *before* the new
        estimator is built on it, the refreshed pool is pre-warmed through
        the shared caches, and only then does :meth:`EstimationService.replace`
        make the candidate visible — in-flight batches finish on the
        incumbent object, every later submission resolves the candidate.
        """
        tracer = self.service.tracer
        span = (
            tracer.begin("model_swap", estimator_name=self.estimator_name)
            if tracer is not None
            else None
        )
        try:
            estimator = self._build_estimator(candidate, pool, incumbent, shared=True)
            containment = estimator.containment_estimator
            if self.warm_on_swap and estimator.pool_index is not None:
                # Rebuild the whole-pool encoding matrices (and the caches)
                # with the candidate model *before* the registry swap: the
                # first post-swap request then scores against warm slabs
                # instead of paying a full per-signature re-encoding stall.
                estimator.pool_index.warm(estimator)
            elif self.warm_on_swap:
                containment.warm(entry.query for entry in pool)
            self.service.replace(self.estimator_name, estimator)
        finally:
            if span is not None:
                tracer.end(
                    span,
                    generation=self.service.generation(self.estimator_name),
                    warmed=self.warm_on_swap,
                )
        # The containment estimator's featurizer IS the new FeaturizationCache
        # (built in _build_estimator); point the service's reporting handle at it.
        self.service.featurization_cache = containment.featurizer
        self.retrainer.accept(candidate, pool)

    # ------------------------------------------------------------------ #
    # worker thread

    def _run(self) -> None:
        while True:
            self._wake.wait(self.poll_interval_seconds)
            self._wake.clear()
            with self._state_lock:
                stopped = self._stopped
                pending, self._pending = self._pending, []
            if stopped:
                # Never leave a waiting trigger() hanging across stop() —
                # and keep its documented always-an-outcome contract.
                for item in pending:
                    item.outcome = AdaptationOutcome("stopped", None, None)
                    item.event.set()
                return
            if pending:
                try:
                    outcome = self.run_cycle(force=True)
                    for item in pending:
                        item.outcome = outcome
                except Exception as error:  # pragma: no cover - defensive
                    self.last_error = error
                finally:
                    # A cycle bug must neither strand trigger(wait=True)
                    # callers nor kill the worker.
                    for item in pending:
                        item.event.set()
                continue
            if not self.paused:
                try:
                    self.run_cycle(force=False)
                except Exception as error:  # pragma: no cover - defensive
                    # _adapt guards its own failure modes; anything reaching
                    # here is a cycle bug.  Record it and keep adapting —
                    # a dead worker would silently freeze the lifecycle.
                    self.last_error = error
