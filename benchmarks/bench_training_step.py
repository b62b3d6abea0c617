"""The set-up path the paper's deployment starts with: label, train (Section 3.3).

``setup_s`` of the repo benchmark is ``build_training_pairs`` → ``train_crn``
→ ``build_queries_pool_queries``.  This benchmark records those costs at the
bench world's size (``bench/world.py``: 1000 titles, 1500 pairs, H=64, 15
epochs), and the same for the MSCN baseline trained on that world's pairs
(``mscn_training_set``), as ``repro`` trajectory rows:

* ``training_step_speedup`` — seconds of one reference optimisation step
  (the autodiff CRN of ``tests/autodiff.py`` on the padded batch, its loss,
  ``Tensor.backward`` and per-parameter ``Adam.step``: the loop
  ``train_crn`` ran before the fused step) over seconds of one
  :meth:`CRNTrainer.step` on the same 64-pair batch from the same weights.
  The fused step runs the two set encoders on the batch's distinct feature
  rows (a :class:`RaggedPairs` side is ids into a vocabulary of distinct
  rows), pools through one ``(pairs, distinct rows)`` multiplicity matrix
  and un-pools through its transpose; the reference encodes every padded
  row.  The reference side is given its padded batch ready-made; the old
  loop also gathered it.
* ``mscn_training_step_speedup`` — the same ratio for MSCN: the autodiff
  MSCN step (the loop ``train_mscn`` ran before) over one
  :meth:`MSCNTrainer.step`, on the same 64-query batch of the padded
  training layout from the same weights.  Both run the same GEMMs; the
  fused step saves the graph.
* ``train_crn_seconds`` / ``train_mscn_seconds`` — one whole ``train_crn`` /
  ``train_mscn`` (H=64, batch 64, the world's epochs).
* ``label_seconds`` — the three oracle-labelled draws of ``paper_pool``
  (1500 training pairs, a 300-query pool, 1000 requests) on a fresh oracle;
  query generation is part of it.

The speedups are ratios, so ``bench_report.py check --only speedup`` gates
them.  Both sides of a ratio are medians of alternating repetitions (small
GEMMs are bimodal on a shared box).  Smoke mode (``REPRO_SMOKE=1``, used by
CI) shrinks the world and only requires each fused step not to be slower.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.baselines.mscn import (
    CardinalityNormalizer,
    MSCNConfig,
    MSCNFeaturizer,
    MSCNModel,
    MSCNTrainer,
    MSCNTrainingConfig,
    train_mscn,
)
from repro.core import CRNConfig, CRNModel, QueryFeaturizer, TrainingConfig, train_crn
from repro.core.training import CRNTrainer, RaggedPairs
from repro.datasets import (
    SyntheticIMDbConfig,
    build_queries_pool_queries,
    build_synthetic_imdb,
    build_training_pairs,
)
from repro.datasets.pairs import mscn_training_set
from repro.db import TrueCardinalityOracle
from tests.autodiff import (
    Adam,
    Tensor,
    crn_forward,
    log_q_error_loss,
    mscn_loss,
    pad_sets,
    track,
    zero_grad,
)

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
SEED = 11  # bench/world.py's default seed
TITLES, PAIRS, EPOCHS = (300, 300, 3) if SMOKE else (1000, 1500, 15)
POOL, REQUESTS = (60, 200) if SMOKE else (300, 1000)
HIDDEN_SIZE, BATCH = 64, 64
REPETITIONS = 15 if SMOKE else 60
REQUIRED_SPEEDUP = 1.0 if SMOKE else 1.5
REQUIRED_MSCN_SPEEDUP = 1.0 if SMOKE else 1.2


def median_speedup(reference_step, fused_step) -> tuple[float, float, float]:
    """Median seconds of each step over alternating repetitions, and their ratio."""
    timings: dict[str, list[float]] = {"reference": [], "fused": []}
    for _ in range(REPETITIONS):
        for name, step in (("reference", reference_step), ("fused", fused_step)):
            started = time.perf_counter()
            step()
            timings[name].append(time.perf_counter() - started)
    reference_seconds = statistics.median(timings["reference"])
    fused_seconds = statistics.median(timings["fused"])
    return reference_seconds, fused_seconds, reference_seconds / fused_seconds


def test_training_step_and_setup_costs(results_dir, bench_record):
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=TITLES, seed=SEED))
    featurizer = QueryFeaturizer(database)
    oracle = TrueCardinalityOracle(database)

    started = time.perf_counter()
    pairs = build_training_pairs(database, PAIRS, seed=SEED + 1, oracle=oracle)
    build_queries_pool_queries(database, count=POOL, seed=SEED * 1000 + 1, oracle=oracle)
    build_queries_pool_queries(
        database, count=REQUESTS, seed=SEED * 1000 + 2, oracle=oracle, include_frames=False
    )
    label_seconds = time.perf_counter() - started

    crn_config = CRNConfig(hidden_size=HIDDEN_SIZE, seed=SEED)
    config = TrainingConfig(epochs=EPOCHS, batch_size=BATCH, seed=SEED)
    started = time.perf_counter()
    result = train_crn(featurizer, pairs, crn_config, config)
    train_seconds = time.perf_counter() - started
    assert result.epochs_run == EPOCHS

    # One batch, the same starting weights, two ways to take a step.
    batch = pairs[:BATCH]
    targets = Tensor(np.asarray([pair.containment_rate for pair in batch]))
    padded = (
        *pad_sets([featurizer.featurize(pair.first) for pair in batch]),
        *pad_sets([featurizer.featurize(pair.second) for pair in batch]),
    )
    reference_model = track(CRNModel(featurizer.vector_size, crn_config))
    optimizer = Adam(reference_model.parameters(), learning_rate=config.learning_rate)

    def reference_step() -> float:
        predictions = crn_forward(reference_model, *padded)
        loss = log_q_error_loss(predictions, targets, epsilon=config.loss_epsilon)
        zero_grad(reference_model)
        loss.backward()
        optimizer.step()
        return loss.item()

    trainer = CRNTrainer(CRNModel(featurizer.vector_size, crn_config), config)
    data = RaggedPairs.featurize(featurizer, batch)

    def fused_step() -> float:
        return trainer.step(data, 0, BATCH)

    assert abs(reference_step() - fused_step()) < 1e-12  # same loss: same batch, same weights
    reference_seconds, fused_seconds, speedup = median_speedup(reference_step, fused_step)

    # MSCN on the world's pairs: one whole train_mscn, then one batch two ways.
    labelled = mscn_training_set(database, pairs, oracle=oracle)
    mscn_config = MSCNConfig(hidden_size=HIDDEN_SIZE, seed=SEED)
    started = time.perf_counter()
    mscn_result = train_mscn(
        database,
        labelled,
        mscn_config,
        MSCNTrainingConfig(epochs=EPOCHS, batch_size=BATCH, seed=SEED),
    )
    train_mscn_seconds = time.perf_counter() - started
    assert mscn_result.history

    mscn_featurizer = MSCNFeaturizer(database, mscn_config)
    normalizer = CardinalityNormalizer.fit([item.cardinality for item in labelled])
    layout = mscn_featurizer.featurize_batch([item.query for item in labelled])
    mscn_batch = [part[:BATCH] for part in layout]
    cardinalities = np.asarray([item.cardinality for item in labelled[:BATCH]], dtype=float)
    sizes = (
        mscn_featurizer.table_vector_size,
        mscn_featurizer.join_vector_size,
        mscn_featurizer.predicate_vector_size,
    )
    reference_mscn = track(MSCNModel(*sizes, mscn_config))
    mscn_optimizer = Adam(reference_mscn.parameters(), learning_rate=config.learning_rate)

    def reference_mscn_step() -> float:
        loss = mscn_loss(reference_mscn, normalizer, mscn_batch, cardinalities)
        zero_grad(reference_mscn)
        loss.backward()
        mscn_optimizer.step()
        return loss.item()

    mscn_trainer = MSCNTrainer(MSCNModel(*sizes, mscn_config), normalizer, config.learning_rate)

    def fused_mscn_step() -> float:
        return mscn_trainer.step(mscn_batch, cardinalities)

    assert abs(reference_mscn_step() - fused_mscn_step()) < 1e-12
    mscn_reference_seconds, mscn_fused_seconds, mscn_speedup = median_speedup(
        reference_mscn_step, fused_mscn_step
    )

    for metric, value, units, higher_is_better in (
        ("training_step_speedup", speedup, "x", True),
        ("mscn_training_step_speedup", mscn_speedup, "x", True),
        ("train_crn_seconds", train_seconds, "s", False),
        ("train_mscn_seconds", train_mscn_seconds, "s", False),
        ("label_seconds", label_seconds, "s", False),
    ):
        bench_record("repro", "bench_training_step", metric, value, units, higher_is_better)
    report = "\n".join(
        [
            f"training step (H={HIDDEN_SIZE}, batch {BATCH}, median of {REPETITIONS} alternating)"
            + (" (smoke)" if SMOKE else ""),
            f"  CRN reference autodiff step   {reference_seconds * 1000:8.3f} ms",
            f"  CRN fused step                {fused_seconds * 1000:8.3f} ms   {speedup:.2f}x",
            f"  MSCN reference autodiff step  {mscn_reference_seconds * 1000:8.3f} ms",
            f"  MSCN fused step               {mscn_fused_seconds * 1000:8.3f} ms   "
            f"{mscn_speedup:.2f}x",
            f"train_crn ({PAIRS} pairs, {EPOCHS} epochs)      {train_seconds:8.3f} s",
            f"train_mscn ({len(labelled)} queries, {EPOCHS} epochs) {train_mscn_seconds:8.3f} s",
            f"labelling ({PAIRS} pairs + {POOL} + {REQUESTS} queries) {label_seconds:8.3f} s",
        ]
    )
    (results_dir / "training_step.txt").write_text(report + "\n")
    print(f"\n{report}\n")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected the fused step to be >= {REQUIRED_SPEEDUP}x the autodiff step, measured "
        f"{speedup:.2f}x ({reference_seconds * 1000:.3f} ms vs {fused_seconds * 1000:.3f} ms)"
    )
    assert mscn_speedup >= REQUIRED_MSCN_SPEEDUP, (
        f"expected the fused MSCN step to be >= {REQUIRED_MSCN_SPEEDUP}x the autodiff step, "
        f"measured {mscn_speedup:.2f}x ({mscn_reference_seconds * 1000:.3f} ms vs "
        f"{mscn_fused_seconds * 1000:.3f} ms)"
    )
