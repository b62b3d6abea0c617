"""Dataset utilities: train/validation splitting and mini-batch iteration."""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

import numpy as np

ItemT = TypeVar("ItemT")


def train_validation_split(
    items: Sequence[ItemT],
    validation_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[list[ItemT], list[ItemT]]:
    """Shuffle ``items`` and split into train / validation lists.

    The paper uses an 80%/20% split of the generated pairs (Section 3.1.2).

    A nonzero ``validation_fraction`` guarantees a nonzero validation set
    whenever a split is possible (``len(items) > 1``): rounding small
    datasets down to an empty validation set would silently make early
    stopping validate on the training data.  Symmetrically, the training
    side always keeps at least one item.
    """
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    validation_size = int(round(len(items) * validation_fraction))
    if validation_fraction > 0.0 and len(items) > 1:
        validation_size = min(max(validation_size, 1), len(items) - 1)
    validation_idx = set(order[:validation_size].tolist())
    train = [items[i] for i in range(len(items)) if i not in validation_idx]
    validation = [items[i] for i in range(len(items)) if i in validation_idx]
    return train, validation


class BatchIterator:
    """Yields shuffled mini-batches of indices, epoch after epoch."""

    def __init__(self, num_items: int, batch_size: int, seed: int = 0) -> None:
        if num_items <= 0:
            raise ValueError("cannot iterate over an empty dataset")
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.num_items = num_items
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

    def permutation(self) -> np.ndarray:
        """The next epoch's shuffled order, whole: what :meth:`epoch` slices."""
        return self._rng.permutation(self.num_items)

    def epoch(self) -> Iterator[np.ndarray]:
        """Yield index arrays covering the dataset once, in shuffled order."""
        order = self.permutation()
        for start in range(0, self.num_items, self.batch_size):
            yield order[start : start + self.batch_size]
