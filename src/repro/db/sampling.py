"""Materialized base-table samples and their predicate bitmaps.

The paper's strongest MSCN variant ("MSCN with 1000 samples", Section 6.6)
augments the table one-hot vectors with a bitmap describing which rows of a
materialized per-table sample satisfy the query's predicates on that table.
This module provides those samples, and also powers the simple
random-sampling cardinality baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.sql.query import Predicate


@dataclass
class TableSample:
    """A uniform sample of one base table.

    Attributes:
        table_name: the sampled table.
        row_ids: sampled row ids in the base table.
        sample_size: the nominal sample size (bitmaps are padded to this size
            when the table has fewer rows than requested).
    """

    table_name: str
    row_ids: np.ndarray
    sample_size: int

    @property
    def actual_size(self) -> int:
        """Number of rows actually sampled (≤ ``sample_size``)."""
        return int(len(self.row_ids))


class SampleCatalog:
    """Per-table materialized samples for a database snapshot."""

    def __init__(self, database: Database, samples: dict[str, TableSample], sample_size: int) -> None:
        self._database = database
        self._samples = samples
        self.sample_size = sample_size

    @classmethod
    def build(cls, database: Database, sample_size: int = 1000, seed: int = 0) -> "SampleCatalog":
        """Draw a uniform sample of ``sample_size`` rows from every table."""
        rng = np.random.default_rng(seed)
        samples: dict[str, TableSample] = {}
        for table_name in database.table_names:
            table = database.table(table_name)
            row_ids = table.sample_row_ids(sample_size, rng)
            samples[table_name] = TableSample(table_name=table_name, row_ids=row_ids, sample_size=sample_size)
        return cls(database, samples, sample_size)

    def sample(self, table_name: str) -> TableSample:
        """Return the sample for ``table_name``."""
        if table_name not in self._samples:
            raise KeyError(f"no sample for table {table_name!r}")
        return self._samples[table_name]

    def bitmap(self, table_name: str, predicates: tuple[Predicate, ...]) -> np.ndarray:
        """Bitmap (length ``sample_size``) of sample rows satisfying ``predicates``.

        Positions beyond the table's actual sample size are zero-padded, so all
        bitmaps share the same length regardless of table size.
        """
        sample = self.sample(table_name)
        table = self._database.table(table_name)
        bitmap = np.zeros(self.sample_size, dtype=np.float64)
        mask = np.ones(sample.actual_size, dtype=bool)
        for predicate in predicates:
            mask &= table.evaluate_predicate(predicate, sample.row_ids)
        bitmap[: sample.actual_size] = mask.astype(np.float64)
        return bitmap

    def selectivity(self, table_name: str, predicates: tuple[Predicate, ...]) -> float:
        """Sample-estimated selectivity of a conjunction of predicates on one table."""
        sample = self.sample(table_name)
        if sample.actual_size == 0:
            return 0.0
        bitmap = self.bitmap(table_name, predicates)
        return float(bitmap[: sample.actual_size].mean())
