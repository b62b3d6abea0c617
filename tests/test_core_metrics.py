"""Unit tests for q-error metrics and percentile summaries."""

import numpy as np
import pytest

from repro.core.metrics import ErrorSummary, q_error, q_errors, summarize_by_group


class TestQError:
    def test_exact_estimate_gives_one(self):
        assert q_error(42.0, 42.0) == pytest.approx(1.0)

    def test_symmetric_over_and_under_estimation(self):
        assert q_error(10.0, 100.0) == pytest.approx(10.0)
        assert q_error(100.0, 10.0) == pytest.approx(10.0)

    def test_zero_truth_clamped_by_epsilon(self):
        assert q_error(5.0, 0.0, epsilon=1.0) == pytest.approx(5.0)
        assert np.isfinite(q_error(5.0, 0.0, epsilon=1e-9))

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        estimates = rng.uniform(0.1, 1000, size=200)
        truths = rng.uniform(0.1, 1000, size=200)
        assert np.all(q_errors(estimates, truths) >= 1.0)

    def test_vectorized_matches_scalar(self):
        estimates = [1.0, 10.0, 0.5]
        truths = [2.0, 5.0, 0.5]
        vector = q_errors(estimates, truths)
        for index, (estimate, truth) in enumerate(zip(estimates, truths)):
            assert vector[index] == pytest.approx(q_error(estimate, truth))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q_errors([1.0, 2.0], [1.0])


class TestErrorSummary:
    def test_percentiles_and_extremes(self):
        errors = list(np.arange(1, 101, dtype=float))
        summary = ErrorSummary.from_errors("model", errors)
        assert summary.count == 100
        assert summary.max == 100.0
        assert summary.mean == pytest.approx(50.5)
        assert summary.percentiles[50] == pytest.approx(np.percentile(errors, 50))
        assert summary.percentiles[99] == pytest.approx(np.percentile(errors, 99))

    def test_from_errors_of_q_errors(self):
        summary = ErrorSummary.from_errors("model", q_errors([10.0, 20.0], [10.0, 10.0]))
        assert summary.max == pytest.approx(2.0)

    def test_empty_errors_rejected(self):
        with pytest.raises(ValueError):
            ErrorSummary.from_errors("model", [])

    def test_row_layout_matches_paper_columns(self):
        summary = ErrorSummary.from_errors("model", [1.0, 2.0, 3.0])
        assert list(summary.row()) == ["50th", "75th", "90th", "95th", "99th", "max", "mean"]

    def test_str_contains_name_and_mean(self):
        text = str(ErrorSummary.from_errors("my-model", [2.0, 4.0]))
        assert "my-model" in text and "mean=3" in text


class TestGroupedSummaries:
    def test_groups_by_join_count(self):
        estimates = [1.0, 2.0, 10.0, 100.0]
        truths = [1.0, 1.0, 1.0, 1.0]
        groups = [0, 0, 1, 1]
        summaries = summarize_by_group("model", estimates, truths, groups)
        assert set(summaries) == {0, 1}
        assert summaries[0].mean == pytest.approx(1.5)
        assert summaries[1].mean == pytest.approx(55.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            summarize_by_group("model", [1.0], [1.0], [0, 1])
