"""Unit tests for the CRN model architecture and estimator wrapper."""

import numpy as np
import pytest

from repro.core.crn import PASS_ROWS, CRNConfig, CRNEstimator, CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.sql.builder import QueryBuilder
from tests.autodiff import Tensor, crn_expand, crn_forward, track


def parameter_count(model: CRNModel) -> int:
    """Scalar learned parameters, counted over the model's parameter arrays."""
    return sum(parameter.data.size for parameter in model.parameters())


def _random_batch(vector_size: int, batch: int = 4, set_size: int = 5, seed: int = 0):
    rng = np.random.default_rng(seed)
    vectors = rng.random((batch, set_size, vector_size))
    mask = np.ones((batch, set_size, 1))
    mask[:, -1, 0] = 0.0  # one padded element per query
    return Tensor(vectors), Tensor(mask)


class TestConfig:
    def test_invalid_hidden_size(self):
        with pytest.raises(ValueError):
            CRNConfig(hidden_size=0)

    def test_invalid_pooling(self):
        with pytest.raises(ValueError):
            CRNConfig(pooling="max")


class TestModel:
    def test_output_shape_and_range(self):
        model = track(CRNModel(vector_size=20, config=CRNConfig(hidden_size=16, seed=1)))
        first, first_mask = _random_batch(20, seed=1)
        second, second_mask = _random_batch(20, seed=2)
        output = crn_forward(model, first, first_mask, second, second_mask).numpy()
        assert output.shape == (4,)
        assert np.all((output >= 0.0) & (output <= 1.0))

    def test_parameter_count_matches_paper_formula(self):
        # Section 3.5.3: with Expand, 2·L·H + 8·H² + 6·H + 1 learned parameters.
        for hidden, vector in ((16, 20), (32, 85)):
            model = CRNModel(vector_size=vector, config=CRNConfig(hidden_size=hidden))
            assert parameter_count(model) == 2 * vector * hidden + 8 * hidden**2 + 6 * hidden + 1

    def test_plain_concatenation_variant_parameter_count(self):
        # Without Expand the head's first layer reads 2H features, not 4H.
        model = CRNModel(vector_size=20, config=CRNConfig(hidden_size=16, use_expand=False))
        assert parameter_count(model) == 2 * 20 * 16 + 4 * 16**2 + 6 * 16 + 1

    def test_padding_does_not_change_output(self):
        """Averaging must ignore padded rows entirely."""
        model = track(CRNModel(vector_size=10, config=CRNConfig(hidden_size=8, seed=3)))
        rng = np.random.default_rng(5)
        vectors = rng.random((1, 3, 10))
        mask = np.ones((1, 3, 1))
        padded_vectors = np.concatenate([vectors, rng.random((1, 2, 10))], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((1, 2, 1))], axis=1)
        plain = crn_forward(
            model, Tensor(vectors), Tensor(mask), Tensor(vectors), Tensor(mask)
        ).numpy()
        padded = crn_forward(
            model,
            Tensor(padded_vectors),
            Tensor(padded_mask),
            Tensor(padded_vectors),
            Tensor(padded_mask),
        ).numpy()
        np.testing.assert_allclose(plain, padded, atol=1e-12)

    def test_sum_pooling_differs_from_average(self):
        first, first_mask = _random_batch(12, seed=7)
        second, second_mask = _random_batch(12, seed=8)
        average_model = track(CRNModel(12, CRNConfig(hidden_size=8, pooling="average", seed=2)))
        sum_model = track(CRNModel(12, CRNConfig(hidden_size=8, pooling="sum", seed=2)))
        average_out = crn_forward(average_model, first, first_mask, second, second_mask).numpy()
        sum_out = crn_forward(sum_model, first, first_mask, second, second_mask).numpy()
        assert not np.allclose(average_out, sum_out)

    def test_expand_feature_map(self):
        first = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        second = Tensor(np.array([[2.0, 2.0, 2.0, 2.0]]))
        expanded = crn_expand(first, second).numpy()
        np.testing.assert_allclose(
            expanded[0],
            [1, 2, 3, 4, 2, 2, 2, 2, 1, 0, 1, 2, 2, 4, 6, 8],
        )

    def test_invalid_vector_size(self):
        with pytest.raises(ValueError):
            CRNModel(vector_size=0)

    def test_gradients_flow_to_all_parameters(self):
        model = track(CRNModel(vector_size=10, config=CRNConfig(hidden_size=8, seed=4)))
        first, first_mask = _random_batch(10, seed=9)
        second, second_mask = _random_batch(10, seed=10)
        output = crn_forward(model, first, first_mask, second, second_mask).sum()
        output.backward()
        assert all(parameter.grad is not None for parameter in model.parameters())


class TestEstimator:
    def test_single_and_batch_estimates_agree(self, imdb_small, imdb_featurizer):
        model = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=6))
        estimator = CRNEstimator(model, imdb_featurizer)
        first = (
            QueryBuilder().table("title", "t").where("t.production_year", ">", 2000).build()
        )
        second = QueryBuilder().table("title", "t").build()
        single = estimator.estimate_containment(first, second)
        # More pairs than one PASS_ROWS tile, so the batch crosses a tile.
        batch = estimator.estimate_containments([(first, second)] * (PASS_ROWS + 1))
        assert all(value == pytest.approx(single) for value in batch)
        assert 0.0 <= single <= 1.0

    def test_vector_size_mismatch_rejected(self, imdb_featurizer):
        model = CRNModel(vector_size=imdb_featurizer.vector_size + 1, config=CRNConfig(hidden_size=8))
        with pytest.raises(ValueError):
            CRNEstimator(model, imdb_featurizer)
