"""Value tests for the functional interface."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F


class TestActivations:
    def test_relu(self):
        np.testing.assert_allclose(F.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_leaky_relu_negative_slope(self):
        np.testing.assert_allclose(
            F.leaky_relu(Tensor([-2.0, 2.0]), 0.1).data, [-0.2, 2.0]
        )

    def test_sigmoid_bounds(self):
        values = F.sigmoid(Tensor(np.linspace(-10, 10, 21))).data
        assert (values > 0).all() and (values < 1).all()

    def test_softplus_positive_and_close_to_relu_for_large_x(self):
        values = F.softplus(Tensor([-50.0, 0.0, 50.0])).data
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(50.0, rel=1e-6)

    def test_elu_negative_branch(self):
        assert F.elu(Tensor([-100.0])).data[0] == pytest.approx(-1.0, rel=1e-4)

    def test_gelu_zero(self):
        assert F.gelu(Tensor([0.0])).data[0] == pytest.approx(0.0)


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        out = F.softmax(Tensor(np.random.default_rng(0).normal(size=(4, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_is_shift_invariant(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        np.testing.assert_allclose(
            F.softmax(Tensor(x)).data, F.softmax(Tensor(x + 100.0)).data, atol=1e-12
        )

    def test_softmax_handles_large_values(self):
        out = F.softmax(Tensor([1000.0, 1000.0])).data
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )


class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_identity_when_rate_zero(self):
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(F.dropout(x, 0.0, training=True).data, x.data)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.5, training=True)

    def test_float32_input_stays_float32_under_the_float64_default(self):
        x = Tensor(np.ones((50, 50), dtype=np.float32), dtype=np.float32)
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        assert out.data.dtype == np.float32
        assert set(np.unique(out.data)) == {0.0, 2.0}


class TestSimilarityHelpers:
    def test_l2_normalize_unit_norm(self):
        out = F.l2_normalize(Tensor(np.random.default_rng(3).normal(size=(5, 8))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), np.ones(5), rtol=1e-6)

    def test_cosine_similarity_identical_vectors(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 6)))
        np.testing.assert_allclose(F.cosine_similarity(x, x).data, np.ones(3), rtol=1e-6)

    def test_cosine_similarity_opposite_vectors(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 6)))
        np.testing.assert_allclose(
            F.cosine_similarity(x, x * -1.0).data, -np.ones(3), rtol=1e-6
        )

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out.data, [[1, 0, 0], [0, 0, 1]])

    def test_linear_interpolate_endpoints(self):
        a, b = Tensor([1.0]), Tensor([3.0])
        assert F.linear_interpolate(a, b, 1.0).data[0] == 1.0
        assert F.linear_interpolate(a, b, 0.0).data[0] == 3.0
        assert F.linear_interpolate(a, b, 0.5).data[0] == 2.0
