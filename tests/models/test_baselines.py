"""Tests for the baseline models of Table III."""

import numpy as np
import pytest

from repro.exceptions import DataError, ShapeError
from repro.models.baselines import (
    AGCRN,
    ARIMAForecaster,
    HistoricalAverageForecaster,
    MTGNN,
    STGCN,
    STGODE,
)
from repro.models.baselines.stgcn import ChebGraphConv
from repro.models.baselines.stgode import GraphODEBlock
from repro.nn.losses import mae_loss
from repro.nn.optim import Adam
from repro.tensor import Tensor

DEEP_BASELINES = [STGCN, MTGNN, AGCRN, STGODE]


@pytest.mark.parametrize("baseline_cls", DEEP_BASELINES)
class TestDeepBaselines:
    def _build(self, baseline_cls, network):
        return baseline_cls(network, in_channels=2, input_steps=12, output_steps=1,
                            out_channels=1, hidden_dim=8, rng=0)

    def test_forward_shape(self, baseline_cls, small_network, rng):
        model = self._build(baseline_cls, small_network)
        x = Tensor(rng.normal(size=(3, 12, small_network.num_nodes, 2)))
        assert model(x).shape == (3, 1, small_network.num_nodes, 1)

    def test_has_trainable_parameters(self, baseline_cls, small_network):
        model = self._build(baseline_cls, small_network)
        assert model.num_parameters() > 0

    def test_one_step_of_training_reduces_loss(self, baseline_cls, small_network, rng):
        model = self._build(baseline_cls, small_network)
        model.eval()
        x = Tensor(rng.normal(size=(8, 12, small_network.num_nodes, 2)))
        y = Tensor(rng.normal(size=(8, 1, small_network.num_nodes, 1)) * 0.1)
        optimizer = Adam(model.parameters(), lr=5e-3)
        before = mae_loss(model(x), y)
        model.zero_grad()
        before.backward()
        optimizer.step()
        after = mae_loss(model(x), y)
        assert after.item() <= before.item() + 1e-9

    def test_rejects_wrong_channels(self, baseline_cls, small_network, rng):
        model = self._build(baseline_cls, small_network)
        with pytest.raises(ShapeError):
            model(Tensor(rng.normal(size=(2, 12, small_network.num_nodes, 5))))


class TestComponents:
    def test_cheb_conv_shape(self, small_network, rng):
        conv = ChebGraphConv(3, 5, small_network.adjacency, order=3, rng=0)
        x = Tensor(rng.normal(size=(2, 4, small_network.num_nodes, 3)))
        assert conv(x).shape == (2, 4, small_network.num_nodes, 5)

    def test_cheb_conv_builds_fused_stack_once(self, small_network, rng, monkeypatch):
        from repro.graph import sparse as gs
        from repro.models.baselines import stgcn

        with gs.spatial_mode("sparse"):
            conv = ChebGraphConv(3, 5, small_network.adjacency, order=3, rng=0)
        assert conv._fused is not None and conv._fused.count == 2

        def no_rebuild(*args, **kwargs):
            raise AssertionError("forward rebuilt a Chebyshev stack")

        monkeypatch.setattr(stgcn, "fuse_supports", no_rebuild)
        monkeypatch.setattr(stgcn, "transpose_csr", no_rebuild)
        x = Tensor(rng.normal(size=(2, 4, small_network.num_nodes, 3)))
        first = conv(x).data
        np.testing.assert_array_equal(conv(x).data, first)

    def test_cheb_conv_invalid_order(self, small_network):
        with pytest.raises(ValueError):
            ChebGraphConv(3, 5, small_network.adjacency, order=0)

    def test_graph_ode_block_preserves_shape(self, small_network, rng):
        block = GraphODEBlock(4, small_network.adjacency, integration_steps=3, rng=0)
        x = Tensor(rng.normal(size=(2, 6, small_network.num_nodes, 4)))
        assert block(x).shape == x.shape

    def test_graph_ode_block_invalid_steps(self, small_network):
        with pytest.raises(ValueError):
            GraphODEBlock(4, small_network.adjacency, integration_steps=0)


class TestHistoricalAverage:
    def test_predicts_window_mean(self, rng):
        model = HistoricalAverageForecaster(output_steps=2)
        inputs = rng.normal(size=(3, 12, 5))
        predictions = model.fit(None).predict(inputs)
        assert predictions.shape == (3, 2, 5)
        np.testing.assert_allclose(predictions[:, 0], inputs.mean(axis=1))


class TestARIMA:
    @pytest.fixture
    def trending_series(self, rng):
        time = np.arange(300)
        base = 50 + 5 * np.sin(2 * np.pi * time / 24.0)
        return base[:, None] + rng.normal(0, 0.5, size=(300, 6))

    def test_fit_predict_shapes(self, trending_series, rng):
        model = ARIMAForecaster(order_p=4, output_steps=1).fit(trending_series)
        predictions = model.predict(trending_series[-20:][None].repeat(3, axis=0)[:, :12])
        assert predictions.shape == (3, 1, 6)

    def test_beats_last_value_on_smooth_series(self, trending_series):
        model = ARIMAForecaster(order_p=6).fit(trending_series[:250])
        windows = np.stack([trending_series[i : i + 12] for i in range(250, 280)])
        targets = np.stack([trending_series[i + 12] for i in range(250, 280)])
        predictions = model.predict(windows)[:, 0]
        arima_error = np.abs(predictions - targets).mean()
        naive_error = np.abs(windows[:, -1] - targets).mean()
        assert arima_error <= naive_error * 1.5

    def test_multi_step_forecast(self, trending_series):
        model = ARIMAForecaster(order_p=4, output_steps=3).fit(trending_series)
        predictions = model.predict(trending_series[:12][None])
        assert predictions.shape == (1, 3, 6)

    def test_without_differencing(self, trending_series):
        model = ARIMAForecaster(order_p=4, difference=False).fit(trending_series)
        assert np.isfinite(model.predict(trending_series[:12][None])).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(DataError):
            ARIMAForecaster().predict(np.zeros((1, 12, 3)))

    def test_fit_rejects_short_series(self):
        with pytest.raises(DataError):
            ARIMAForecaster(order_p=10).fit(np.zeros((5, 3)))

    def test_fit_rejects_bad_rank(self):
        with pytest.raises(DataError):
            ARIMAForecaster().fit(np.zeros((100, 3, 2)))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            ARIMAForecaster(order_p=0)
