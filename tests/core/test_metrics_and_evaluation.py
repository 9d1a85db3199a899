"""Tests for metrics and the evaluation helpers."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import TrainingConfig
from repro.core.evaluation import (
    collect_predictions,
    evaluate_after_set,
    evaluate_classical,
    evaluate_classical_on_sets,
    evaluate_model,
    evaluate_model_on_sets,
)
from repro.core.metrics import PredictionMetrics, compute_metrics, mae, mape, rmse
from repro.data import MinMaxScaler, STDataset
from repro.exceptions import ShapeError
from repro.models.baselines import HistoricalAverageForecaster
from repro.models.graphwavenet import GraphWaveNetBackbone
from repro.tensor import program_cache_stats, traced_execution


class TestMetrics:
    def test_mae_value(self):
        assert mae(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.5)

    def test_rmse_value(self):
        assert rmse(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(np.sqrt(2.5))

    def test_rmse_ge_mae(self, rng):
        prediction = rng.normal(size=100)
        target = rng.normal(size=100)
        assert rmse(prediction, target) >= mae(prediction, target)

    def test_mape_ignores_near_zero_targets(self):
        value = mape(np.array([1.0, 5.0]), np.array([2.0, 0.0]))
        assert value == pytest.approx(50.0)

    def test_mape_all_zero_targets_is_nan(self):
        # MAPE is undefined when every target is masked out; returning 0.0
        # would silently report a perfect score on a degenerate set.
        assert np.isnan(mape(np.array([1.0]), np.array([0.0])))

    def test_perfect_prediction_is_zero(self, rng):
        values = rng.normal(size=(5, 4))
        metrics = compute_metrics(values, values)
        assert metrics.mae == 0.0 and metrics.rmse == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            mae(np.zeros(3), np.zeros(4))

    def test_compute_metrics_bundle(self, rng):
        metrics = compute_metrics(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
        assert isinstance(metrics, PredictionMetrics)
        assert metrics.num_samples == 6
        assert set(metrics.as_dict()) == {"mae", "rmse", "mape", "num_samples"}
        assert "MAE" in str(metrics)


@settings(max_examples=25, deadline=None)
@given(
    arrays(dtype=np.float64, shape=(20,),
           elements=st.floats(min_value=-100, max_value=100, allow_nan=False)),
    arrays(dtype=np.float64, shape=(20,),
           elements=st.floats(min_value=-100, max_value=100, allow_nan=False)),
)
def test_metric_properties(prediction, target):
    assert mae(prediction, target) >= 0
    assert rmse(prediction, target) >= mae(prediction, target) - 1e-9
    assert mae(prediction, target) == pytest.approx(mae(target, prediction))


class TestEvaluation:
    @pytest.fixture
    def dataset(self, small_series):
        return STDataset(small_series, input_steps=12, output_steps=1, target_channels=(0,))

    @pytest.fixture
    def model(self, small_network, tiny_encoder_config):
        return GraphWaveNetBackbone(
            small_network, in_channels=2, input_steps=12,
            encoder_config=tiny_encoder_config, rng=0,
        )

    def test_collect_predictions_shapes(self, model, dataset):
        predictions, targets = collect_predictions(model, dataset, batch_size=16)
        assert predictions.shape == targets.shape
        assert predictions.shape[0] == len(dataset)

    def test_collect_predictions_respects_max_windows(self, model, dataset):
        predictions, _ = collect_predictions(model, dataset, batch_size=8, max_windows=8)
        assert predictions.shape[0] <= 16  # at most one extra batch

    def test_collect_predictions_cuts_last_batch_at_cap(self, model, small_network, rng):
        # 100 windows in batches of 64: a cap of 96 scores exactly the first
        # 96, not the whole second batch.
        series = rng.normal(size=(100 + 12, small_network.num_nodes, 2))
        windows = STDataset(series, input_steps=12, output_steps=1, target_channels=(0,))
        assert len(windows) == 100
        capped, capped_targets = collect_predictions(
            model, windows, batch_size=64, max_windows=96
        )
        full, full_targets = collect_predictions(model, windows, batch_size=64)
        assert capped.shape[0] == capped_targets.shape[0] == 96
        np.testing.assert_array_equal(capped, full[:96])
        np.testing.assert_array_equal(capped_targets, full_targets[:96])

    def test_collect_predictions_rejects_empty_cap(self, model, dataset):
        with pytest.raises(ValueError):
            collect_predictions(model, dataset, max_windows=0)

    @pytest.mark.parametrize("training", [True, False])
    def test_collect_predictions_restores_mode(self, model, dataset, training):
        model.train(training)
        collect_predictions(model, dataset, batch_size=16)
        assert model.training is training
        assert all(module.training is training for module in model.modules())

    def test_evaluation_metrics_bit_identical_to_compiled_predict(self, model, dataset):
        # Evaluation runs the eager forward; the compiled predict replays the
        # same windows (batches of 16 and a last batch of 4) bit for bit.
        scaler = MinMaxScaler().fit(dataset.series)
        evaluated = evaluate_model(
            model, dataset, batch_size=16, scaler=scaler, target_channel=0, max_windows=52
        )
        inputs, targets = dataset.arrays()
        inputs, targets = inputs[:52], targets[:52]
        model.eval()
        with traced_execution(True):
            for start in range(0, 52, 16):  # capture both batch shapes
                model.predict(inputs[start : start + 16])
            before = program_cache_stats()["replays"]
            compiled = np.concatenate(
                [model.predict(inputs[start : start + 16]) for start in range(0, 52, 16)]
            )
            assert program_cache_stats()["replays"] - before == 4
        reference = compute_metrics(
            scaler.inverse_transform_channel(compiled, 0),
            scaler.inverse_transform_channel(targets, 0),
        )
        assert evaluated.as_dict() == reference.as_dict()

    def test_evaluate_model_returns_metrics(self, model, dataset):
        metrics = evaluate_model(model, dataset, batch_size=16)
        assert np.isfinite(metrics.mae) and np.isfinite(metrics.rmse)

    def test_evaluate_model_with_scaler_changes_units(self, model, dataset, small_series):
        scaler = MinMaxScaler().fit(small_series)
        raw = evaluate_model(model, dataset, batch_size=16)
        rescaled = evaluate_model(model, dataset, batch_size=16, scaler=scaler, target_channel=0)
        assert rescaled.mae != pytest.approx(raw.mae)

    def test_evaluate_on_sets_pools_windows(self, model, dataset):
        single = evaluate_model_on_sets(model, [dataset], batch_size=16)
        double = evaluate_model_on_sets(model, [dataset, dataset], batch_size=16)
        assert double.mae == pytest.approx(single.mae, rel=1e-9)
        assert double.num_samples == 2 * single.num_samples

    def test_evaluate_on_sets_requires_datasets(self, model):
        with pytest.raises(ValueError):
            evaluate_model_on_sets(model, [])

    def test_evaluate_classical(self, dataset):
        metrics = evaluate_classical(HistoricalAverageForecaster(), dataset, target_channel=0)
        assert np.isfinite(metrics.mae)

    def test_evaluate_classical_on_sets(self, dataset):
        model = HistoricalAverageForecaster()
        single = evaluate_classical_on_sets(model, [dataset], target_channel=0)
        double = evaluate_classical_on_sets(model, [dataset, dataset], target_channel=0)
        assert double.mae == pytest.approx(single.mae, rel=1e-9)


class TestEvaluateAfterSet:
    """One helper scores a stream period for the trainer and every strategy."""

    @pytest.fixture(autouse=True)
    def clock(self, monkeypatch):
        # Each clock read advances one second: an evaluation takes one second.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))

    @pytest.fixture
    def backbone(self, tiny_scenario, tiny_encoder_config):
        spec = tiny_scenario.spec
        return GraphWaveNetBackbone(
            tiny_scenario.network, in_channels=spec.num_channels,
            input_steps=spec.input_steps, output_steps=spec.output_steps,
            encoder_config=tiny_encoder_config, rng=0,
        )

    @pytest.mark.parametrize("protocol, splits", [("cumulative", [0, 1, 2]),
                                                  ("current", [2])])
    @pytest.mark.parametrize("cap", [16, None])
    def test_scores_protocol_splits_per_scored_window(
        self, backbone, tiny_scenario, protocol, splits, cap
    ):
        training = TrainingConfig(eval_max_windows=cap, eval_protocol=protocol)
        metrics, per_window = evaluate_after_set(backbone, tiny_scenario, 2, training)
        tests = [tiny_scenario.sets[index].test for index in splits]
        scored = sum(min(len(test), cap or len(test)) for test in tests)
        assert metrics.num_samples == scored
        assert per_window == pytest.approx(1.0 / scored)
        reference = evaluate_model_on_sets(
            backbone, tests, batch_size=training.eval_batch_size,
            scaler=tiny_scenario.scaler,
            target_channel=tiny_scenario.spec.target_channel, max_windows_per_set=cap,
        )
        assert metrics.as_dict() == reference.as_dict()

    def test_classical_model_scored_by_classical_path(self, tiny_scenario):
        model = HistoricalAverageForecaster()
        channel = tiny_scenario.spec.target_channel
        model.fit(tiny_scenario.sets[0].train.series[..., channel])
        training = TrainingConfig(eval_max_windows=16)
        metrics, per_window = evaluate_after_set(model, tiny_scenario, 1, training)
        tests = [s.test for s in tiny_scenario.sets[:2]]
        reference = evaluate_classical_on_sets(
            model, tests, target_channel=channel, scaler=tiny_scenario.scaler,
            scaler_channel=channel, max_windows_per_set=16,
        )
        assert metrics.as_dict() == reference.as_dict()
        assert per_window == pytest.approx(1.0 / 32)
