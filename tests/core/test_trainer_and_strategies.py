"""Tests for the continual trainer and the baseline training strategies."""

import itertools
import time

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.results import ContinualResult, SetResult
from repro.core.strategies import (
    ClassicalRefitStrategy,
    FinetuneSTStrategy,
    OneFitAllStrategy,
    fit_on_dataset,
)
from repro.core.trainer import ContinualTrainer
from repro.core.urcl import URCLModel
from repro.core.metrics import PredictionMetrics
from repro.models.baselines import ARIMAForecaster
from repro.models.graphwavenet import GraphWaveNetBackbone
from repro.tensor import program_cache_stats, traced_execution


@pytest.fixture
def urcl(tiny_scenario, tiny_urcl_config):
    spec = tiny_scenario.spec
    return URCLModel(
        tiny_scenario.network,
        in_channels=spec.num_channels,
        input_steps=spec.input_steps,
        output_steps=spec.output_steps,
        config=tiny_urcl_config,
        rng=0,
    )


@pytest.fixture
def backbone(tiny_scenario, tiny_encoder_config):
    spec = tiny_scenario.spec
    return GraphWaveNetBackbone(
        tiny_scenario.network,
        in_channels=spec.num_channels,
        input_steps=spec.input_steps,
        output_steps=spec.output_steps,
        encoder_config=tiny_encoder_config,
        rng=0,
    )


class TestFitOnDataset:
    def test_returns_losses_and_optimizer(self, backbone, tiny_scenario):
        optimizer, losses, seconds = fit_on_dataset(
            backbone, tiny_scenario.base_set.train, epochs=1, batch_size=8,
            max_batches_per_epoch=2,
        )
        assert len(losses) == 2
        assert seconds >= 0.0
        assert optimizer is not None

    def test_optimizer_reuse_keeps_state(self, backbone, tiny_scenario):
        optimizer, _, _ = fit_on_dataset(
            backbone, tiny_scenario.base_set.train, epochs=1, batch_size=8,
            max_batches_per_epoch=1,
        )
        second_optimizer, _, _ = fit_on_dataset(
            backbone, tiny_scenario.base_set.train, epochs=1, batch_size=8,
            max_batches_per_epoch=1, optimizer=optimizer,
        )
        assert second_optimizer is optimizer

    def test_training_reduces_loss_over_epochs(self, backbone, tiny_scenario):
        _, losses, _ = fit_on_dataset(
            backbone, tiny_scenario.base_set.train, epochs=4, batch_size=16,
            learning_rate=3e-3, max_batches_per_epoch=4,
        )
        assert np.mean(losses[-4:]) < np.mean(losses[:4])


class TestContinualTrainer:
    def test_run_produces_result_per_set(self, urcl, tiny_scenario, tiny_training_config):
        result = ContinualTrainer(urcl, tiny_training_config).run(tiny_scenario)
        assert isinstance(result, ContinualResult)
        assert [entry.name for entry in result.sets] == tiny_scenario.set_names
        assert all(np.isfinite(entry.metrics.mae) for entry in result.sets)
        assert all(entry.epochs >= 1 for entry in result.sets)

    def test_run_compiles_no_program(self, urcl, tiny_scenario, tiny_training_config):
        # Training forwards run on the tape and evaluation runs the eager
        # forward, so a training run leaves no program arena resident.
        with traced_execution(True):
            before = program_cache_stats()
            ContinualTrainer(urcl, tiny_training_config).run(tiny_scenario)
            after = program_cache_stats()
        assert after["captures"] == before["captures"]
        assert after["entries"] == before["entries"]
        assert after["bytes"] == before["bytes"]

    def test_loss_history_recorded(self, urcl, tiny_scenario, tiny_training_config):
        result = ContinualTrainer(urcl, tiny_training_config).run(tiny_scenario)
        assert all(len(entry.loss_history) > 0 for entry in result.sets)
        assert len(result.loss_curve()) == sum(len(e.loss_history) for e in result.sets)

    def test_buffer_contains_samples_from_multiple_sets(self, urcl, tiny_scenario, tiny_training_config):
        ContinualTrainer(urcl, tiny_training_config).run(tiny_scenario)
        assert len(urcl.buffer.occupancy_by_set()) >= 2

    @pytest.mark.parametrize("shuffle_batches", [True, False])
    def test_trainer_honours_configured_shuffle(
        self, urcl, tiny_scenario, tiny_training_config, monkeypatch, shuffle_batches
    ):
        # Pins the actual behavior: the trainer forwards
        # ``TrainingConfig.shuffle_batches`` to the DataLoader (it does NOT
        # hard-code shuffle=False, whatever older docs claimed).
        from dataclasses import replace

        import repro.core.trainer as trainer_module

        seen_shuffle = []
        real_loader = trainer_module.DataLoader

        def recording_loader(*args, **kwargs):
            seen_shuffle.append(kwargs.get("shuffle"))
            return real_loader(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "DataLoader", recording_loader)
        training = replace(tiny_training_config, shuffle_batches=shuffle_batches)
        trainer = ContinualTrainer(urcl, training)
        trainer._train_one_epoch(tiny_scenario.base_set)
        assert seen_shuffle == [shuffle_batches]

    def test_default_config_shuffles_within_period(self):
        assert TrainingConfig().shuffle_batches is True

    def test_cumulative_vs_current_protocol(self, tiny_scenario, tiny_urcl_config):
        from dataclasses import replace

        spec = tiny_scenario.spec
        results = {}
        for protocol in ("cumulative", "current"):
            model = URCLModel(
                tiny_scenario.network, in_channels=spec.num_channels,
                input_steps=spec.input_steps, config=tiny_urcl_config, rng=0,
            )
            training = TrainingConfig(
                epochs_base=1, epochs_incremental=1, batch_size=8,
                max_batches_per_epoch=2, eval_max_windows=8, eval_protocol=protocol,
            )
            results[protocol] = ContinualTrainer(model, training).run(tiny_scenario)
        # Both protocols produce one row per stream period.
        assert len(results["cumulative"].sets) == len(results["current"].sets)

    def test_timings_recorded(self, urcl, tiny_scenario, tiny_training_config):
        result = ContinualTrainer(urcl, tiny_training_config).run(tiny_scenario)
        assert all(entry.train_seconds > 0 for entry in result.sets)
        assert all(entry.inference_seconds_per_window > 0 for entry in result.sets)
        assert result.mean_train_seconds_per_epoch() > 0


class TestStrategies:
    def test_one_fit_all_trains_only_base(self, backbone, tiny_scenario, tiny_training_config):
        result = OneFitAllStrategy(tiny_training_config).run(tiny_scenario, backbone)
        assert result.method == "OneFitAll"
        assert result.sets[0].train_seconds > 0
        assert all(entry.train_seconds == 0 for entry in result.sets[1:])

    def test_finetune_trains_every_set(self, backbone, tiny_scenario, tiny_training_config):
        result = FinetuneSTStrategy(tiny_training_config).run(tiny_scenario, backbone)
        assert result.method == "FinetuneST"
        assert all(entry.train_seconds > 0 for entry in result.sets)
        assert all(np.isfinite(entry.metrics.rmse) for entry in result.sets)

    def test_classical_refit(self, tiny_scenario, tiny_training_config):
        result = ClassicalRefitStrategy(tiny_training_config).run(
            tiny_scenario, ARIMAForecaster(order_p=4)
        )
        assert len(result.sets) == len(tiny_scenario.sets)
        assert all(np.isfinite(entry.metrics.mae) for entry in result.sets)

    def test_classical_refit_times_per_scored_window(
        self, tiny_scenario, tiny_training_config, monkeypatch
    ):
        # Each clock read advances one second, so every evaluation takes one
        # second and the per-window figure is 1 / windows actually scored.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        result = ClassicalRefitStrategy(tiny_training_config).run(
            tiny_scenario, ARIMAForecaster(order_p=4)
        )
        cap = tiny_training_config.eval_max_windows
        assert all(len(s.test) > cap for s in tiny_scenario.sets)
        for index, entry in enumerate(result.sets):
            scored = cap * (index + 1)  # cumulative protocol
            assert entry.metrics.num_samples == scored
            assert entry.inference_seconds_per_window == pytest.approx(1.0 / scored)

    def test_results_helpers(self):
        result = ContinualResult(method="m", dataset="d")
        result.add(SetResult(name="Bset", metrics=PredictionMetrics(1.0, 2.0, 3.0, 4),
                             epochs=2, train_seconds=4.0))
        result.add(SetResult(name="I1", metrics=PredictionMetrics(3.0, 4.0, 5.0, 4),
                             epochs=1, train_seconds=1.0))
        assert result.mae_by_set() == {"Bset": 1.0, "I1": 3.0}
        assert result.mean_mae() == pytest.approx(2.0)
        assert result.mean_rmse() == pytest.approx(3.0)
        assert result.mean_mape() == pytest.approx(4.0)
        assert result.mean_train_seconds_per_epoch() == pytest.approx(1.5)
        assert result.as_dict()["method"] == "m"

    def test_mean_mape_skips_nan_sets(self):
        # A degenerate set (all targets masked, MAPE undefined) must not
        # poison the cross-set aggregate.
        result = ContinualResult(method="m", dataset="d")
        result.add(SetResult(name="Bset", metrics=PredictionMetrics(1.0, 2.0, float("nan"), 4)))
        result.add(SetResult(name="I1", metrics=PredictionMetrics(3.0, 4.0, 10.0, 4)))
        assert result.mean_mape() == pytest.approx(10.0)
        assert result.mean_mae() == pytest.approx(2.0)

    def test_mean_mape_all_nan_is_nan(self):
        result = ContinualResult(method="m", dataset="d")
        result.add(SetResult(name="Bset", metrics=PredictionMetrics(1.0, 2.0, float("nan"), 4)))
        assert np.isnan(result.mean_mape())
