"""Model evaluation over windowed datasets."""

from __future__ import annotations

import time

import numpy as np

from ..data.dataset import STDataset
from ..data.loader import DataLoader
from ..data.scalers import Scaler
from ..data.streaming import StreamingScenario
from ..models.base import STModel
from ..models.baselines.classical import ClassicalForecaster
from ..tensor import Tensor, get_default_dtype, no_grad
from .config import TrainingConfig
from .metrics import PredictionMetrics, compute_metrics

__all__ = [
    "evaluate_model",
    "evaluate_model_on_sets",
    "evaluate_classical",
    "evaluate_classical_on_sets",
    "evaluate_after_set",
    "collect_predictions",
]


def _maybe_inverse(
    values: np.ndarray, scaler: Scaler | None, target_channel: int | None
) -> np.ndarray:
    if scaler is None or target_channel is None:
        return values
    return scaler.inverse_transform_channel(values, target_channel)


def collect_predictions(
    model: STModel,
    dataset: STDataset,
    batch_size: int = 64,
    max_windows: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the model over ``dataset`` and return stacked (predictions, targets).

    At most ``max_windows`` windows are scored (the last batch is cut at the
    cap).  Each batch runs the eager ``no_grad`` forward in evaluation mode,
    not the compiled :meth:`STModel.predict`: a replay equals that forward
    bit for bit, but a run replays each evaluation shape only a few times, so
    compiling buys no time while the program's arena stays resident for the
    rest of the run.  The model's previous mode is restored afterwards.
    """
    if max_windows is not None and max_windows < 1:
        raise ValueError(f"max_windows must be >= 1 or None, got {max_windows}")
    was_training = model.training
    model.eval()
    dtype = get_default_dtype()
    predictions = []
    targets = []
    seen = 0
    try:
        with no_grad():
            for batch in DataLoader(dataset, batch_size=batch_size, shuffle=False):
                take = len(batch)
                if max_windows is not None:
                    take = min(take, max_windows - seen)
                if take <= 0:
                    break
                inputs = np.asarray(batch.inputs[:take], dtype=dtype)
                predictions.append(model(Tensor(inputs)).data)
                targets.append(batch.targets[:take])
                seen += take
    finally:
        model.train(was_training)
    return np.concatenate(predictions, axis=0), np.concatenate(targets, axis=0)


def evaluate_model(
    model: STModel,
    dataset: STDataset,
    batch_size: int = 64,
    scaler: Scaler | None = None,
    target_channel: int | None = None,
    max_windows: int | None = None,
) -> PredictionMetrics:
    """Evaluate a neural predictor on ``dataset``.

    When ``scaler`` and ``target_channel`` are given, predictions and targets
    are mapped back to physical units (mph / vehicles per interval) before
    computing MAE/RMSE, matching how the paper reports Table II–IV.
    """
    predictions, targets = collect_predictions(
        model, dataset, batch_size=batch_size, max_windows=max_windows
    )
    predictions = _maybe_inverse(predictions, scaler, target_channel)
    targets = _maybe_inverse(targets, scaler, target_channel)
    return compute_metrics(predictions, targets)


def evaluate_model_on_sets(
    model: STModel,
    datasets: list[STDataset],
    batch_size: int = 64,
    scaler: Scaler | None = None,
    target_channel: int | None = None,
    max_windows_per_set: int | None = None,
) -> PredictionMetrics:
    """Evaluate on the union of several test splits (cumulative protocol).

    Predictions over every dataset are pooled before computing MAE/RMSE, so
    the result equals evaluating on the concatenation of the test windows of
    all stream periods seen so far.
    """
    if not datasets:
        raise ValueError("evaluate_model_on_sets requires at least one dataset")
    pooled_predictions = []
    pooled_targets = []
    for dataset in datasets:
        predictions, targets = collect_predictions(
            model, dataset, batch_size=batch_size, max_windows=max_windows_per_set
        )
        pooled_predictions.append(predictions)
        pooled_targets.append(targets)
    predictions = np.concatenate(pooled_predictions, axis=0)
    targets = np.concatenate(pooled_targets, axis=0)
    predictions = _maybe_inverse(predictions, scaler, target_channel)
    targets = _maybe_inverse(targets, scaler, target_channel)
    return compute_metrics(predictions, targets)


def evaluate_classical(
    model: ClassicalForecaster,
    dataset: STDataset,
    target_channel: int = 0,
    scaler: Scaler | None = None,
    scaler_channel: int | None = None,
    max_windows: int | None = None,
) -> PredictionMetrics:
    """Evaluate a classical per-node forecaster (ARIMA, historical average)."""
    inputs, targets = dataset.arrays()
    if max_windows is not None:
        inputs = inputs[:max_windows]
        targets = targets[:max_windows]
    predictions = model.predict(inputs[..., target_channel])  # (batch, H, nodes)
    predictions = predictions[..., None]
    predictions = _maybe_inverse(predictions, scaler, scaler_channel)
    targets = _maybe_inverse(targets, scaler, scaler_channel)
    return compute_metrics(predictions, targets)


def evaluate_classical_on_sets(
    model: ClassicalForecaster,
    datasets: list[STDataset],
    target_channel: int = 0,
    scaler: Scaler | None = None,
    scaler_channel: int | None = None,
    max_windows_per_set: int | None = None,
) -> PredictionMetrics:
    """Cumulative-protocol evaluation for classical per-node forecasters."""
    if not datasets:
        raise ValueError("evaluate_classical_on_sets requires at least one dataset")
    pooled_predictions = []
    pooled_targets = []
    for dataset in datasets:
        inputs, targets = dataset.arrays()
        if max_windows_per_set is not None:
            inputs = inputs[:max_windows_per_set]
            targets = targets[:max_windows_per_set]
        predictions = model.predict(inputs[..., target_channel])[..., None]
        pooled_predictions.append(predictions)
        pooled_targets.append(targets)
    predictions = np.concatenate(pooled_predictions, axis=0)
    targets = np.concatenate(pooled_targets, axis=0)
    predictions = _maybe_inverse(predictions, scaler, scaler_channel)
    targets = _maybe_inverse(targets, scaler, scaler_channel)
    return compute_metrics(predictions, targets)


def evaluate_after_set(
    model: STModel | ClassicalForecaster,
    scenario: StreamingScenario,
    set_index: int,
    training: TrainingConfig,
    score=evaluate_model_on_sets,
) -> tuple[PredictionMetrics, float]:
    """Score ``model`` after it has seen the ``set_index``-th stream period.

    Under the ``cumulative`` protocol the test splits of every period seen
    so far are pooled (knowledge retention); ``current`` uses only the
    latest period's split.  At most ``training.eval_max_windows`` windows of
    each split are scored.  Returns ``(metrics, seconds_per_window)``, the
    time divided by the windows actually scored.

    A neural model is scored by ``score`` (:func:`evaluate_model_on_sets`
    unless a caller hands in its own reference to it, as
    :class:`~repro.core.trainer.ContinualTrainer` does so that a wrapper on
    ``repro.core.trainer.evaluate_model_on_sets`` times the call); a
    :class:`ClassicalForecaster` by :func:`evaluate_classical_on_sets`.
    """
    if training.eval_protocol == "cumulative":
        test_sets = [s.test for s in scenario.sets[: set_index + 1]]
    else:
        test_sets = [scenario.sets[set_index].test]
    cap = training.eval_max_windows
    start = time.perf_counter()
    if isinstance(model, ClassicalForecaster):
        channel = scenario.spec.target_channel if scenario.spec else 0
        metrics = evaluate_classical_on_sets(
            model,
            test_sets,
            target_channel=channel,
            scaler=scenario.scaler,
            scaler_channel=channel,
            max_windows_per_set=cap,
        )
    else:
        metrics = score(
            model,
            test_sets,
            batch_size=training.eval_batch_size,
            scaler=scenario.scaler,
            target_channel=scenario.spec.target_channel if scenario.spec else None,
            max_windows_per_set=cap,
        )
    elapsed = time.perf_counter() - start
    windows = sum(min(len(dataset), cap or len(dataset)) for dataset in test_sets)
    return metrics, elapsed / max(windows, 1)
