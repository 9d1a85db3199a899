"""Training strategies for streaming data (Sec. V-B.1, Fig. 5).

Besides the replay-based URCL trainer, the paper compares two simpler ways
of dealing with a stream:

* **OneFitAll** — train once on the base set and keep predicting;
* **FinetuneST** — re-train (fine-tune) the same model on every incremental
  set, starting from the previously learned weights.

The Table III protocol ("repeatably train each original baseline on each
base and incremental set") is the FinetuneST strategy applied to the
baseline models, so :class:`FinetuneSTStrategy` covers both uses.  Classical
models (ARIMA) are re-fitted per set by :class:`ClassicalRefitStrategy`.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.loader import DataLoader
from ..data.streaming import StreamingScenario, StreamSet
from ..models.base import STModel
from ..models.baselines.classical import ClassicalForecaster
from ..nn.losses import mae_loss
from ..nn.module import Module
from ..nn.optim import Adam, Optimizer, clip_grad_norm
from ..tensor import Tensor
from ..utils.logging import get_logger
from .config import TrainingConfig
from .evaluation import evaluate_after_set
from .results import ContinualResult, SetResult

__all__ = [
    "fit_on_dataset",
    "StreamingStrategy",
    "OneFitAllStrategy",
    "FinetuneSTStrategy",
    "ClassicalRefitStrategy",
]

_LOGGER = get_logger("strategies")


def fit_on_dataset(
    model: Module,
    dataset,
    epochs: int,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    optimizer: Optimizer | None = None,
    grad_clip: float = 5.0,
    max_batches_per_epoch: int | None = None,
    shuffle: bool = True,
    rng=None,
    graph=None,
) -> tuple[Optimizer, list[float], float]:
    """Standard supervised training of a predictor on a windowed dataset.

    Returns the optimizer (so callers can keep fine-tuning), the per-batch
    loss history and the elapsed wall-clock seconds.  ``graph`` optionally
    overrides the sensor graph for every forward pass (a
    :class:`repro.graph.Graph`, e.g. fine-tuning on an updated road
    network); models whose ``forward`` takes no graph override reject it.
    """
    if optimizer is None:
        optimizer = Adam(model.parameters(), lr=learning_rate)
    losses: list[float] = []
    start = time.perf_counter()
    for _ in range(max(epochs, 0)):
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=shuffle, rng=rng)
        for batch_index, batch in enumerate(loader):
            if max_batches_per_epoch is not None and batch_index >= max_batches_per_epoch:
                break
            inputs = Tensor(batch.inputs)
            predictions = model(inputs) if graph is None else model(inputs, graph=graph)
            loss = mae_loss(predictions, Tensor(batch.targets))
            model.zero_grad()
            loss.backward()
            if grad_clip > 0:
                clip_grad_norm(model.parameters(), grad_clip)
            optimizer.step()
            losses.append(float(loss.item()))
    elapsed = time.perf_counter() - start
    return optimizer, losses, elapsed


class StreamingStrategy:
    """Base class: run a model through a streaming scenario."""

    name = "strategy"

    def __init__(self, training: TrainingConfig | None = None):
        self.training = training or TrainingConfig()

    def run(self, scenario: StreamingScenario, model: STModel, graph=None) -> ContinualResult:
        raise NotImplementedError


class OneFitAllStrategy(StreamingStrategy):
    """Train on the base set only; predict every later period unchanged."""

    name = "OneFitAll"

    def run(self, scenario: StreamingScenario, model: STModel, graph=None) -> ContinualResult:
        dataset_name = scenario.spec.name if scenario.spec else "custom"
        result = ContinualResult(method=self.name, dataset=dataset_name)
        base = scenario.base_set
        _, losses, seconds = fit_on_dataset(
            model,
            base.train,
            epochs=self.training.epochs_base,
            batch_size=self.training.batch_size,
            learning_rate=self.training.learning_rate,
            grad_clip=self.training.grad_clip,
            max_batches_per_epoch=self.training.max_batches_per_epoch,
            graph=graph,
        )
        for set_index, stream_set in enumerate(scenario.sets):
            metrics, inference = evaluate_after_set(model, scenario, set_index, self.training)
            result.add(
                SetResult(
                    name=stream_set.name,
                    metrics=metrics,
                    epochs=self.training.epochs_base if set_index == 0 else 0,
                    train_seconds=seconds if set_index == 0 else 0.0,
                    loss_history=losses if set_index == 0 else [],
                    inference_seconds_per_window=inference,
                )
            )
        return result


class FinetuneSTStrategy(StreamingStrategy):
    """Re-train the same model on every incremental set (no replay)."""

    name = "FinetuneST"

    def run(self, scenario: StreamingScenario, model: STModel, graph=None) -> ContinualResult:
        dataset_name = scenario.spec.name if scenario.spec else "custom"
        result = ContinualResult(method=self.name, dataset=dataset_name)
        optimizer: Optimizer | None = None
        for set_index, stream_set in enumerate(scenario.sets):
            epochs = self.training.epochs_for(set_index)
            optimizer, losses, seconds = fit_on_dataset(
                model,
                stream_set.train,
                epochs=epochs,
                batch_size=self.training.batch_size,
                learning_rate=self.training.learning_rate,
                optimizer=optimizer,
                grad_clip=self.training.grad_clip,
                max_batches_per_epoch=self.training.max_batches_per_epoch,
                graph=graph,
            )
            metrics, inference = evaluate_after_set(model, scenario, set_index, self.training)
            _LOGGER.info("%s | %s | %s", self.name, dataset_name, stream_set.name)
            result.add(
                SetResult(
                    name=stream_set.name,
                    metrics=metrics,
                    epochs=epochs,
                    train_seconds=seconds,
                    loss_history=losses,
                    inference_seconds_per_window=inference,
                )
            )
        return result


class ClassicalRefitStrategy(StreamingStrategy):
    """Re-fit a closed-form forecaster (e.g. ARIMA) on every stream period."""

    name = "ClassicalRefit"

    def run(self, scenario: StreamingScenario, model: ClassicalForecaster, graph=None) -> ContinualResult:
        # Classical forecasters are graph-free; the override is accepted for
        # interface symmetry and ignored.
        dataset_name = scenario.spec.name if scenario.spec else "custom"
        target_channel = scenario.spec.target_channel if scenario.spec else 0
        result = ContinualResult(method=self.name, dataset=dataset_name)
        for set_index, stream_set in enumerate(scenario.sets):
            start = time.perf_counter()
            model.fit(stream_set.train.series[..., target_channel])
            seconds = time.perf_counter() - start
            metrics, inference = evaluate_after_set(model, scenario, set_index, self.training)
            result.add(
                SetResult(
                    name=stream_set.name,
                    metrics=metrics,
                    epochs=1,
                    train_seconds=seconds,
                    inference_seconds_per_window=inference,
                )
            )
        return result
