"""Regularization-based continual learning baseline (EWC).

The paper's related-work section groups continual-learning methods into
replay-based (URCL), regularization-based and architecture-based families.
To let users compare URCL against the regularization family on the same
streaming protocol, this module provides Elastic Weight Consolidation
[Kirkpatrick et al., PNAS 2017]: after finishing a stream period, the
diagonal Fisher information of the loss is estimated and subsequent periods
are trained with a quadratic penalty that anchors important parameters to
their previously learned values.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.loader import DataLoader
from ..data.streaming import StreamingScenario
from ..models.base import STModel
from ..nn.losses import mae_loss
from ..nn.optim import Adam, clip_grad_norm
from ..tensor import Tensor
from ..utils.logging import get_logger
from .config import TrainingConfig
from .results import ContinualResult, SetResult
from .evaluation import evaluate_after_set
from .strategies import StreamingStrategy

__all__ = ["EWCStrategy"]

_LOGGER = get_logger("ewc")


class EWCStrategy(StreamingStrategy):
    """Fine-tune on every stream period with an EWC penalty on old knowledge.

    Parameters
    ----------
    training:
        Shared training configuration (epochs, batch size, evaluation).
    ewc_lambda:
        Strength of the quadratic anchoring penalty.
    fisher_batches:
        Number of batches used to estimate the diagonal Fisher information
        after each period.
    """

    name = "EWC"

    def __init__(
        self,
        training: TrainingConfig | None = None,
        ewc_lambda: float = 100.0,
        fisher_batches: int = 4,
    ):
        super().__init__(training)
        if ewc_lambda < 0:
            raise ValueError("ewc_lambda must be non-negative")
        if fisher_batches < 1:
            raise ValueError("fisher_batches must be >= 1")
        self.ewc_lambda = ewc_lambda
        self.fisher_batches = fisher_batches
        self._fisher: list[np.ndarray] | None = None
        self._anchor: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    def _penalty(self, model: STModel) -> Tensor | None:
        """Quadratic anchoring penalty ``lambda/2 * sum F_i (theta_i - theta*_i)^2``."""
        if self._fisher is None or self._anchor is None or self.ewc_lambda == 0:
            return None
        penalty: Tensor | None = None
        for parameter, fisher, anchor in zip(model.parameters(), self._fisher, self._anchor):
            difference = parameter - Tensor(anchor)
            term = (Tensor(fisher) * difference * difference).sum()
            penalty = term if penalty is None else penalty + term
        if penalty is None:
            return None
        return penalty * (0.5 * self.ewc_lambda)

    def _estimate_fisher(self, model: STModel, dataset) -> None:
        """Estimate the diagonal Fisher information on ``dataset`` and anchor
        the current parameters."""
        parameters = model.parameters()
        fisher = [np.zeros_like(parameter.data) for parameter in parameters]
        loader = DataLoader(dataset, batch_size=self.training.batch_size, shuffle=True)
        batches_used = 0
        for batch_index, batch in enumerate(loader):
            if batch_index >= self.fisher_batches:
                break
            model.zero_grad()
            loss = mae_loss(model(Tensor(batch.inputs)), Tensor(batch.targets))
            loss.backward()
            for slot, parameter in zip(fisher, parameters):
                if parameter.grad is not None:
                    slot += parameter.grad**2
            batches_used += 1
        if batches_used:
            fisher = [slot / batches_used for slot in fisher]
        model.zero_grad()
        self._fisher = fisher
        self._anchor = [parameter.data.copy() for parameter in parameters]

    def _fit_with_penalty(self, model: STModel, dataset, epochs: int, optimizer: Adam | None):
        if optimizer is None:
            optimizer = Adam(model.parameters(), lr=self.training.learning_rate)
        losses: list[float] = []
        start = time.perf_counter()
        for _ in range(max(epochs, 0)):
            loader = DataLoader(
                dataset, batch_size=self.training.batch_size,
                shuffle=self.training.shuffle_batches,
            )
            for batch_index, batch in enumerate(loader):
                if (
                    self.training.max_batches_per_epoch is not None
                    and batch_index >= self.training.max_batches_per_epoch
                ):
                    break
                loss = mae_loss(model(Tensor(batch.inputs)), Tensor(batch.targets))
                penalty = self._penalty(model)
                if penalty is not None:
                    loss = loss + penalty
                model.zero_grad()
                loss.backward()
                if self.training.grad_clip > 0:
                    clip_grad_norm(model.parameters(), self.training.grad_clip)
                optimizer.step()
                losses.append(float(loss.item()))
        return optimizer, losses, time.perf_counter() - start

    # ------------------------------------------------------------------ #
    def run(self, scenario: StreamingScenario, model: STModel) -> ContinualResult:
        dataset_name = scenario.spec.name if scenario.spec else "custom"
        result = ContinualResult(method=self.name, dataset=dataset_name)
        optimizer: Adam | None = None
        for set_index, stream_set in enumerate(scenario.sets):
            epochs = self.training.epochs_for(set_index)
            optimizer, losses, seconds = self._fit_with_penalty(
                model, stream_set.train, epochs, optimizer
            )
            self._estimate_fisher(model, stream_set.train)
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
