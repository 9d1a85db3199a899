"""Replay-buffer sampling strategies.

Implements the paper's ranking-based maximally interfered retrieval (RMIR,
Sec. IV-B.1) and the random-sampling baseline used by the ``w/o RMIR``
ablation.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..exceptions import BufferError_
from ..tensor import Tensor, no_grad, run_compiled
from ..utils.random import get_rng
from .buffer import ReplayBuffer

__all__ = ["ReplaySampler", "RandomSampler", "RMIRSampler", "pearson_similarity"]


class _PredictiveModel(Protocol):
    """The minimal model surface the RMIR sampler relies on."""

    def forward(self, inputs: Tensor) -> Tensor: ...

    def parameters(self) -> list: ...

    def zero_grad(self) -> None: ...


def pearson_similarity(candidates: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Pearson correlation between each candidate window and a reference window.

    ``candidates`` has shape ``(num_candidates, ...)``; ``reference`` has the
    shape of a single window.  Windows are flattened before correlating.
    """
    flat_candidates = candidates.reshape(candidates.shape[0], -1)
    flat_reference = reference.reshape(-1)
    centred_candidates = flat_candidates - flat_candidates.mean(axis=1, keepdims=True)
    centred_reference = flat_reference - flat_reference.mean()
    numerator = centred_candidates @ centred_reference
    denominator = np.linalg.norm(centred_candidates, axis=1) * np.linalg.norm(centred_reference)
    denominator = np.maximum(denominator, 1e-12)
    return numerator / denominator


class ReplaySampler:
    """Base class for buffer samplers."""

    def __init__(self, rng=None):
        self._rng = get_rng(rng)

    def sample(
        self,
        buffer: ReplayBuffer,
        current_inputs: np.ndarray,
        current_targets: np.ndarray,
        sample_size: int,
        model: _PredictiveModel | None = None,
        loss_fn: Callable[[Tensor, Tensor], Tensor] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class RandomSampler(ReplaySampler):
    """Uniform random retrieval (the ``w/o RMIR`` ablation)."""

    def sample(
        self,
        buffer: ReplayBuffer,
        current_inputs: np.ndarray,
        current_targets: np.ndarray,
        sample_size: int,
        model: _PredictiveModel | None = None,
        loss_fn: Callable[[Tensor, Tensor], Tensor] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if buffer.is_empty:
            raise BufferError_("cannot sample from an empty buffer")
        return buffer.sample_random(sample_size)


class RMIRSampler(ReplaySampler):
    """Ranking-based maximally interfered retrieval (Sec. IV-B.1).

    The sampler scores buffered windows by how much their loss *increases*
    after a virtual (foreseen) gradient step on the current batch (Eq. 3),
    keeps the ``interfered_pool`` most interfered candidates, and finally
    ranks those by Pearson similarity to the current observations, returning
    the ``sample_size`` most similar ones — capturing both interference and
    temporal-periodicity relevance.

    Parameters
    ----------
    virtual_lr:
        Learning rate of the virtual gradient step (``alpha`` in Eq. 3).
    candidate_pool:
        Number of buffered windows scored per call (a random subset keeps
        the sampler's cost bounded for large buffers).
    interfered_pool:
        Number of most-interfered candidates retained before the similarity
        ranking (``|N|`` in the paper, with ``|N| > |S|``).
    """

    def __init__(
        self,
        virtual_lr: float = 0.01,
        candidate_pool: int = 64,
        interfered_pool: int | None = None,
        rng=None,
    ):
        super().__init__(rng=rng)
        if virtual_lr <= 0:
            raise ValueError("virtual_lr must be positive")
        if candidate_pool < 1:
            raise ValueError("candidate_pool must be >= 1")
        self.virtual_lr = virtual_lr
        self.candidate_pool = candidate_pool
        self.interfered_pool = interfered_pool
        self._saved: list[np.ndarray] = []

    # ------------------------------------------------------------------ #
    @staticmethod
    def _per_sample_loss(
        model: _PredictiveModel, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """MAE of every window under the current model parameters (no
        ``loss_fn``: it reduces over the batch, Eq. 3 needs a value per window;
        the caller's loss drives the virtual step only)."""
        with no_grad():
            predictions = run_compiled(model, model.forward, Tensor(inputs), kind="rmir")
        errors = np.abs(predictions.data - targets)
        return errors.reshape(errors.shape[0], -1).mean(axis=1)

    def _snapshot(self, model: _PredictiveModel) -> list[np.ndarray]:
        """Copy the parameters into buffers allocated once per model layout."""
        parameters = model.parameters()
        layout = [(p.data.shape, p.data.dtype) for p in parameters]
        if [(s.shape, s.dtype) for s in self._saved] != layout:
            self._saved = [np.empty(shape, dtype) for shape, dtype in layout]
        for saved, parameter in zip(self._saved, parameters):
            np.copyto(saved, parameter.data)
        return self._saved

    def _virtual_step(
        self,
        model: _PredictiveModel,
        loss_fn: Callable[[Tensor, Tensor], Tensor],
        inputs: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        """Apply the foreseen update in place (callers snapshot first)."""
        model.zero_grad()
        predictions = run_compiled(model, model.forward, Tensor(inputs), kind="train")
        loss = loss_fn(predictions, Tensor(targets))
        loss.backward()
        for parameter in model.parameters():
            if parameter.grad is not None:
                parameter.data -= self.virtual_lr * parameter.grad
        model.zero_grad()

    @staticmethod
    def _restore(model: _PredictiveModel, saved: list[np.ndarray]) -> None:
        for parameter, original in zip(model.parameters(), saved):
            parameter.data[...] = original

    # ------------------------------------------------------------------ #
    def sample(
        self,
        buffer: ReplayBuffer,
        current_inputs: np.ndarray,
        current_targets: np.ndarray,
        sample_size: int,
        model: _PredictiveModel | None = None,
        loss_fn: Callable[[Tensor, Tensor], Tensor] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if buffer.is_empty:
            raise BufferError_("cannot sample from an empty buffer")
        if model is None or loss_fn is None:
            # Without a model there is no interference signal; degrade gracefully.
            return buffer.sample_random(sample_size)
        sample_size = min(sample_size, len(buffer))
        pool_size = min(self.candidate_pool, len(buffer))
        candidate_indices = self._rng.choice(len(buffer), size=pool_size, replace=False)
        candidate_inputs, candidate_targets = buffer.get(candidate_indices)

        # Interference scores: loss increase caused by the foreseen update.
        losses_before = self._per_sample_loss(model, candidate_inputs, candidate_targets)
        saved = self._snapshot(model)
        try:
            self._virtual_step(model, loss_fn, current_inputs, current_targets)
            losses_after = self._per_sample_loss(model, candidate_inputs, candidate_targets)
        finally:
            self._restore(model, saved)
        interference = losses_after - losses_before

        interfered_pool = self.interfered_pool or 2 * sample_size
        interfered_pool = min(interfered_pool, pool_size)
        most_interfered = np.argsort(-interference)[:interfered_pool]

        # Rank the interfered candidates by Pearson similarity with the
        # (average) current observation window — periodic data similar to the
        # present is the most useful to replay.
        reference = current_inputs.mean(axis=0)
        similarity = pearson_similarity(candidate_inputs[most_interfered], reference)
        ranked = most_interfered[np.argsort(-similarity)][:sample_size]
        chosen = candidate_indices[ranked]
        return buffer.get(chosen)
