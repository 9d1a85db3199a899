"""The :class:`Forecaster` facade — one object for online forecasting.

The paper's setting is *continual*: a model is trained on a stream, keeps
serving predictions while the stream grows, and is updated in place on
newly arrived windows without forgetting old periods.  ``Forecaster``
packages that loop behind four verbs:

* :meth:`fit` — continual training over a streaming scenario,
* :meth:`predict` — raw un-scaled windows in, raw predictions out
  (micro-batched, no autograd graph),
* :meth:`update` — one replay-augmented continual step on new raw data,
* :meth:`save` / :meth:`load` — durable round-trip of the whole serving
  state (model, optimizer, scaler, graph, replay buffer, RNG streams).

``Forecaster.load(path).predict(x)`` equals the pre-save ``predict(x)``
bit-for-bit: parameters, scaler statistics and the library dtype are all
restored losslessly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import checkpoint as ckpt
from ..core.config import TrainingConfig, URCLConfig
from ..core.results import ContinualResult
from ..core.trainer import ContinualTrainer
from ..core.urcl import StepOutput, URCLModel
from ..data.scalers import IdentityScaler, Scaler
from ..data.streaming import StreamingScenario
from ..exceptions import ConfigurationError, ShapeError
from ..nn.optim import Adam, Optimizer, clip_grad_norm
from ..tensor import traced_execution
from ..utils.checkpoint import Checkpoint

__all__ = ["Forecaster", "impute_missing"]


def impute_missing(window: np.ndarray) -> tuple[np.ndarray, int]:
    """Mask-and-impute NaN/Inf cells in one ``(time, nodes, channels)`` window.

    Each corrupt cell is replaced by its node/channel's mean over the
    window's *finite* time steps — the standard last-resort imputation for
    a sensor that glitched mid-window.  A node/channel with no finite
    observation at all (sensor fully dark) imputes to 0, which is the
    scaled-space mean for standardised data and keeps the model's input
    finite either way.

    Returns ``(window, imputed_cells)``; the input array is returned
    untouched when it is already finite, a repaired copy otherwise.
    """
    window = np.asarray(window, dtype=float)
    mask = ~np.isfinite(window)
    count = int(mask.sum())
    if count == 0:
        return window, 0
    finite = np.where(mask, 0.0, window)
    observed = (~mask).sum(axis=0)                       # (nodes, channels)
    sums = finite.sum(axis=0)
    means = np.divide(sums, np.maximum(observed, 1))
    means = np.where(observed > 0, means, 0.0)
    repaired = window.copy()
    repaired[mask] = np.broadcast_to(means, window.shape)[mask]
    return repaired, count


class Forecaster:
    """Facade over ``model + scaler + graph`` for streaming inference.

    Parameters
    ----------
    model:
        Any registered model (usually a :class:`URCLModel`; plain
        backbones work for predict-only serving).
    scaler:
        The scaler fitted on the stream's base period.  ``predict`` and
        ``update`` consume *raw* data and apply it internally; defaults to
        the identity.
    target_channel:
        Original-data channel the model predicts (scalers are fitted on
        all channels, predictions carry only this one).
    training:
        Optimisation settings used by :meth:`fit` and :meth:`update`.
    optimizer:
        Optional externally managed optimizer; by default one Adam
        instance is created lazily and shared by ``fit`` and ``update`` so
        moments persist across the whole online lifetime.
    """

    def __init__(
        self,
        model,
        scaler: Scaler | None = None,
        target_channel: int = 0,
        training: TrainingConfig | None = None,
        optimizer: Optimizer | None = None,
    ):
        self.model = model
        self.scaler = scaler if scaler is not None else IdentityScaler()
        self.target_channel = int(target_channel)
        self.training = training or TrainingConfig()
        self._optimizer = optimizer
        self._trainer: ContinualTrainer | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_scenario(
        cls,
        scenario: StreamingScenario,
        config: URCLConfig | None = None,
        training: TrainingConfig | None = None,
        seed: int = 0,
    ) -> "Forecaster":
        """Build an (untrained) URCL forecaster sized for ``scenario``."""
        spec = scenario.spec
        if spec is None:
            raise ConfigurationError(
                "from_scenario requires a scenario built from a registered dataset"
            )
        model = URCLModel(
            scenario.network,
            in_channels=spec.num_channels,
            input_steps=spec.input_steps,
            output_steps=spec.output_steps,
            out_channels=1,
            config=config,
            rng=seed,
        )
        return cls(
            model,
            scaler=scenario.scaler,
            target_channel=spec.target_channel,
            training=training,
        )

    # ------------------------------------------------------------------ #
    @property
    def network(self):
        return self.model.network

    @property
    def graph(self):
        """The CSR-backed :class:`repro.graph.Graph` the model serves on."""
        return self.network.graph

    @property
    def optimizer(self) -> Optimizer:
        """The (lazily created) optimizer shared by ``fit`` and ``update``."""
        if self._optimizer is None:
            self._optimizer = Adam(
                self.model.parameters(),
                lr=self.training.learning_rate,
                weight_decay=self.training.weight_decay,
            )
        return self._optimizer

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        scenario: StreamingScenario,
        method_name: str = "URCL",
        checkpoint_dir: str | Path | None = None,
        max_sets: int | None = None,
    ) -> ContinualResult:
        """Run the continual training protocol over ``scenario``.

        The trainer shares this forecaster's optimizer (so a later
        :meth:`update` continues from the same Adam moments) and persists
        across calls: ``fit(scenario, max_sets=1)`` followed by
        ``fit(scenario)`` continues from the second stream period instead
        of retraining the base set.
        """
        if self._trainer is None:
            self._trainer = ContinualTrainer(self.model, self.training, optimizer=self.optimizer)
        return self._trainer.run(
            scenario,
            method_name=method_name,
            checkpoint_dir=checkpoint_dir,
            max_sets=max_sets,
        )

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _coerce_windows(self, windows: np.ndarray) -> tuple[np.ndarray, bool]:
        windows = np.asarray(windows, dtype=float)
        single = windows.ndim == 3
        if single:
            windows = windows[None]
        if windows.ndim != 4:
            raise ShapeError(
                "predict expects one (time, nodes, channels) window or a batch "
                f"of them; got shape {windows.shape}"
            )
        return windows, single

    def predict(self, windows: np.ndarray, batch_size: int = 64, graph=None,
                traced: bool | None = None) -> np.ndarray:
        """Forecast from raw, un-scaled observation windows.

        ``windows`` is a single ``(input_steps, nodes, channels)`` window or
        a batch ``(batch, input_steps, nodes, channels)``.  Inputs are
        scaled with the fitted scaler, run through the model in
        ``batch_size`` micro-batches without building an autograd graph,
        and predictions are mapped back to physical units.  Returns raw
        predictions shaped like the input (batch axis dropped for a single
        window).

        ``graph`` optionally serves this call on an updated sensor graph (a
        :class:`repro.graph.Graph` with the same node set — e.g. road
        closures reflected as dropped edges) without touching the fitted
        model: diffusion supports are pulled from the override and cached
        on it for subsequent calls.

        ``traced`` overrides compiled (tape-replay) execution for this call
        only: ``True``/``False`` force it on/off, ``None`` (default) keeps
        the global :func:`repro.tensor.set_traced_execution` setting.
        """
        if traced is not None:
            with traced_execution(traced):
                return self.predict(windows, batch_size=batch_size, graph=graph)
        windows, single = self._coerce_windows(windows)
        if windows.shape[0] == 0:
            raise ShapeError("predict received an empty batch of windows")
        batch_size = max(int(batch_size), 1)
        scaled = self.scaler.transform(windows)
        total = scaled.shape[0]

        def run(chunk: np.ndarray) -> np.ndarray:
            # Only thread the override through when one was given: classical
            # forecasters (ARIMA/HA) expose a graph-free predict.
            if graph is None:
                return self.model.predict(chunk)
            return self.model.predict(chunk, graph=graph)

        if total <= batch_size:
            predictions = run(scaled)
        else:
            # One output buffer sized from the first micro-batch; every
            # later slice is written in place instead of collecting chunks
            # and paying a full concatenate copy at the end.
            first = run(scaled[:batch_size])
            predictions = np.empty((total,) + first.shape[1:], dtype=first.dtype)
            predictions[:batch_size] = first
            for start in range(batch_size, total, batch_size):
                predictions[start : start + batch_size] = run(
                    scaled[start : start + batch_size]
                )
        predictions = self.scaler.inverse_transform_channel(predictions, self.target_channel)
        return predictions[0] if single else predictions

    def predict_many(
        self, windows_by_key: dict, batch_size: int = 64, graph=None
    ) -> dict:
        """Forecast several window stacks in as few fused calls as possible.

        ``windows_by_key`` maps arbitrary keys (request ids, sensors of
        interest, tenant sub-streams) to a single window or a stack of
        windows.  Entries are grouped by window shape and every group runs
        through one :meth:`predict` call, so callers holding many small
        stacks stop fragmenting the micro-batcher into per-entry calls.
        Returns ``{key: predictions}`` with each entry shaped like its
        input (batch axis dropped for single windows).
        """
        coerced: dict = {}
        groups: dict[tuple, list] = {}
        for key, stack in windows_by_key.items():
            array, single = self._coerce_windows(stack)
            if array.shape[0] == 0:
                raise ShapeError(f"predict_many received an empty stack for key {key!r}")
            coerced[key] = (array, single)
            groups.setdefault(array.shape[1:], []).append(key)
        results: dict = {}
        for keys in groups.values():
            fused = np.concatenate([coerced[key][0] for key in keys], axis=0)
            predictions = self.predict(fused, batch_size=batch_size, graph=graph)
            offset = 0
            for key in keys:
                array, single = coerced[key]
                chunk = predictions[offset : offset + array.shape[0]]
                offset += array.shape[0]
                results[key] = chunk[0] if single else chunk
        return results

    # ------------------------------------------------------------------ #
    # Online continual update
    # ------------------------------------------------------------------ #
    def update(
        self, inputs: np.ndarray, targets: np.ndarray, set_name: str = "online",
        graph=None, traced: bool | None = None,
    ) -> StepOutput:
        """One continual training step on newly arrived raw data.

        ``inputs`` carries all observation channels, ``targets`` only the
        target channel (the shapes produced by the streaming datasets).
        The step is replay-augmented exactly like Algorithm 1: replayed
        windows are retrieved and mixed in, the combined task+SSL loss is
        back-propagated, gradients are clipped and the shared optimizer
        steps; the new windows then enter the replay buffer for future
        retrieval.

        ``graph`` optionally runs the whole step (prediction and
        contrastive branches) on an updated :class:`repro.graph.Graph`;
        ``traced`` overrides compiled execution for this step only (see
        :meth:`predict`).
        """
        if traced is not None:
            with traced_execution(traced):
                return self.update(inputs, targets, set_name=set_name, graph=graph)
        if not hasattr(self.model, "training_step"):
            raise ConfigurationError(
                f"{type(self.model).__name__} does not support online updates; "
                "serve a URCLModel (or another model exposing training_step)"
            )
        inputs, single = self._coerce_windows(inputs)
        targets = np.asarray(targets, dtype=float)
        if single:
            targets = targets[None]
        scaled_inputs = self.scaler.transform(inputs)
        scaled_targets = self.scaler.transform_channel(targets, self.target_channel)
        self.model.train(True)
        step = self.model.training_step(
            scaled_inputs, scaled_targets, set_name=set_name, graph=graph
        )
        self.model.zero_grad()
        step.total_loss.backward()
        if self.training.grad_clip > 0:
            clip_grad_norm(self.model.parameters(), self.training.grad_clip)
        self.optimizer.step()
        return step

    # ------------------------------------------------------------------ #
    # In-memory rollback state
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Copy the mutable learned state (parameters + optimizer slots).

        Taken by the serving engine's update lane before every online
        update, so a crash mid-step can roll back with
        :meth:`restore_state` and never publish half-stepped Adam moments.
        Deliberately excludes the replay buffer: extra buffered windows
        after a failed step are harmless, while torn weights are not.
        """
        state = {"model": self.model.state_dict()}
        if self._optimizer is not None:
            state["optimizer"] = self._optimizer.state_dict()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` copy in place (bit-exact)."""
        self.model.load_state_dict(state["model"])
        if "optimizer" in state and self._optimizer is not None:
            self._optimizer.load_state_dict(state["optimizer"])

    # ------------------------------------------------------------------ #
    # Durable state
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the full serving state to ``path`` (a directory).

        When :meth:`fit` has run, the trainer's progress (completed stream
        periods, partial results, shuffle stream) is included, so a loaded
        forecaster's next ``fit`` continues the stream instead of
        retraining the base set.
        """
        checkpoint = Checkpoint(meta={"kind": "forecaster"})
        ckpt.pack_dtype(checkpoint)
        ckpt.pack_model(checkpoint, self.model)
        ckpt.pack_scaler(checkpoint, self.scaler)
        ckpt.pack_network(checkpoint, self.network)
        rng_roots = {"model": self.model}
        if self._trainer is not None:
            rng_roots["trainer"] = self._trainer._rng
            checkpoint.meta["progress"] = {
                "completed_sets": self._trainer.completed_sets,
                "result": None
                if self._trainer._partial_result is None
                else self._trainer._partial_result.to_state(),
            }
        ckpt.pack_rng(checkpoint, rng_roots)
        if self._optimizer is not None:
            ckpt.pack_optimizer(checkpoint, self._optimizer)
        if getattr(self.model, "buffer", None) is not None:
            ckpt.pack_buffer(checkpoint, self.model.buffer)
        checkpoint.meta["target_channel"] = self.target_channel
        checkpoint.meta["training"] = self.training.to_dict()
        return checkpoint.save(path)

    @classmethod
    def load(cls, path: "str | Path | Checkpoint", network=None) -> "Forecaster":
        """Rebuild a forecaster saved by :meth:`save`.

        Also opens trainer checkpoints written by
        ``ContinualTrainer.save_checkpoint(..., scenario=...)`` — the
        bundle layout is shared — so a killed training run can be served
        directly from its last checkpoint.  An already loaded
        :class:`Checkpoint` is accepted to avoid re-reading the bundle.

        ``network`` optionally supplies a *shared* sensor network (the
        multi-tenant pool's): the stored adjacency is validated against it
        and the model is rebuilt on the shared graph, so diffusion supports
        are built once per process instead of once per tenant.
        """
        checkpoint = path if isinstance(path, Checkpoint) else Checkpoint.load(path)
        ckpt.apply_dtype(checkpoint)
        network = ckpt.unpack_network(checkpoint, shared=network)
        model = ckpt.unpack_model(checkpoint, network=network, rng=0)
        scaler = ckpt.unpack_scaler(checkpoint)
        if scaler is None:
            # Serving without the training-time scaler would silently feed
            # raw data to a model trained on scaled inputs.
            raise ConfigurationError(
                "checkpoint has no scaler section and cannot be served; save it "
                "through Forecaster.save or ContinualTrainer.save_checkpoint("
                "..., scenario=...), or wrap the model in Forecaster(...) manually"
            )
        training = TrainingConfig.from_dict(checkpoint.meta.get("training", {}))
        forecaster = cls(
            model,
            scaler=scaler,
            target_channel=int(checkpoint.meta.get("target_channel", 0)),
            training=training,
        )
        optimizer_entry = checkpoint.meta.get("optimizer")
        if optimizer_entry is not None:
            # Recreate the *stored* optimizer type (fit/update may have used
            # SGD or AdamW); load_state_dict then restores its hypers.
            forecaster._optimizer = ckpt.make_optimizer(
                optimizer_entry.get("type", "Adam"), model.parameters()
            )
            ckpt.unpack_optimizer(checkpoint, forecaster._optimizer)
        if getattr(model, "buffer", None) is not None:
            ckpt.unpack_buffer(checkpoint, model.buffer)
        rng_roots = {"model": model}
        progress = checkpoint.meta.get("progress")
        if progress is not None:
            # Rebuild the trainer so the next fit() continues the stream
            # (both forecaster bundles and trainer checkpoints carry this).
            trainer = ContinualTrainer(model, forecaster.training,
                                       optimizer=forecaster.optimizer)
            trainer._completed_sets = int(progress.get("completed_sets", 0))
            result_state = progress.get("result")
            if result_state is not None:
                trainer._partial_result = ContinualResult.from_state(result_state)
            forecaster._trainer = trainer
            rng_roots["trainer"] = trainer._rng
        ckpt.unpack_rng(checkpoint, rng_roots)
        return forecaster
