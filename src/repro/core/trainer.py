"""Continual training loop for URCL (Algorithm 1) with durable checkpoints."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from ..data.loader import DataLoader
from ..data.streaming import StreamingScenario, StreamSet
from ..exceptions import TrainingError
from ..nn.optim import Adam, Optimizer, clip_grad_norm
from ..utils.checkpoint import Checkpoint
from ..utils.logging import get_logger
from ..utils.random import get_rng
from . import checkpoint as ckpt
from .config import TrainingConfig
from .evaluation import evaluate_after_set, evaluate_model_on_sets
from .results import ContinualResult, SetResult
from .urcl import URCLModel

__all__ = ["ContinualTrainer"]

_LOGGER = get_logger("trainer")


class ContinualTrainer:
    """Drive a :class:`URCLModel` through a streaming scenario.

    The trainer keeps one optimizer alive across all stream periods (the
    model is *continually* updated, never re-initialised), selects batches
    sequentially as prescribed by Algorithm 1 and records the loss history,
    training time and inference latency needed to reproduce Figs. 7 and 8.

    Long streaming runs are durable: :meth:`run` can write a checkpoint
    after every stream period, and :meth:`resume` rebuilds a trainer from
    such a checkpoint so a killed run continues *bit-exactly* — parameters,
    optimizer moments, replay buffer and every RNG stream are restored, so
    the continued run produces the same :class:`ContinualResult` as an
    uninterrupted one.
    """

    def __init__(
        self,
        model: URCLModel,
        training: TrainingConfig | None = None,
        rng=None,
        optimizer: Optimizer | None = None,
    ):
        self.model = model
        self.training = training or TrainingConfig()
        self.optimizer = optimizer or Adam(
            model.parameters(),
            lr=self.training.learning_rate,
            weight_decay=self.training.weight_decay,
        )
        self._rng = get_rng(rng if rng is not None else self.training.seed)
        # Progress state (advanced by run(), persisted by save_checkpoint()).
        self._completed_sets = 0
        self._partial_result: ContinualResult | None = None
        # Mid-set progress: set only between mid-epoch checkpoints of the
        # current period (None at every set boundary).
        self._mid_set: dict | None = None

    # ------------------------------------------------------------------ #
    def _train_one_epoch(
        self,
        stream_set: StreamSet,
        history: list[float] | None = None,
        order: np.ndarray | None = None,
        start_batch: int = 0,
        on_batch=None,
    ) -> list[float]:
        history = [] if history is None else history
        # Algorithm 1 selects batches sequentially from the stream; shuffling
        # within a period is allowed (and is essential when
        # ``max_batches_per_epoch`` caps the per-epoch work at reduced scale,
        # otherwise only the earliest windows of the period would be seen).
        loader = DataLoader(
            stream_set.train,
            batch_size=self.training.batch_size,
            shuffle=self.training.shuffle_batches,
            rng=self._rng,
        )
        if order is None:
            order = loader.draw_order()
        for batch_index, batch in enumerate(
            loader.iter_batches(order, start_batch=start_batch), start=start_batch
        ):
            if (
                self.training.max_batches_per_epoch is not None
                and batch_index >= self.training.max_batches_per_epoch
            ):
                break
            step = self.model.training_step(batch.inputs, batch.targets, set_name=stream_set.name)
            self.model.zero_grad()
            step.total_loss.backward()
            if self.training.grad_clip > 0:
                clip_grad_norm(self.model.parameters(), self.training.grad_clip)
            self.optimizer.step()
            history.append(float(step.total_loss.item()))
            if on_batch is not None:
                on_batch(batch_index, order)
        return history

    def train_on_set(
        self,
        stream_set: StreamSet,
        set_index: int,
        mid_state: dict | None = None,
        checkpoint_fn=None,
    ) -> tuple[list[float], float, int]:
        """Train on one stream period; returns (loss history, seconds, epochs).

        ``mid_state`` continues a period interrupted mid-epoch: completed
        epochs are skipped, the interrupted epoch replays its *saved*
        window order from the batch after the checkpointed one (the
        restored RNG stream has already consumed that epoch's shuffle), and
        the previously recorded losses/train time are carried over — the
        completed period is bit-identical to an uninterrupted one.
        ``checkpoint_fn`` (used by :meth:`run`) is called after every
        optimizer step with a zero-argument builder of the mid-set progress
        dict; whoever saves assigns it to ``self._mid_set`` first.
        """
        epochs = self.training.epochs_for(set_index)
        if mid_state is not None:
            history = [
                float("nan") if value is None else float(value)
                for value in mid_state.get("losses", [])
            ]
            base_seconds = float(mid_state.get("train_seconds", 0.0))
            resume_epoch = int(mid_state["epoch_index"])
            resume_batch = int(mid_state["batch_index"]) + 1
            resume_order = np.asarray(mid_state["order"], dtype=int)
        else:
            history = []
            base_seconds = 0.0
            resume_epoch, resume_batch, resume_order = 0, 0, None
        start = time.perf_counter()
        for epoch_index in range(resume_epoch, epochs):
            if epoch_index == resume_epoch and resume_order is not None:
                order, start_batch = resume_order, resume_batch
            else:
                order, start_batch = None, 0
            on_batch = None
            if checkpoint_fn is not None:

                def on_batch(batch_index, epoch_order, epoch_index=epoch_index):
                    checkpoint_fn(
                        lambda: {
                            "set_index": set_index,
                            "epoch_index": epoch_index,
                            "batch_index": int(batch_index),
                            "order": np.asarray(epoch_order).tolist(),
                            "losses": list(history),
                            "train_seconds": base_seconds
                            + (time.perf_counter() - start),
                        }
                    )

            self._train_one_epoch(
                stream_set, history, order=order, start_batch=start_batch, on_batch=on_batch
            )
        elapsed = base_seconds + (time.perf_counter() - start)
        self._mid_set = None
        return history, elapsed, epochs

    # ------------------------------------------------------------------ #
    def run(
        self,
        scenario: StreamingScenario,
        method_name: str = "URCL",
        checkpoint_dir: str | Path | None = None,
        max_sets: int | None = None,
        scenario_info: dict | None = None,
        checkpoint_every_n_batches: int | None = None,
    ) -> ContinualResult:
        """Process every stream period in order (Fig. 5 protocol).

        Parameters
        ----------
        checkpoint_dir:
            When given, the full trainer state is saved here after *every*
            stream period, so the run survives being killed at any set
            boundary (:meth:`resume` continues it).
        max_sets:
            Stop after this many total stream periods (counting ones
            completed before a resume); ``None`` processes the whole
            scenario.  The returned result is partial in that case and the
            next :meth:`run` call picks up where this one stopped.
        scenario_info:
            Optional JSON-serialisable description of how to rebuild the
            scenario (dataset name, scale, seed); stored verbatim in the
            checkpoint for CLI-driven resumes.
        checkpoint_every_n_batches:
            Additionally checkpoint after every ``n`` optimizer steps
            (requires ``checkpoint_dir``).  Very long periods then survive
            a kill at *any* batch, not just set boundaries: the bundle
            records the position inside the period (epoch, batch, the
            epoch's window order, losses so far) and :meth:`resume`
            continues from the step after it, bit-exactly.
        """
        if checkpoint_every_n_batches is not None:
            if checkpoint_dir is None:
                raise TrainingError(
                    "checkpoint_every_n_batches requires checkpoint_dir"
                )
            if checkpoint_every_n_batches < 1:
                raise TrainingError(
                    f"checkpoint_every_n_batches must be >= 1, "
                    f"got {checkpoint_every_n_batches}"
                )
        dataset_name = scenario.spec.name if scenario.spec else "custom"
        if self._partial_result is not None:
            result = self._partial_result
            method_name = result.method
        else:
            result = ContinualResult(method=method_name, dataset=dataset_name)
            self._partial_result = result
        checkpoint_fn = None
        if checkpoint_every_n_batches is not None:
            steps = {"count": 0}

            def checkpoint_fn(make_mid_state):
                steps["count"] += 1
                if steps["count"] % checkpoint_every_n_batches:
                    return
                self._mid_set = make_mid_state()
                self.save_checkpoint(
                    checkpoint_dir, scenario=scenario, scenario_info=scenario_info
                )

        last_set = len(scenario.sets) if max_sets is None else min(max_sets, len(scenario.sets))
        for set_index in range(self._completed_sets, last_set):
            stream_set = scenario.sets[set_index]
            mid_state = None
            if self._mid_set is not None:
                if int(self._mid_set.get("set_index", -1)) != set_index:
                    raise TrainingError(
                        f"checkpoint records mid-set progress for set "
                        f"{self._mid_set.get('set_index')} but training is at set {set_index}"
                    )
                mid_state = self._mid_set
            history, seconds, epochs = self.train_on_set(
                stream_set, set_index, mid_state=mid_state, checkpoint_fn=checkpoint_fn
            )
            # Passed by this module's name: benchmarks/e2e/trace.py times
            # evaluation by wrapping ``repro.core.trainer.evaluate_model_on_sets``.
            metrics, inference = evaluate_after_set(
                self.model.backbone, scenario, set_index, self.training,
                score=evaluate_model_on_sets,
            )
            _LOGGER.info(
                "%s | %s | %s | train %.1fs", method_name, dataset_name, stream_set.name, seconds
            )
            result.add(
                SetResult(
                    name=stream_set.name,
                    metrics=metrics,
                    epochs=epochs,
                    train_seconds=seconds,
                    loss_history=history,
                    inference_seconds_per_window=inference,
                )
            )
            self._completed_sets = set_index + 1
            if checkpoint_dir is not None:
                self.save_checkpoint(checkpoint_dir, scenario=scenario, scenario_info=scenario_info)
        return result

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    @property
    def completed_sets(self) -> int:
        """Number of stream periods fully processed so far."""
        return self._completed_sets

    def save_checkpoint(
        self,
        path: str | Path,
        scenario: StreamingScenario | None = None,
        scenario_info: dict | None = None,
    ) -> Path:
        """Persist the complete training state to ``path``.

        The bundle contains the model config + parameters, Adam moments and
        step count, replay-buffer contents, every RNG stream, the library
        dtype, the training config and the per-set results so far.  When
        ``scenario`` is given its scaler, network and target channel are
        included too, which makes the checkpoint directly loadable by
        :class:`repro.serve.Forecaster`.
        """
        checkpoint = Checkpoint(meta={"kind": "trainer"})
        ckpt.pack_dtype(checkpoint)
        ckpt.pack_model(checkpoint, self.model)
        ckpt.pack_optimizer(checkpoint, self.optimizer)
        ckpt.pack_rng(checkpoint, {"trainer": self._rng, "model": self.model})
        if getattr(self.model, "buffer", None) is not None:
            ckpt.pack_buffer(checkpoint, self.model.buffer)
        checkpoint.meta["training"] = self.training.to_dict()
        checkpoint.meta["progress"] = {
            "completed_sets": self._completed_sets,
            "result": None if self._partial_result is None else self._partial_result.to_state(),
            "mid_set": self._mid_set,
        }
        if scenario is not None:
            ckpt.pack_scaler(checkpoint, scenario.scaler)
            ckpt.pack_network(checkpoint, scenario.network)
            if scenario.spec is not None:
                checkpoint.meta["target_channel"] = scenario.spec.target_channel
        else:
            ckpt.pack_network(checkpoint, self.model.network)
        if scenario_info is not None:
            checkpoint.meta["scenario"] = scenario_info
        return checkpoint.save(path)

    @classmethod
    def resume(
        cls,
        path: "str | Path | Checkpoint",
        scenario: StreamingScenario | None = None,
    ) -> "ContinualTrainer":
        """Rebuild a trainer from :meth:`save_checkpoint` output.

        Restores the library dtype first (parameters keep their exact
        bits), rebuilds the model through the registry, then loads the
        optimizer slots, replay buffer, RNG streams and progress.  Calling
        :meth:`run` afterwards continues the stream bit-exactly where the
        checkpointed run stopped.  An already loaded :class:`Checkpoint`
        is accepted to avoid re-reading the bundle.
        """
        checkpoint = path if isinstance(path, Checkpoint) else Checkpoint.load(path)
        ckpt.apply_dtype(checkpoint)
        network = scenario.network if scenario is not None else ckpt.unpack_network(checkpoint)
        model = ckpt.unpack_model(checkpoint, network=network, rng=0)
        training = TrainingConfig.from_dict(checkpoint.meta.get("training", {}))
        trainer = cls(model, training)
        ckpt.unpack_optimizer(checkpoint, trainer.optimizer)
        if getattr(model, "buffer", None) is not None:
            ckpt.unpack_buffer(checkpoint, model.buffer)
        ckpt.unpack_rng(checkpoint, {"trainer": trainer._rng, "model": model})
        progress = checkpoint.meta.get("progress", {})
        trainer._completed_sets = int(progress.get("completed_sets", 0))
        result_state = progress.get("result")
        if result_state is not None:
            trainer._partial_result = ContinualResult.from_state(result_state)
        trainer._mid_set = progress.get("mid_set")
        return trainer
