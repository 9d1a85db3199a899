"""Outside-in layer tracing for the benchmark's ``--trace`` run.

Nothing under ``src/`` is edited.  :func:`install` replaces public
attributes of the layers (a method on a class, or a module-level name the
caller imported) with wrappers that record one span per call: name, start,
end and the span that was open on the same thread when it started.  A
target that no longer exists is remembered in ``Recorder.missing`` and
skipped, so a refactor of the program cannot break the untraced numbers.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from pathlib import Path

from repro.tensor import is_grad_enabled


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        # One row per span: [name, start, end, parent index or None, thread id].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.replayed_windows = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        row = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        row[1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    # ---------------------------------------------------------------- #
    def summary(self, within: str | None = None, without: str | None = None) -> dict:
        """Per span name: calls, total and self milliseconds."""
        return summarize(self.spans, within, without)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write every span and the per-name summary to ``path`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "columns": ["name", "start_ms", "end_ms", "parent", "thread"],
            "spans": [
                [name, (start - origin) * 1e3, (end - origin) * 1e3, parent, thread]
                for name, start, end, parent, thread in self.spans
            ],
            "summary": self.summary(),
            "missing_targets": self.missing,
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans: list) -> list[float]:
    """Self seconds of every span: duration minus what its children cover.

    Children run on their parent's thread one after another, so the covered
    part of the parent's interval is the sum of the child durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans: list, within: str | None = None, without: str | None = None) -> dict:
    """Per span name: calls, total and self milliseconds.

    ``within`` keeps only spans at or below a span of that name, ``without``
    drops spans at or below a span of that name.  A parent is always
    recorded before its children, so one forward pass settles both.
    """
    own = self_times(spans)
    kept = []
    for name, _, _, parent, _ in spans:
        inside = name == within or (parent is not None and kept[parent][0])
        pruned = name == without or (parent is not None and kept[parent][1])
        kept.append((within is None or inside, pruned))
    table: dict[str, dict] = {}
    for (name, start, end, _, _), self_seconds, (inside, pruned) in zip(spans, own, kept):
        if not inside or pruned:
            continue
        row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1e3
        row["self_ms"] += self_seconds * 1e3
    return table


# -------------------------------------------------------------------- #
# Wrap targets: (module, dotted attribute, span name[, result hook]).  A span
# name may be a callable ``(args, kwargs) -> str`` when one function serves
# two layers; a result hook ``(recorder, result)`` counts work at the same
# boundary the span times.
# -------------------------------------------------------------------- #
def _compiled_kind(args, kwargs) -> str:
    """``run_compiled`` is the tensor engine's forward: split it by whether
    the call builds an autograd graph (train) or scores under ``no_grad``."""
    return "tensor.forward_train" if is_grad_enabled() else "tensor.forward_nograd"


def _count_replayed(recorder: "Recorder", step) -> None:
    recorder.replayed_windows += step.replay_samples


TARGETS = [
    ("repro.core.trainer", "ContinualTrainer.run", "core.run"),
    ("repro.core.trainer", "evaluate_model_on_sets", "core.evaluate"),
    ("repro.core.trainer", "clip_grad_norm", "nn.clip"),
    ("repro.serve.forecaster", "clip_grad_norm", "nn.clip"),
    ("repro.core.urcl", "URCLModel.training_step", "core.training_step", _count_replayed),
    ("repro.core.urcl", "URCLModel.integrate", "replay.integrate"),
    ("repro.core.urcl", "URCLModel.zero_grad", "nn.zero_grad"),
    ("repro.core.urcl", "run_compiled", _compiled_kind),
    ("repro.replay.sampling", "run_compiled", _compiled_kind),
    ("repro.models.base", "run_compiled", _compiled_kind),
    ("repro.replay.sampling", "RMIRSampler.sample", "replay.sample"),
    ("repro.replay.mixup", "STMixup.__call__", "replay.mixup"),
    ("repro.replay.buffer", "ReplayBuffer.add_batch", "replay.buffer_add"),
    ("repro.augmentation.pipeline", "AugmentationPipeline.__call__", "augmentation.pipeline"),
    ("repro.models.stsimsiam", "STSimSiam.loss", "models.simsiam_loss"),
    ("repro.tensor.tensor", "Tensor.backward", "tensor.backward"),
    ("repro.nn.optim", "Adam.step", "nn.optim_step"),
    ("repro.serve.engine", "ServingEngine.submit", "serve.engine.submit"),
    ("repro.serve.engine", "ServingEngine.update", "serve.engine.update"),
    ("repro.serve.proc.engine", "ProcessServingEngine.submit", "serve.engine.submit"),
    ("repro.serve.proc.engine", "ProcessServingEngine.update", "serve.engine.update"),
    ("repro.serve.batching", "DynamicBatcher.add", "serve.batching.add"),
    ("repro.serve.tenancy", "ModelPool.get", "serve.tenancy.pool_get"),
    ("repro.serve.forecaster", "Forecaster.predict", "serve.forecaster.predict"),
    ("repro.serve.forecaster", "Forecaster.update", "serve.forecaster.update"),
    ("repro.serve.proc.plane", "ModelPlane.publish", "serve.proc.plane_publish"),
    ("repro.serve.proc.plane", "ModelPlane.publish_weights", "serve.proc.weight_flip"),
]

# Generators are timed per item handed out, not per call.
GENERATOR_TARGETS = [
    ("repro.data.loader", "DataLoader.iter_batches", "data.next_batch"),
]


def _resolve(module_name: str, dotted: str):
    """``(owner, attribute name, current value)`` or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf, getattr(owner, leaf)


def _wrap_call(recorder: Recorder, function, name, on_result=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = recorder.open(name(args, kwargs) if callable(name) else name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if on_result is not None:
            on_result(recorder, result)
        return result
    return traced


def _wrap_generator(recorder: Recorder, function, name: str):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        iterator = function(*args, **kwargs)
        while True:
            index = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            yield item
    return traced


def install(recorder: Recorder) -> None:
    """Wrap every target that still exists; note the ones that do not."""
    for targets, wrap in ((TARGETS, _wrap_call), (GENERATOR_TARGETS, _wrap_generator)):
        for module_name, dotted, *rest in targets:
            found = _resolve(module_name, dotted)
            if found is None:
                recorder.missing.append(f"{module_name}:{dotted}")
                continue
            owner, leaf, function = found
            wrapped = wrap(recorder, function, *rest)
            # ``function`` is already bound for class and static methods.
            if isinstance(inspect.getattr_static(owner, leaf), (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)
            setattr(owner, leaf, wrapped)
