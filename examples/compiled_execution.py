"""Compiled execution: tape capture + replay of the served predict.

Tracing is on by default and applies to eval-mode ``no_grad`` forwards —
what ``predict`` runs.  The first predict per (model, kind, shape, dtype,
knobs) key records the op graph, every later call replays prebuilt NumPy
kernels with no per-op Python dispatch.  Training (``update``) always runs
on the autograd tape.  This example makes the machinery visible: it runs an
online predict/update loop eagerly and traced, times the predict calls,
verifies the two paths agree bit-for-bit, and dumps the program-cache
counters that the serving engine exposes.

Run with::

    python examples/compiled_execution.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import TrainingConfig, URCLConfig, URCLModel, build_streaming_scenario, load_dataset
from repro.models.stencoder import STEncoderConfig
from repro.serve import Forecaster
from repro.tensor import (
    clear_program_cache,
    program_cache_stats,
    set_traced_execution,
    traced_execution,
)

WARMUP = 10  # first predicts capture; excluded from the timing
STEPS = 20   # steady state: every predict replays


def build_forecaster(seed: int = 0) -> tuple[Forecaster, np.ndarray, np.ndarray]:
    dataset = load_dataset("pems08", num_days=4, num_nodes=20, seed=3)
    scenario = build_streaming_scenario(dataset)
    model = URCLModel(
        scenario.network,
        in_channels=dataset.spec.num_channels,
        input_steps=dataset.spec.input_steps,
        output_steps=dataset.spec.output_steps,
        config=URCLConfig(
            encoder=STEncoderConfig(),
            buffer_capacity=64,
            replay_sample_size=4,
            rmir_candidate_pool=8,
        ),
        rng=seed,
    )
    forecaster = Forecaster(
        model,
        scaler=scenario.scaler,
        target_channel=dataset.spec.target_channel,
        training=TrainingConfig(batch_size=8),
    )
    spec = dataset.spec
    series = dataset.series
    total = WARMUP + STEPS
    windows = np.stack(
        [series[s : s + spec.input_steps] for s in range(total)]
    )
    targets = np.stack(
        [
            series[
                s + spec.input_steps : s + spec.input_steps + spec.output_steps,
                :,
                spec.target_channel : spec.target_channel + 1,
            ]
            for s in range(total)
        ]
    )
    return forecaster, windows, targets


def run_loop(forecaster: Forecaster, windows: np.ndarray, targets: np.ndarray):
    """Serving loop (predict each window, fold it back in); returns the
    predictions and the seconds spent in predict after warmup."""
    predictions = []
    predict_secs = 0.0
    for i in range(WARMUP + STEPS):
        start = time.perf_counter()
        predictions.append(forecaster.predict(windows[i : i + 1]))
        if i >= WARMUP:
            predict_secs += time.perf_counter() - start
        forecaster.update(windows[i : i + 1], targets[i : i + 1])
    return np.stack(predictions), predict_secs


def main() -> None:
    # Eager reference: the escape hatch disables capture inside the block.
    forecaster, windows, targets = build_forecaster()
    with traced_execution(False):
        eager_out, eager_secs = run_loop(forecaster, windows, targets)
    print(f"eager : {STEPS / eager_secs:6.1f} predicts/s")

    # Traced run from identical initial state (same seed, same RNG streams):
    # the first predict captures, the rest replay.
    set_traced_execution(True)
    clear_program_cache()
    forecaster, windows, targets = build_forecaster()
    traced_out, traced_secs = run_loop(forecaster, windows, targets)
    print(f"traced: {STEPS / traced_secs:6.1f} predicts/s")

    assert np.array_equal(eager_out, traced_out), "replay must be bit-identical"
    print("bit-parity: traced predictions identical to eager")

    stats = program_cache_stats()
    interesting = (
        "captures", "replays", "structure_hits",
        "shape_misses", "eager_calls", "untraceable", "entries", "bytes",
    )
    print("program cache:", {key: stats[key] for key in interesting})


if __name__ == "__main__":
    main()
