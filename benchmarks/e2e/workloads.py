"""The five workloads, as run inside one fresh subprocess each.

``run_workload`` is the child side of ``run.py``: it builds the workload's
inputs from the seed, stamps the end of set-up, drives the public API
(``ContinualTrainer.run`` or an engine's ``submit``/``update``), checks the
outputs and returns plain numbers.  See ``README.md`` for why each workload
exists and what every metric means on it.
"""

from __future__ import annotations

import itertools
import math
import resource
import threading
import time

import numpy as np

from repro.core.config import TrainingConfig, URCLConfig
from repro.core.trainer import ContinualTrainer
from repro.core.urcl import URCLModel
from repro.data.datasets import load_dataset
from repro.data.streaming import build_streaming_scenario
from repro.graph.sparse import support_cache_stats
from repro.nn.optim import Adam
from repro.serve import (
    DynamicBatcher, EngineConfig, PendingRequest, ProcessServingEngine, ServingEngine,
)
from repro.serve.loadgen import build_synthetic_tenants
from repro.serve.proc import ring as ringlib
from repro.tensor import default_dtype, program_cache_stats, traced_execution

from . import loadgen
from .trace import Recorder

# Sizes at the reference run length; ``--seconds`` scales them linearly.
REFERENCE_SECONDS = 10.0

STREAM_WORKLOADS = {
    "stream_small": dict(
        dataset="pems04", num_nodes=20, num_days=6, periods=5,
        epochs_base=3, epochs_incremental=2, steps_per_epoch=4,
        eval_max_windows=96, urcl=dict(buffer_capacity=128, replay_sample_size=8),
    ),
    "stream_wide": dict(
        dataset="pems08", num_nodes=56, num_days=3, periods=2,
        # Three days hold 11 training batches in Bset and 6 in I1: 10 + 6 steps.
        epochs_base=1, epochs_incremental=1, steps_per_epoch=10,
        eval_max_windows=96, urcl={},
    ),
}

BATCH_SIZE = 16
PARITY_LOSSES = 6

ENGINE_CONFIG = dict(max_batch_size=16, max_delay_ms=2.0, num_workers=1)
REFERENCE_RATE = 300.0
# Offered rate -> share of the run's seconds spent at it.
LADDER = {150.0: 0.15, REFERENCE_RATE: 0.5, 600.0: 0.15}
BURST_SIZE = 512
UPDATE_PERIOD_S = 0.5
UPDATE_WINDOWS = 8
WARMUP_REQUESTS = 300
WARMUP_RATE = 600.0
WARMUP_BURSTS = 2


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child), MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


class TimedAdam(Adam):
    """Adam that notes when each step finished (one clock read per step)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: list[float] = []

    def step(self) -> None:
        super().step()
        self.stamps.append(time.perf_counter())


# -------------------------------------------------------------------- #
# stream_small / stream_wide
# -------------------------------------------------------------------- #
def _build_stream(spec: dict, seed: int, scale: float, base_only: bool):
    dataset = load_dataset(
        spec["dataset"], num_days=spec["num_days"], num_nodes=spec["num_nodes"], seed=seed
    )
    scenario = build_streaming_scenario(dataset)
    training = TrainingConfig(
        epochs_base=spec["epochs_base"],
        epochs_incremental=spec["epochs_incremental"],
        batch_size=BATCH_SIZE,
        max_batches_per_epoch=max(1, round(spec["steps_per_epoch"] * scale)),
        eval_max_windows=spec["eval_max_windows"],
        seed=seed,
    )
    data = scenario.spec
    model = URCLModel(
        scenario.network,
        in_channels=data.num_channels,
        input_steps=data.input_steps,
        output_steps=data.output_steps,
        out_channels=1,
        config=URCLConfig(**spec["urcl"]),
        rng=seed,
    )
    optimizer = TimedAdam(
        model.parameters(), lr=training.learning_rate, weight_decay=training.weight_decay
    )
    trainer = ContinualTrainer(model, training, optimizer=optimizer)
    periods = 1 if base_only else spec["periods"]
    return scenario, trainer, optimizer, periods


def run_stream(name: str, seed: int, scale: float, mode: str, started_at: float,
               recorder: Recorder | None) -> dict:
    """``ContinualTrainer.run`` over the stream, float32, default knobs.

    ``mode="eager"`` runs only the base period with compiled execution off
    and returns its losses: the reference the traced run must match.
    """
    spec = STREAM_WORKLOADS[name]
    eager = mode == "eager"
    with default_dtype("float32"), traced_execution(not eager):
        scenario, trainer, optimizer, periods = _build_stream(spec, seed, scale, eager)
        setup_s = time.time() - started_at
        if mode == "setup":
            return {"setup_s": setup_s}
        programs_before, supports_before = program_cache_stats(), support_cache_stats()
        run_start = time.perf_counter()
        result = trainer.run(scenario, max_sets=periods)
        run_s = time.perf_counter() - run_start
    rss = peak_rss_mb()
    losses = result.loss_curve()
    if eager:
        return {"losses": losses[:PARITY_LOSSES]}

    gaps_ms, position = [], 0
    for entry in result.sets:
        stamps = optimizer.stamps[position : position + len(entry.loss_history)]
        gaps_ms.extend(np.diff(stamps) * 1e3)
        position += len(entry.loss_history)
    if not gaps_ms:
        # One step per period (a very short run) leaves no gap inside a period.
        gaps_ms = [entry.train_seconds / len(entry.loss_history) * 1e3 for entry in result.sets]
    # Windows the run handled: each epoch trains on its capped share of the
    # period's training split, and after period k the cumulative protocol
    # scores the first k+1 test splits.
    training = trainer.training
    epoch_cap = training.max_batches_per_epoch * training.batch_size
    train_windows = sum(
        training.epochs_for(index) * min(len(stream_set.train), epoch_cap)
        for index, stream_set in enumerate(scenario.sets[:periods])
    )
    scored = list(itertools.accumulate(
        min(len(stream_set.test), spec["eval_max_windows"])
        for stream_set in scenario.sets[:periods]
    ))
    eval_windows = sum(scored)
    eval_seconds = sum(
        entry.inference_seconds_per_window * windows
        for entry, windows in zip(result.sets, scored)
    )
    failed = sum(1 for loss in losses if not math.isfinite(loss))
    values = {
        "setup_s": setup_s,
        "op_ms_p50": loadgen.percentile(gaps_ms, 50),
        "throughput_per_s": (train_windows + eval_windows) / run_s,
        "peak_rss_mb": rss,
    }
    details = {
        "stream_run_s": run_s,
        "train_seconds": sum(entry.train_seconds for entry in result.sets),
        "steps": len(losses),
        "step_gap_samples": len(gaps_ms),
        "train_step_ms_p95": loadgen.percentile(gaps_ms, 95),
        "train_windows": train_windows,
        "eval_windows": eval_windows,
        "eval_windows_per_s": eval_windows / eval_seconds,
        "final_mae": result.sets[-1].metrics.mae,
        "mae_by_set": result.mae_by_set(),
        "first_losses": losses[:PARITY_LOSSES],
        "nodes": spec["num_nodes"],
    }
    out = {
        "values": values,
        "details": details,
        "attempted": len(losses),
        "failed": failed,
        "checks": {"losses_finite": failed == 0},
    }
    if recorder is not None:
        out["layers"] = _stream_layers(
            recorder, len(losses), programs_before, supports_before, run_s, details
        )
    return out


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after[key] - before[key])


def _training_layers(recorder: Recorder, root: str, steps: int, programs_before: dict,
                     supports_before: dict) -> dict:
    """Per-layer numbers of the training path: totals of the spans under
    ``root`` per learning step (evaluation's forwards are not a step's), and
    deltas of the layers' own cache counters."""
    summary = recorder.summary(within=root, without="core.evaluate")

    def per_step(span: str, field: str = "total_ms") -> float:
        return summary[span][field] / steps if span in summary and steps else 0.0

    programs, supports = program_cache_stats(), support_cache_stats()
    captures = _delta(programs, programs_before, "captures")
    replays = _delta(programs, programs_before, "replays")
    builds = _delta(programs, programs_before, "instance_builds")
    executions = replays + captures + builds
    evaluate = recorder.summary().get("core.evaluate")
    return {
        "data.next_batch_ms": per_step("data.next_batch"),
        "core.training_step_self_ms": per_step("core.training_step", "self_ms"),
        "core.evaluate_ms": evaluate["total_ms"] / evaluate["calls"] if evaluate else 0.0,
        "replay.integrate_ms": per_step("replay.integrate"),
        "replay.sample_ms": per_step("replay.sample"),
        "replay.mixup_ms": per_step("replay.mixup"),
        "replay.buffer_add_ms": per_step("replay.buffer_add"),
        "augmentation.pipeline_ms": per_step("augmentation.pipeline"),
        "models.simsiam_loss_ms": per_step("models.simsiam_loss"),
        "tensor.forward_train_ms": per_step("tensor.forward_train"),
        "tensor.forward_nograd_ms": per_step("tensor.forward_nograd"),
        "tensor.backward_ms": per_step("tensor.backward"),
        "tensor.program.captures": captures,
        "tensor.program.replays": replays,
        "tensor.program.evictions": _delta(programs, programs_before, "evictions"),
        "tensor.program.shape_misses": _delta(programs, programs_before, "shape_misses"),
        "tensor.program.cache_bytes": float(programs["bytes"]),
        "tensor.program.replay_share": replays / executions if executions else 0.0,
        "nn.clip_ms": per_step("nn.clip"),
        "nn.optim_step_ms": per_step("nn.optim_step"),
        "graph.support_builds": _delta(supports, supports_before, "graph_support_builds"),
        "graph.delta_hits": _delta(supports, supports_before, "delta_hits"),
        "graph.dense_fallbacks": _delta(supports, supports_before, "dense_fallbacks"),
        "graph.support_evictions": _delta(supports, supports_before, "graph_support_evictions"),
    }


def _stream_layers(recorder, steps, programs_before, supports_before, run_s, details) -> dict:
    layers = _training_layers(recorder, "core.run", steps, programs_before, supports_before)
    summary = recorder.summary()
    root = summary["core.run"]
    layers.update({
        "replay.replayed_windows": float(recorder.replayed_windows),
        "core.stream_run_s": run_s,
        "core.final_mae": details["final_mae"],
        "core.train_step_ms_p95": details["train_step_ms_p95"],
        "trace.root_self_share": root["self_ms"] / root["total_ms"],
    })
    return layers


# -------------------------------------------------------------------- #
# serve_thread / serve_proc / serve_update
# -------------------------------------------------------------------- #
def _update_batches(scenario, count: int, rng: np.random.Generator) -> list:
    """``count`` batches of fresh raw windows with their true targets."""
    series, spec = scenario.raw_series, scenario.spec
    window, horizon, channel = spec.input_steps, spec.output_steps, spec.target_channel
    batches = []
    for _ in range(count):
        starts = rng.integers(0, series.shape[0] - window - horizon, size=UPDATE_WINDOWS)
        inputs = np.stack([series[s : s + window] for s in starts])
        targets = np.stack(
            [series[s + window : s + window + horizon, :, channel : channel + 1] for s in starts]
        )
        batches.append((inputs, targets))
    return batches


def _served(engine, windows, tenant) -> np.ndarray:
    futures = [engine.submit(window, tenant=tenant) for window in windows]
    return np.stack([future.result(timeout=loadgen.DRAIN_TIMEOUT_S) for future in futures])


def _warm_up(engine, windows, tenants, scale: float, rng) -> None:
    """Traffic before the clock starts: every batch size once per tenant (so
    every batch shape has its compiled program), then Poisson traffic and
    full bursts (so both flush paths have run)."""
    for tenant in tenants:
        for size in range(1, ENGINE_CONFIG["max_batch_size"] + 1):
            _served(engine, windows[:size], tenant)
    requests = max(int(WARMUP_REQUESTS * scale), 16)
    offsets = loadgen.poisson_schedule(rng, WARMUP_RATE, requests / WARMUP_RATE)
    loadgen.run_open_loop(engine, windows, tenants, offsets, WARMUP_RATE)
    for _ in range(max(1, round(WARMUP_BURSTS * scale))):
        loadgen.run_burst(engine, windows, tenants, BURST_SIZE)


def run_serve(name: str, seed: int, scale: float, mode: str, started_at: float,
              recorder: Recorder | None) -> dict:
    """Open-loop traffic through one engine; see the module docstring."""
    pool, windows, scenario = build_synthetic_tenants(
        num_tenants=2, num_nodes=24, request_windows=48, seed=seed
    )
    tenants = pool.resident
    config = EngineConfig(**ENGINE_CONFIG)
    direct = {
        tenant: np.stack([pool.forecaster(tenant).predict(window) for window in windows])
        for tenant in tenants
    }
    build_start = time.perf_counter()
    if name == "serve_proc":
        engine = ProcessServingEngine(pool, config, sample_windows=windows[:1])
    else:
        engine = ServingEngine(pool, config)
    engine_build_ms = (time.perf_counter() - build_start) * 1e3
    try:
        parity = all(
            np.array_equal(_served(engine, windows, tenant), direct[tenant])
            for tenant in tenants
        )
        _warm_up(engine, windows, tenants, scale, np.random.default_rng([seed, 0]))
        setup_s = time.time() - started_at
        if mode == "setup":
            return {"setup_s": setup_s}
        out = _drive(name, engine, windows, tenants, scenario, seed, scale, recorder)
        snapshot = engine.metrics() if name == "serve_proc" else engine.metrics.snapshot()
        if recorder is not None:
            out["layers"].update(_engine_layers(
                recorder, engine, snapshot, windows, scenario, seed, engine_build_ms
            ))
            if name != "serve_update":
                out["layers"]["serve.engine.overhead_ms_p50"] = (
                    out["layers"]["loadgen.rate150.p50_ms"]
                    - out["layers"]["serve.forecaster.predict_b1_ms"]
                )
    finally:
        engine.close()
    out["values"]["setup_s"] = setup_s
    out["values"]["peak_rss_mb"] = peak_rss_mb(children=True)
    out["checks"]["served_equals_direct"] = parity
    out["checks"]["engine_counted_updates"] = snapshot["updates"] == out["details"]["updates_issued"]
    out["details"]["engine"] = {
        key: snapshot[key]
        for key in ("submitted", "completed", "failed", "rejected", "batches",
                    "mean_batch_size", "size_flushes", "deadline_flushes", "updates",
                    "retried", "worker_restarts")
    }
    return out


def _drive(name, engine, windows, tenants, scenario, seed, scale, recorder) -> dict:
    """The timed phases.  Returns values, details, op counts and checks."""
    seconds = REFERENCE_SECONDS * scale
    programs_before, supports_before = program_cache_stats(), support_cache_stats()
    phases: dict[float, loadgen.PhaseResult] = {}
    bursts: list[dict] = []
    updates = {"issued": 0, "failed": 0, "durations_ms": []}
    if name == "serve_update":
        batches = _update_batches(
            scenario, max(1, round(seconds / UPDATE_PERIOD_S)), np.random.default_rng([seed, 9])
        )
        stop = threading.Event()
        updater = threading.Thread(
            target=lambda: updates.update(
                loadgen.run_updates(engine, batches, tenants, UPDATE_PERIOD_S, stop)
            ),
            name="bench-updater",
        )
        offsets = loadgen.poisson_schedule(np.random.default_rng([seed, 2]), REFERENCE_RATE, seconds)
        updater.start()
        try:
            phases[REFERENCE_RATE] = loadgen.run_open_loop(
                engine, windows, tenants, offsets, REFERENCE_RATE
            )
        finally:
            stop.set()
            updater.join()
    else:
        for index, (rate, share) in enumerate(LADDER.items(), start=1):
            offsets = loadgen.poisson_schedule(
                np.random.default_rng([seed, index]), rate, seconds * share
            )
            phases[rate] = loadgen.run_open_loop(engine, windows, tenants, offsets, rate)
        for _ in range(max(1, round(seconds))):
            bursts.append(loadgen.run_burst(engine, windows, tenants, BURST_SIZE))

    reference = phases[REFERENCE_RATE]
    # Under writes the engine's capacity shows as goodput: requests answered
    # within the limit of their due time, per second of offered traffic.
    goodput_rps = reference.ok_share * reference.sent / reference.issue_seconds
    details = {
        "phases": {f"rate{rate:g}": phase.summary() for rate, phase in phases.items()},
        "slo_ms": loadgen.SLO_MS,
        "slo_ok_share": reference.ok_share,
        "predict_ms_p50": loadgen.percentile(reference.latencies_ms, 50),
        "predict_ms_p95": loadgen.percentile(reference.latencies_ms, 95),
        "goodput_rps": goodput_rps,
        "reference_samples": int(reference.latencies_ms.size),
        "updates_issued": updates["issued"],
    }
    if bursts:
        details["bursts_rps"] = [burst["rps"] for burst in bursts]
        details["burst_drain_rps"] = loadgen.percentile(details["bursts_rps"], 50)
    if updates["issued"]:
        details["update_ms_p50"] = loadgen.percentile(updates["durations_ms"], 50)
    values = {
        "op_ms_p50": details["predict_ms_p50"],
        "throughput_per_s": goodput_rps if name == "serve_update" else details["burst_drain_rps"],
    }
    attempted = sum(phase.sent for phase in phases.values())
    attempted += sum(burst["sent"] for burst in bursts) + updates["issued"]
    missed = sum(phase.missed for phase in phases.values())
    missed += sum(b["refused"] + b["failed"] + b["lost"] for b in bursts) + updates["failed"]
    lost = sum(phase.lost for phase in phases.values()) + sum(b["lost"] for b in bursts)
    in_slo = [
        rate for rate, phase in phases.items()
        if phase.ok_share >= 0.99 and not phase.backlogged
    ]
    details["max_rate_in_slo_rps"] = max(in_slo, default=0.0)
    out = {
        "values": values,
        "details": details,
        "attempted": attempted,
        "failed": missed,
        "checks": {"no_lost_futures": lost == 0},
    }
    if recorder is not None:
        layers = _training_layers(
            recorder, "serve.engine.update", updates["issued"], programs_before,
            supports_before,
        )
        layers.update(_loadgen_layers(details))
        layers["replay.replayed_windows"] = float(recorder.replayed_windows)
        out["layers"] = layers
    return out


def _loadgen_layers(details: dict) -> dict:
    phases = details["phases"]
    reference = phases[f"rate{REFERENCE_RATE:g}"]
    layers = {
        "loadgen.late_ms_p99": reference["late_ms_p99"],
        "loadgen.achieved_offer_rps": reference["achieved_offer_rps"],
        "loadgen.predict_ms_p95": reference["p95_ms"],
        "loadgen.predict_ms_p99": reference["p99_ms"],
        "loadgen.goodput_rps": details["goodput_rps"],
        "loadgen.slo_ok_share": details["slo_ok_share"],
        "loadgen.burst_drain_rps": details.get("burst_drain_rps", 0.0),
        "loadgen.update_ms_p50": details.get("update_ms_p50", 0.0),
        "loadgen.max_rate_in_slo_rps": details["max_rate_in_slo_rps"],
        "serve.engine.submit_us_p50": reference["submit_us_p50"],
    }
    for rung in ("rate150", "rate600"):
        for key in ("p50_ms", "p95_ms", "ok_share"):
            if rung in phases:
                layers[f"loadgen.{rung}.{key}"] = phases[rung][key]
    return layers


def _timed_ms(function, repeats: int) -> float:
    """Median wall time of ``function()`` over ``repeats`` calls, in ms."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append((time.perf_counter() - start) * 1e3)
    return loadgen.percentile(samples, 50)


def _engine_layers(recorder, engine, snapshot, windows, scenario, seed,
                   engine_build_ms: float) -> dict:
    """Engine counters plus stand-alone timings of the serving layers' public
    classes, taken on the idle engine after the traffic has drained."""
    summary = recorder.summary()
    pool = engine.pool
    tenant = pool.resident[0]
    forecaster = pool.forecaster(tenant)
    plane = getattr(engine, "plane", None)
    inputs, targets = _update_batches(scenario, 1, np.random.default_rng([seed, 8]))[0]
    batch16 = windows[:16]

    def batcher_add_us() -> float:
        batcher = DynamicBatcher(max_batch_size=1 << 20, max_delay_ms=1e6)
        start = time.perf_counter()
        for index in range(1000):
            batcher.add(PendingRequest(window=windows[index % len(windows)], tenant=tenant))
        elapsed = time.perf_counter() - start
        batcher.close()
        return elapsed / 1000 * 1e6

    def ring_roundtrip_us() -> float:
        nbytes = ringlib.request_slot_nbytes(16, batch16[0].nbytes)
        ring = ringlib.SpscRing.create(4, nbytes, tag="bench")
        try:
            start = time.perf_counter()
            for index in range(200):
                ringlib.pack_request(ring.try_reserve(), index, 0, batch16)
                ring.commit_push()
                ringlib.read_request(ring.try_peek(), batch16.shape[1:], batch16.dtype)
                ring.commit_pop()
            return (time.perf_counter() - start) / 200 * 1e6
        finally:
            ring.unlink()

    layers = {
        "serve.engine.mean_batch_size": float(snapshot["mean_batch_size"]),
        "serve.engine.size_flushes": float(snapshot["size_flushes"]),
        "serve.engine.deadline_flushes": float(snapshot["deadline_flushes"]),
        "serve.engine.rejected": float(snapshot["rejected"]),
        "serve.engine.retried": float(snapshot["retried"]),
        "serve.engine.worker_restarts": float(snapshot["worker_restarts"]),
        "serve.forecaster.predict_b1_ms": _timed_ms(lambda: forecaster.predict(windows[0]), 50),
        "serve.forecaster.predict_b16_ms": _timed_ms(
            lambda: forecaster.predict(batch16, batch_size=256), 20
        ),
        "serve.batching.add_us": batcher_add_us(),
        "serve.tenancy.pool_get_us": _timed_ms(lambda: pool.get(tenant), 1000) * 1e3,
    }
    if plane is not None:
        # Zero when the wrap target is gone: a missing span is never an error.
        publish_ms = summary.get("serve.proc.plane_publish", {"total_ms": 0.0})["total_ms"]
        layers.update({
            "serve.proc.plane_publish_ms": publish_ms,
            "serve.proc.plane_nbytes": float(plane.nbytes()),
            "serve.proc.worker_ready_ms": engine_build_ms - publish_ms,
            "serve.proc.ring_roundtrip_us": ring_roundtrip_us(),
            "serve.proc.weight_flip_ms": _timed_ms(
                lambda: plane.publish_weights(tenant, forecaster.model), 20
            ),
        })
    # Last: a direct update changes the model the timings above were taken on.
    layers["serve.forecaster.update_ms"] = _timed_ms(
        lambda: forecaster.update(inputs, targets), 3
    )
    return layers


def run_workload(name: str, seed: int, seconds: float, mode: str, started_at: float,
                 recorder: Recorder | None = None) -> dict:
    scale = seconds / REFERENCE_SECONDS
    runner = run_stream if name in STREAM_WORKLOADS else run_serve
    return runner(name, seed, scale, mode, started_at, recorder)
