"""Hot-path micro-benchmark: traced (compiled) vs eager, full step + hot loop.

Measures the numeric hot path on the Fig. 7 efficiency configuration (URCL
on PEMS04) in a 2x2 sweep — {float64, float32} x {eager, traced} — at two
granularities:

* **full step**: the complete URCL training step (RMIR retrieval, mixup,
  contrastive branch, backward, clipping, Adam) plus batched evaluation.
* **hot loop**: the backbone train step (forward, backward, clip, Adam) and
  the serving-shaped single-window predict.

Only serving compiles (``STModel.predict``, an eval-mode ``no_grad``
forward): training runs on the autograd tape and batched evaluation runs
the eager forward in both modes, so ``traced_speedup`` compares the one
forward that does compile, single-window ``predict``.  Training rates and
eval windows/s stay in the tables as context.

Timing methodology: shared-host CPU speed drifts minute to minute, so each
dtype's eager and traced runs are split into *interleaved rounds* (eager
round 1, traced round 1, eager round 2, ...) and the recorded rate is the
best round per mode — both modes sample the same wall-clock windows and a
slow period cannot penalise one mode only.

A third section, ``nograd_tax``, prices the canonical fixed-geometry gemm
that only ``no_grad`` forwards use: one model, one batch (B in {1, 16, 64}),
interleaved ``no_grad`` vs grad-mode eager forwards; the recorded ratio is
``no_grad`` time over grad-mode time (below 1 means inference is the cheaper
forward, as it should be — it skips the tape).  The run raises if a window's
``no_grad`` prediction inside the batch differs by one bit from the same
window predicted alone.

Traced and eager runs consume identical RNG streams, so the recorded final
losses double as a bit-parity check (``loss_bitwise_equal``).  The Table 3
smoke configuration is also trained at both dtypes and checked to agree
within 1e-3, so the speedups never silently trade away accuracy.

Results are printed as tables and appended to
``benchmarks/results/BENCH_hot_path.json`` so the perf trajectory is
recorded across PRs.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_hot_path.py --steps 40
"""

from __future__ import annotations

import argparse
import contextlib
import time

import numpy as np

from repro.core.evaluation import evaluate_model
from repro.core.trainer import ContinualTrainer
from repro.data.loader import DataLoader
from repro.experiments.common import make_scenario, make_training, make_urcl
from repro.experiments.reporting import format_table
from repro.nn.losses import mae_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.tensor import (
    Tensor,
    clear_program_cache,
    default_dtype,
    no_grad,
    program_cache_stats,
    run_compiled,
    traced_execution,
)

from records import append_record

DTYPES = ("float64", "float32")
MODES = ("eager", "traced")
ROUNDS = 4
NOGRAD_TAX_BATCHES = (1, 16, 64)

def _collect_batches(dataset, batch_size: int, steps: int, seed: int):
    """Materialise ``steps`` training batches (cycling the loader if short)."""
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=seed)
    batches = []
    iterator = iter(loader)
    while len(batches) < steps:
        try:
            batches.append(next(iterator))
        except StopIteration:
            iterator = iter(loader)
    return batches


def _round_slices(count: int, rounds: int) -> list[slice]:
    rounds = max(1, min(rounds, count))
    size = -(-count // rounds)  # ceil division
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _cache_summary() -> dict:
    stats = program_cache_stats()
    return {
        key: stats[key]
        for key in (
            "captures", "replays",
            "eager_calls", "untraceable", "shape_misses", "bytes",
        )
    }


class _FullStepRunner:
    """One mode's full URCL training run, steppable in timed rounds."""

    def __init__(self, dtype: str, steps: int, seed: int, dataset: str,
                 scale: str, traced: bool):
        self.dtype = dtype
        self.traced = traced
        with default_dtype(dtype), traced_execution(traced):
            self.scenario = make_scenario(dataset, scale, seed=seed + 7)
            self.training = make_training(scale, seed=seed)
            self.model = make_urcl(self.scenario, scale, seed=seed)
            self.trainer = ContinualTrainer(self.model, self.training)
            self.base = self.scenario.base_set
            self.batches = _collect_batches(
                self.base.train, self.training.batch_size, steps, seed
            )
        self.last_step = None

    def _one_step(self, batch):
        # Mirrors ContinualTrainer._train_one_epoch exactly, clipping included.
        step = self.model.training_step(
            batch.inputs, batch.targets, set_name=self.base.name
        )
        self.model.zero_grad()
        step.total_loss.backward()
        if self.training.grad_clip > 0:
            clip_grad_norm(self.model.parameters(), self.training.grad_clip)
        self.trainer.optimizer.step()
        return step

    def warmup(self) -> None:
        with default_dtype(self.dtype), traced_execution(self.traced):
            self._one_step(self.batches[0])

    def run_round(self, batch_slice: slice) -> tuple[int, float]:
        """Run a contiguous slice of the step stream; return (steps, seconds)."""
        batches = self.batches[batch_slice]
        with default_dtype(self.dtype), traced_execution(self.traced):
            start = time.perf_counter()
            for batch in batches:
                self.last_step = self._one_step(batch)
            return len(batches), time.perf_counter() - start

    def evaluate(self) -> tuple[int, float, float]:
        """Batched eval over the test split; return (windows, seconds, mae)."""
        with default_dtype(self.dtype), traced_execution(self.traced):
            start = time.perf_counter()
            metrics = evaluate_model(
                self.model.backbone,
                self.base.test,
                batch_size=self.training.eval_batch_size,
                scaler=self.scenario.scaler,
                target_channel=(
                    self.scenario.spec.target_channel if self.scenario.spec else None
                ),
            )
            elapsed = time.perf_counter() - start
        return len(self.base.test), elapsed, metrics.mae


class _HotLoopRunner:
    """One mode's hot loop: backbone train step + serving predict.

    This isolates the backbone's own train/predict loop from the URCL
    extras (RMIR scoring, contrastive branch) that surround it in the full
    step; of the two, only predict compiles.
    """

    def __init__(self, dtype: str, seed: int, dataset: str, scale: str,
                 traced: bool):
        self.dtype = dtype
        self.traced = traced
        with default_dtype(dtype), traced_execution(traced):
            scenario = make_scenario(dataset, scale, seed=seed + 7)
            training = make_training(scale, seed=seed)
            model = make_urcl(scenario, scale, seed=seed)
            self.backbone = model.backbone
            batch = _collect_batches(
                scenario.base_set.train, training.batch_size, 1, seed
            )[0]
            self.inputs, self.targets = batch.inputs, batch.targets
            self.window = np.asarray(batch.inputs[:1])
            self.grad_clip = training.grad_clip
            self.optimizer = Adam(
                self.backbone.parameters(),
                lr=training.learning_rate,
                weight_decay=training.weight_decay,
            )
        self.final_loss = None
        self.prediction = None

    def _one_step(self):
        predictions = run_compiled(
            self.backbone, self.backbone.forward, Tensor(self.inputs), kind="train"
        )
        loss = mae_loss(predictions, Tensor(self.targets))
        self.backbone.zero_grad()
        loss.backward()
        if self.grad_clip > 0:
            clip_grad_norm(self.backbone.parameters(), self.grad_clip)
        self.optimizer.step()
        return loss

    def warmup(self) -> None:
        with default_dtype(self.dtype), traced_execution(self.traced):
            self.backbone.train(True)
            self._one_step()
            self.backbone.train(False)
            self.backbone.predict(self.window)

    def run_train_round(self, iters: int) -> float:
        with default_dtype(self.dtype), traced_execution(self.traced):
            self.backbone.train(True)
            start = time.perf_counter()
            for _ in range(iters):
                loss = self._one_step()
            elapsed = time.perf_counter() - start
            self.final_loss = float(loss.item())
        return elapsed

    def run_predict_round(self, iters: int) -> float:
        with default_dtype(self.dtype), traced_execution(self.traced):
            self.backbone.train(False)
            start = time.perf_counter()
            for _ in range(iters):
                self.prediction = self.backbone.predict(self.window)
            return time.perf_counter() - start


def bench_full_step(dtype: str, steps: int, seed: int, dataset: str,
                    scale: str) -> dict:
    """Interleaved eager/traced sweep of the full URCL training step."""
    clear_program_cache()
    runners = {
        mode: _FullStepRunner(dtype, steps, seed, dataset, scale, mode == "traced")
        for mode in MODES
    }
    for runner in runners.values():
        runner.warmup()
    best = {mode: 0.0 for mode in MODES}
    for batch_slice in _round_slices(steps, ROUNDS):
        for mode, runner in runners.items():
            count, elapsed = runner.run_round(batch_slice)
            best[mode] = max(best[mode], count / elapsed)
    eval_best, eval_mae = {mode: 0.0 for mode in MODES}, {}
    for _ in range(2):  # two interleaved eval passes, best-of
        for mode, runner in runners.items():
            windows, elapsed, mae = runner.evaluate()
            eval_best[mode] = max(eval_best[mode], windows / elapsed)
            eval_mae[mode] = mae
    result = {}
    for mode, runner in runners.items():
        result[mode] = {
            "steps_per_sec": best[mode],
            "eval_windows_per_sec": eval_best[mode],
            "final_loss": runner.last_step.task_loss,
            "eval_mae": eval_mae[mode],
        }
    result["traced"]["program_cache"] = _cache_summary()
    return result


def bench_hot_loop(dtype: str, steps: int, seed: int, dataset: str,
                   scale: str) -> dict:
    """Interleaved eager/traced sweep of the backbone train/predict hot loop."""
    clear_program_cache()
    train_iters = max(steps // 2, 5)
    predict_iters = max(5 * steps, 25)
    runners = {
        mode: _HotLoopRunner(dtype, seed, dataset, scale, mode == "traced")
        for mode in MODES
    }
    for runner in runners.values():
        runner.warmup()
    train_best = {mode: 0.0 for mode in MODES}
    predict_best = {mode: 0.0 for mode in MODES}
    for _ in range(ROUNDS):
        for mode, runner in runners.items():
            train_best[mode] = max(
                train_best[mode], train_iters / runner.run_train_round(train_iters)
            )
        for mode, runner in runners.items():
            predict_best[mode] = max(
                predict_best[mode],
                predict_iters / runner.run_predict_round(predict_iters),
            )
    result = {}
    for mode, runner in runners.items():
        result[mode] = {
            "train_steps_per_sec": train_best[mode],
            "predict_windows_per_sec": predict_best[mode],
            "final_loss": runner.final_loss,
            "prediction_checksum": float(
                np.asarray(runner.prediction, dtype=np.float64).sum()
            ),
        }
    result["traced"]["program_cache"] = _cache_summary()
    return result


def bench_nograd_tax(dtype: str, steps: int, seed: int, dataset: str,
                     scale: str) -> dict:
    """Interleaved ``no_grad`` vs grad-mode eager forward, same model and batch."""
    with default_dtype(dtype), traced_execution(False):
        scenario = make_scenario(dataset, scale, seed=seed + 7)
        backbone = make_urcl(scenario, scale, seed=seed).backbone
        backbone.train(False)
        windows = _collect_batches(
            scenario.base_set.train, max(NOGRAD_TAX_BATCHES), 1, seed
        )[0].inputs
        scopes = {"no_grad": no_grad, "grad": contextlib.nullcontext}
        result = {}
        for size in NOGRAD_TAX_BATCHES:
            inputs = Tensor(windows[:size])
            iters = max(steps // 4, 2) * (4 if size == 1 else 1)
            best = {mode: float("inf") for mode in scopes}
            for round_index in range(ROUNDS + 1):
                for mode, scope in scopes.items():
                    with scope():
                        start = time.perf_counter()
                        for _ in range(iters):
                            backbone.forward(inputs)
                        elapsed = (time.perf_counter() - start) / iters
                    if round_index:  # round 0 warms both modes up
                        best[mode] = min(best[mode], elapsed)
            with no_grad():
                batched = backbone.forward(inputs).data
                direct = np.concatenate([
                    backbone.forward(Tensor(windows[i:i + 1])).data for i in range(size)
                ])
            if not np.array_equal(batched, direct):
                raise AssertionError(
                    f"no_grad forward at B={size} ({dtype}) is not bit-identical "
                    "to the same windows predicted one at a time"
                )
            result[str(size)] = {
                "nograd_ms": 1e3 * best["no_grad"],
                "grad_ms": 1e3 * best["grad"],
                "nograd_over_grad": best["no_grad"] / best["grad"],
                "batched_equals_direct": True,
            }
    return result


def bench_metric_parity(seed: int, dataset: str) -> dict:
    """Table 3 smoke run at both dtypes; returns metrics and max |diff|."""
    metrics_by_dtype = {}
    for dtype in DTYPES:
        with default_dtype(dtype):
            scenario = make_scenario(dataset, "smoke", seed=seed + 7)
            training = make_training("smoke", seed=seed)
            model = make_urcl(scenario, "smoke", seed=seed)
            result = ContinualTrainer(model, training).run(scenario)
            final = result.sets[-1].metrics
            metrics_by_dtype[dtype] = {
                "mae": final.mae,
                "rmse": final.rmse,
                "mape": final.mape,
            }
    reference, other = (metrics_by_dtype[name] for name in DTYPES)
    diffs = {
        key: abs(reference[key] - other[key])
        for key in reference
        if np.isfinite(reference[key]) and np.isfinite(other[key])
    }
    metrics_by_dtype["max_abs_diff"] = max(diffs.values()) if diffs else 0.0
    return metrics_by_dtype


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=40, help="training steps per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default="pems04", help="Fig. 7 uses PEMS04")
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    parser.add_argument("--skip-parity", action="store_true", help="skip the metric parity run")
    args = parser.parse_args(argv)

    record = {
        "benchmark": "hot_path",
        "dataset": args.dataset,
        "scale": args.scale,
        "steps": args.steps,
        "seed": args.seed,
        "timings": {},
        "hot_loop": {},
        "nograd_tax": {},
        "traced_speedup": {},
    }
    for dtype in DTYPES:
        record["timings"][dtype] = bench_full_step(
            dtype, args.steps, args.seed, args.dataset, args.scale
        )
        record["hot_loop"][dtype] = bench_hot_loop(
            dtype, args.steps, args.seed, args.dataset, args.scale
        )
        record["nograd_tax"][dtype] = bench_nograd_tax(
            dtype, args.steps, args.seed, args.dataset, args.scale
        )
        full, loop = record["timings"][dtype], record["hot_loop"][dtype]
        record["traced_speedup"][dtype] = {
            "predict": (
                loop["traced"]["predict_windows_per_sec"]
                / loop["eager"]["predict_windows_per_sec"]
            ),
            # Same seeds, same RNG streams: both modes must agree bit-for-bit.
            "loss_bitwise_equal": (
                full["traced"]["final_loss"] == full["eager"]["final_loss"]
                and loop["traced"]["final_loss"] == loop["eager"]["final_loss"]
            ),
        }
    if not args.skip_parity:
        record["metric_parity"] = bench_metric_parity(args.seed, args.dataset)

    headers = [
        "dtype", "mode", "full steps/s", "eval windows/s",
        "hot-loop steps/s", "predict/s", "final loss",
    ]
    rows = [
        [
            dtype,
            mode,
            record["timings"][dtype][mode]["steps_per_sec"],
            record["timings"][dtype][mode]["eval_windows_per_sec"],
            record["hot_loop"][dtype][mode]["train_steps_per_sec"],
            record["hot_loop"][dtype][mode]["predict_windows_per_sec"],
            record["timings"][dtype][mode]["final_loss"],
        ]
        for dtype in DTYPES
        for mode in MODES
    ]
    print(format_table(
        headers, rows,
        title=f"Hot path — URCL on {args.dataset} ({args.scale}), traced vs eager",
    ))
    for dtype in DTYPES:
        s = record["traced_speedup"][dtype]
        print(
            f"{dtype} traced speedup: {s['predict']:.2f}x predict "
            f"(bit-parity {'ok' if s['loss_bitwise_equal'] else 'FAILED'})"
        )
    for dtype in DTYPES:
        ratios = ", ".join(
            f"B={size} {tax['nograd_ms']:.2f}/{tax['grad_ms']:.2f} ms "
            f"= {tax['nograd_over_grad']:.2f}x"
            for size, tax in record["nograd_tax"][dtype].items()
        )
        print(f"{dtype} no_grad / grad-mode forward (batched == direct bits ok): {ratios}")
    if "metric_parity" in record:
        diff = record["metric_parity"]["max_abs_diff"]
        print(f"metric parity (Table 3 smoke): max |f32 - f64| = {diff:.2e}")

    append_record("hot_path", record)
    return record


if __name__ == "__main__":
    main()
