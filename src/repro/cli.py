"""Command-line interface: paper experiments plus the serving workflow.

Experiment reproduction (legacy surface, unchanged)::

    python -m repro table2 --scale smoke --seed 0
    python -m repro fig6 --scale bench --output results/fig6.json
    python -m repro --list

Streaming workflow (train once, kill/resume at any stream-period boundary,
then serve predictions from the same checkpoint)::

    python -m repro train --dataset pems08 --scale smoke --checkpoint-dir ckpt --sets 2
    python -m repro resume --checkpoint-dir ckpt
    python -m repro predict --checkpoint-dir ckpt --num-windows 8 --output preds.json

``--dtype float32`` switches the whole library to single precision before
anything is built (roughly 2x training throughput, see
``benchmarks/bench_hot_path.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .experiments import list_experiments, run_experiment
from .utils.serialization import save_json

__all__ = ["build_parser", "build_serve_parser", "main"]

_SERVE_COMMANDS = ("train", "resume", "predict", "serve")


def _add_dtype_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default=None,
        help="library default dtype (set before anything runs; f32 ~2x faster)",
    )


def _apply_dtype(dtype: str | None) -> None:
    if dtype is not None:
        from .tensor import set_default_dtype

        set_default_dtype(dtype)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the experiment CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'A Unified Replay-Based "
            "Continuous Learning Framework for Spatio-Temporal Prediction on "
            "Streaming Data' (ICDE 2024), or drive the train/resume/predict "
            "serving workflow."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment identifier ({', '.join(list_experiments())})",
    )
    parser.add_argument("--scale", default="bench", help="scale preset: smoke | bench | paper")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--output", default=None, help="optional path for a JSON dump of the raw results"
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    _add_dtype_flag(parser)
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for the ``train`` / ``resume`` / ``predict`` subcommands."""
    parser = argparse.ArgumentParser(prog="repro")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train", help="continually train a URCL forecaster with durable checkpoints"
    )
    train.add_argument("--dataset", default="pems08", help="registered dataset name")
    train.add_argument("--scale", default="smoke", help="scale preset: smoke | bench | paper")
    train.add_argument("--seed", type=int, default=0, help="random seed")
    train.add_argument(
        "--checkpoint-dir", required=True, help="directory for the checkpoint bundle"
    )
    train.add_argument(
        "--sets",
        type=int,
        default=None,
        help="stop after this many stream periods (resume continues later)",
    )
    _add_dtype_flag(train)

    resume = commands.add_parser(
        "resume", help="continue a checkpointed training run bit-exactly"
    )
    resume.add_argument("--checkpoint-dir", required=True, help="checkpoint to continue from")
    resume.add_argument(
        "--sets", type=int, default=None, help="total stream periods to stop after"
    )

    predict = commands.add_parser(
        "predict", help="serve predictions from a checkpointed forecaster"
    )
    predict.add_argument("--checkpoint-dir", required=True, help="checkpoint to load")
    predict.add_argument(
        "--num-windows",
        type=int,
        default=4,
        help="predict from the most recent windows of the checkpoint's stream",
    )
    predict.add_argument(
        "--input",
        default=None,
        help="optional .npy file of raw windows (batch, time, nodes, channels) "
        "used instead of the regenerated stream",
    )
    predict.add_argument("--batch-size", type=int, default=64, help="inference micro-batch size")
    predict.add_argument(
        "--output", default=None, help="optional path for a JSON dump of the predictions"
    )

    serve = commands.add_parser(
        "serve",
        help="run the async serving engine over a checkpoint with synthetic traffic",
    )
    serve.add_argument("--checkpoint-dir", required=True, help="checkpoint to serve")
    serve.add_argument("--requests", type=int, default=128, help="total requests to serve")
    serve.add_argument("--concurrency", type=int, default=8, help="closed-loop clients")
    serve.add_argument("--max-batch-size", type=int, default=16, help="micro-batch flush size")
    serve.add_argument("--max-delay-ms", type=float, default=5.0,
                       help="longest a request waits for company behind busy workers "
                            "(an idle worker takes it at once)")
    serve.add_argument("--workers", type=int, default=2, help="engine workers (threads or processes)")
    serve.add_argument("--shards", type=int, default=1, help="node shards (memory-sharded)")
    serve.add_argument(
        "--engine", choices=("thread", "process"), default="thread",
        help="worker plane: in-process threads or shared-memory worker processes",
    )
    serve.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"), default=None,
        help="multiprocessing start method for --engine process "
        "(default: REPRO_PROC_START_METHOD or fork)",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="sustained run: keep issuing for this many seconds instead of "
        "stopping at --requests",
    )
    serve.add_argument(
        "--num-windows", type=int, default=16,
        help="distinct request windows replayed from the checkpoint's stream",
    )
    serve.add_argument("--output", default=None, help="optional JSON dump of the serving stats")
    return parser


# ---------------------------------------------------------------------- #
# Serving workflow
# ---------------------------------------------------------------------- #
def _print_result(result) -> None:
    print(f"{result.method} on {result.dataset}: MAE per stream period")
    for name, mae in result.mae_by_set().items():
        print(f"  {name:>4}: {mae:9.4f}")


def _rebuild_scenario(info: dict):
    from .experiments.common import make_scenario

    return make_scenario(info["dataset"], info["scale"], seed=int(info["seed"]))


def _cmd_train(args: argparse.Namespace) -> int:
    _apply_dtype(args.dtype)
    from .core.trainer import ContinualTrainer
    from .experiments.common import make_scenario, make_training, make_urcl

    scenario_info = {"dataset": args.dataset, "scale": args.scale, "seed": args.seed + 7}
    scenario = _rebuild_scenario(scenario_info)
    training = make_training(args.scale, seed=args.seed)
    model = make_urcl(scenario, args.scale, seed=args.seed)
    trainer = ContinualTrainer(model, training)
    result = trainer.run(
        scenario,
        checkpoint_dir=args.checkpoint_dir,
        max_sets=args.sets,
        scenario_info=scenario_info,
    )
    _print_result(result)
    remaining = len(scenario.sets) - trainer.completed_sets
    if remaining:
        print(f"stopped after {trainer.completed_sets} sets ({remaining} remaining); "
              f"continue with: repro resume --checkpoint-dir {args.checkpoint_dir}")
    print(f"checkpoint written to {args.checkpoint_dir}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .core.trainer import ContinualTrainer
    from .utils.checkpoint import Checkpoint

    checkpoint = Checkpoint.load(args.checkpoint_dir)
    info = checkpoint.meta.get("scenario")
    if info is None:
        print("checkpoint does not record its scenario; resume it programmatically "
              "with ContinualTrainer.resume(path, scenario)", file=sys.stderr)
        return 1
    # Restore the dtype before regenerating the stream so every downstream
    # allocation matches the checkpointed run.
    _apply_dtype(checkpoint.meta.get("dtype"))
    scenario = _rebuild_scenario(info)
    trainer = ContinualTrainer.resume(checkpoint, scenario)
    if trainer.completed_sets >= len(scenario.sets):
        print("checkpointed run is already complete")
        _print_result(trainer.run(scenario))
        return 0
    result = trainer.run(
        scenario,
        checkpoint_dir=args.checkpoint_dir,
        max_sets=args.sets,
        scenario_info=info,
    )
    _print_result(result)
    print(f"checkpoint updated at {args.checkpoint_dir}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .serve import Forecaster
    from .utils.checkpoint import Checkpoint

    checkpoint = Checkpoint.load(args.checkpoint_dir)
    forecaster = Forecaster.load(checkpoint)
    if args.input is not None:
        windows = np.load(args.input)
    else:
        info = checkpoint.meta.get("scenario")
        if info is None:
            print("checkpoint does not record its scenario; pass --input with raw "
                  "windows instead", file=sys.stderr)
            return 1
        scenario = _rebuild_scenario(info)
        series = scenario.raw_series
        input_steps = forecaster.model.input_steps
        num_windows = max(int(args.num_windows), 1)
        if series is None or series.shape[0] < input_steps + num_windows - 1:
            print("stream too short for the requested number of windows", file=sys.stderr)
            return 1
        windows = np.stack(
            [
                series[series.shape[0] - input_steps - offset : series.shape[0] - offset]
                for offset in range(num_windows - 1, -1, -1)
            ]
        )
    predictions = forecaster.predict(windows, batch_size=args.batch_size)
    print(
        f"predicted {predictions.shape[0]} window(s) -> shape {predictions.shape}, "
        f"mean {predictions.mean():.4f}, min {predictions.min():.4f}, "
        f"max {predictions.max():.4f}"
    )
    if args.output:
        path = save_json(
            args.output,
            {
                "checkpoint": str(args.checkpoint_dir),
                "shape": list(predictions.shape),
                "predictions": predictions.tolist(),
            },
        )
        print(f"predictions written to {path}")
    return 0


def _windows_from_checkpoint(checkpoint, forecaster, num_windows: int):
    """Replay the most recent raw windows of the checkpoint's stream."""
    info = checkpoint.meta.get("scenario")
    if info is None:
        return None
    scenario = _rebuild_scenario(info)
    series = scenario.raw_series
    input_steps = forecaster.model.input_steps
    num_windows = max(int(num_windows), 1)
    if series is None or series.shape[0] < input_steps + num_windows - 1:
        return None
    return np.stack(
        [
            series[series.shape[0] - input_steps - offset : series.shape[0] - offset]
            for offset in range(num_windows - 1, -1, -1)
        ]
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import (
        EngineConfig,
        Forecaster,
        ProcessServingEngine,
        ServingEngine,
        run_closed_loop,
    )
    from .utils.checkpoint import Checkpoint

    checkpoint = Checkpoint.load(args.checkpoint_dir)
    forecaster = Forecaster.load(checkpoint)
    windows = _windows_from_checkpoint(checkpoint, forecaster, args.num_windows)
    if windows is None:
        print("checkpoint does not record a replayable scenario; nothing to serve",
              file=sys.stderr)
        return 1
    config = EngineConfig(
        max_batch_size=args.max_batch_size,
        max_delay_ms=args.max_delay_ms,
        num_workers=args.workers,
        shards=args.shards,
    )
    if args.engine == "process":
        engine = ProcessServingEngine(
            forecaster, config, sample_windows=windows[:1],
            start_method=args.start_method,
        )
    else:
        engine = ServingEngine(forecaster, config)
    with engine:
        result = run_closed_loop(
            engine,
            windows,
            concurrency=args.concurrency,
            total_requests=None if args.duration is not None else args.requests,
            duration_s=args.duration,
        )
        stats = engine.stats()
    label = f"serve[{args.engine}]"
    completed_of = result["total_requests"] if result["total_requests"] is not None else result["completed"]
    print(
        f"{label}: {result['completed']}/{completed_of} ok, "
        f"{result['throughput_rps']:8.1f} req/s | latency ms "
        f"p50 {result['latency_ms']['p50']:7.2f}  "
        f"p95 {result['latency_ms']['p95']:7.2f}  p99 {result['latency_ms']['p99']:7.2f}"
    )
    metrics = stats["metrics"]
    print(f"batches: {metrics['batches']} (mean size {metrics['mean_batch_size']:.2f}, "
          f"{metrics['size_flushes']} by size / {metrics['idle_flushes']} to an idle "
          f"worker / {metrics['deadline_flushes']} by deadline)")
    if args.output:
        path = save_json(args.output, {"loadgen": result, "engine": stats})
        print(f"serving stats written to {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SERVE_COMMANDS:
        args = build_serve_parser().parse_args(argv)
        handler = {
            "train": _cmd_train,
            "resume": _cmd_resume,
            "predict": _cmd_predict,
            "serve": _cmd_serve,
        }
        return handler[args.command](args)

    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_dtype(args.dtype)

    if args.list or args.experiment is None:
        for name in list_experiments():
            print(name)
        return 0

    result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
    print(result.get("formatted", ""))
    if args.output:
        # The formatted text is redundant in the JSON dump and continual-result
        # objects are not JSON-serialisable; keep only plain data.
        payload = {
            key: value
            for key, value in result.items()
            if key not in ("formatted", "continual_results")
        }
        path = save_json(args.output, payload)
        print(f"\nraw results written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
