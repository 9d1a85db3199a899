"""Tests for the experiment command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "bench"
        assert args.seed == 0

    def test_options(self):
        args = build_parser().parse_args(
            ["fig8", "--scale", "smoke", "--seed", "3", "--output", "out.json"]
        )
        assert args.scale == "smoke" and args.seed == 3 and args.output == "out.json"


class TestMain:
    def test_list_experiments(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "table2" in output and "fig6" in output

    def test_no_experiment_lists(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_runs_table1_and_writes_json(self, tmp_path, capsys):
        output = tmp_path / "table1.json"
        assert main(["table1", "--scale", "smoke", "--output", str(output)]) == 0
        printed = capsys.readouterr().out
        assert "Table I" in printed
        payload = json.loads(output.read_text())
        assert payload["experiment"] == "table1"
        assert len(payload["rows"]) == 4

    def test_unknown_experiment_raises(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["table42", "--scale", "smoke"])

    def test_module_entry_point_reports_unknown_experiment(self):
        # ``python -m repro <unknown>`` exits 2 with the usage and the
        # experiment list on stderr, not a traceback.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "table42", "--scale", "smoke"],
            capture_output=True, text=True, env=env, timeout=50,
        )
        assert result.returncode == 2
        assert "usage: repro" in result.stderr
        assert "'table42'" in result.stderr and "table2" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


class TestServeParser:
    def test_train_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["train", "--checkpoint-dir", "d"])
        assert args.command == "train"
        assert args.dataset == "pems08" and args.scale == "smoke"
        assert args.sets is None and args.dtype is None

    def test_predict_options(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["predict", "--checkpoint-dir", "d", "--num-windows", "3", "--output", "p.json"]
        )
        assert args.num_windows == 3 and args.output == "p.json"

    def test_dtype_flag_on_legacy_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["table1", "--dtype", "float32"])
        assert args.dtype == "float32"


class TestServeWorkflow:
    """train -> resume -> predict end to end on the smoke scale."""

    def test_train_resume_predict(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--dataset", "pems08", "--scale", "smoke",
                     "--checkpoint-dir", str(ckpt), "--sets", "1"]) == 0
        out = capsys.readouterr().out
        assert "Bset" in out and "continue with" in out
        assert (ckpt / "checkpoint.json").is_file()

        assert main(["resume", "--checkpoint-dir", str(ckpt), "--sets", "2"]) == 0
        out = capsys.readouterr().out
        assert "I1" in out

        preds = tmp_path / "preds.json"
        assert main(["predict", "--checkpoint-dir", str(ckpt),
                     "--num-windows", "3", "--output", str(preds)]) == 0
        out = capsys.readouterr().out
        assert "predicted 3 window(s)" in out
        payload = json.loads(preds.read_text())
        assert payload["shape"][0] == 3
        assert len(payload["predictions"]) == 3

    def test_resume_without_scenario_info_fails_cleanly(self, tmp_path, capsys):
        from repro.utils.checkpoint import Checkpoint

        Checkpoint(meta={"kind": "trainer"}).save(tmp_path / "bare")
        assert main(["resume", "--checkpoint-dir", str(tmp_path / "bare")]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_predict_with_input_file(self, tmp_path, capsys):
        import numpy as np

        from repro.core.config import TrainingConfig, URCLConfig
        from repro.core.urcl import URCLModel
        from repro.data import load_dataset
        from repro.data.streaming import build_streaming_scenario
        from repro.models.stencoder import STEncoderConfig
        from repro.serve import Forecaster

        dataset = load_dataset("pems08", num_days=4, num_nodes=10, seed=3)
        scenario = build_streaming_scenario(dataset)
        spec = scenario.spec
        config = URCLConfig(
            encoder=STEncoderConfig(
                residual_channels=4, dilation_channels=4, skip_channels=8,
                end_channels=8, dilations=(1, 2), adaptive_embedding_dim=3,
            ),
            buffer_capacity=16,
            replay_sample_size=2,
        )
        model = URCLModel(
            scenario.network, in_channels=spec.num_channels,
            input_steps=spec.input_steps, output_steps=spec.output_steps,
            config=config, rng=0,
        )
        forecaster = Forecaster(model, scaler=scenario.scaler,
                                target_channel=spec.target_channel,
                                training=TrainingConfig())
        forecaster.save(tmp_path / "bundle")
        windows = scenario.raw_series[None, : spec.input_steps]
        np.save(tmp_path / "windows.npy", windows)
        assert main(["predict", "--checkpoint-dir", str(tmp_path / "bundle"),
                     "--input", str(tmp_path / "windows.npy")]) == 0
        assert "predicted 1 window(s)" in capsys.readouterr().out


class TestServingCommands:
    @pytest.fixture(scope="class")
    def trained_checkpoint(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("serve") / "ckpt"
        assert main(["train", "--dataset", "pems08", "--scale", "smoke",
                     "--checkpoint-dir", str(ckpt), "--sets", "1"]) == 0
        return ckpt

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["serve", "--checkpoint-dir", "d"])
        assert args.command == "serve"
        assert args.shards == 1 and args.workers == 2
        assert args.requests == 128 and args.duration is None

    @pytest.mark.parametrize("argv", [
        ["serve", "--checkpoint-dir", "d", "--rate", "5"],
        ["bench-serving"],
        ["bench-resilience"],
    ])
    def test_load_generation_commands_are_gone(self, argv, capsys):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_serve_over_a_trained_checkpoint(self, trained_checkpoint, tmp_path, capsys):
        stats = tmp_path / "serve.json"
        assert main(["serve", "--checkpoint-dir", str(trained_checkpoint),
                     "--requests", "24", "--concurrency", "4",
                     "--max-batch-size", "4", "--shards", "2",
                     "--num-windows", "6", "--output", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "req/s" in out and "batches:" in out
        payload = json.loads(stats.read_text())
        assert payload["loadgen"]["completed"] == 24
        assert payload["loadgen"]["failed"] == 0
        assert payload["engine"]["config"]["shards"] == 2

    def test_serve_for_a_duration(self, trained_checkpoint, tmp_path, capsys):
        stats = tmp_path / "serve.json"
        assert main(["serve", "--checkpoint-dir", str(trained_checkpoint),
                     "--concurrency", "2", "--num-windows", "4",
                     "--duration", "0.5", "--output", str(stats)]) == 0
        capsys.readouterr()
        loadgen = json.loads(stats.read_text())["loadgen"]
        assert loadgen["total_requests"] is None
        assert loadgen["duration_s"] == 0.5
        assert loadgen["failed"] == 0
        assert loadgen["completed"] > 0
