"""Footprint guard: a training step and a served predict load no module they do not use.

networkx is an optional extra (only ``SensorNetwork.to_networkx`` needs it)
and ``scipy.sparse.csgraph`` only backs ``Graph.hop_matrix``; importing them
with the package cost ~23 MB of resident memory and ~0.27 s in every
process, workers included.  The check runs in a fresh interpreter because
the test session itself imports networkx for its oracles.
"""

import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("networkx", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")

SCRIPT = f"""
import sys

import numpy as np

from repro import Forecaster, URCLModel, load_dataset

dataset = load_dataset("pems08", num_days=1, num_nodes=56)
spec = dataset.spec
model = URCLModel(dataset.network, in_channels=spec.num_channels,
                  input_steps=spec.input_steps, output_steps=spec.output_steps,
                  out_channels=1, rng=0)
series = dataset.series
horizon = spec.input_steps + spec.output_steps
inputs = np.stack([series[t : t + spec.input_steps] for t in range(4)])
targets = np.stack([series[t + spec.input_steps : t + horizon, :, :1] for t in range(4)])
model.training_step(inputs, targets).total_loss.backward()
Forecaster(model).predict(series[: spec.input_steps])
print(" ".join(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_runtime_path_imports_no_heavy_module():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=50
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [], f"loaded at run time: {result.stdout.strip()}"
