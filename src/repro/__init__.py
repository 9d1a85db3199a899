"""URCL — Unified Replay-based Continuous Learning for Spatio-Temporal
Prediction on Streaming Data (ICDE 2024 reproduction).

Quickstart: the :class:`~repro.serve.Forecaster` facade wraps a model, its
fitted scaler and the sensor graph behind raw-data verbs::

    from repro import Forecaster, load_dataset, build_streaming_scenario

    dataset = load_dataset("pems08", num_days=8, num_nodes=24)
    scenario = build_streaming_scenario(dataset)   # Bset + I1..I4 (Fig. 5)

    forecaster = Forecaster.from_scenario(scenario)
    result = forecaster.fit(scenario)              # continual training (Alg. 1)
    print(result.mae_by_set())

    y = forecaster.predict(raw_window)             # un-scaled in, un-scaled out
    forecaster.update(new_inputs, new_targets)     # replay-augmented online step
    forecaster.save("artifacts/model")             # durable checkpoint bundle
    same = Forecaster.load("artifacts/model")      # bit-identical predict()

Model registry
--------------
Every model in the zoo registers under a string key and round-trips through
a declarative config — the layer checkpoints are built on::

    from repro import build_model, available_models

    model = build_model("dcrnn", {"in_channels": 2, "input_steps": 12},
                        network=scenario.network, rng=0)
    clone = build_model("dcrnn", model.to_config(), network=scenario.network)

Checkpoint / resume
-------------------
``ContinualTrainer.run(..., checkpoint_dir=...)`` persists the complete
training state (model, Adam moments, replay buffer, every RNG stream, the
library dtype) after every stream period; ``ContinualTrainer.resume(path,
scenario)`` continues a killed run *bit-exactly*.  The CLI exposes the whole
loop: ``python -m repro train / resume / predict``.

Precision switch
----------------
The tensor engine runs at ``float64`` by default.  Switching the library to
single precision roughly doubles training throughput (see
``benchmarks/bench_hot_path.py``) while keeping MAE/RMSE/MAPE within 1e-3
of the double-precision results::

    from repro.tensor import set_default_dtype, default_dtype

    set_default_dtype("float32")   # everything created from now on is f32
    model = URCLModel(...)         # parameters, activations, gradients and
                                   # optimizer state are all float32

    with default_dtype("float32"):  # or scope the switch to one experiment
        result = ContinualTrainer(model, TrainingConfig()).run(scenario)

Models must be *created* under the dtype they should train with: the switch
affects tensor creation, so an existing float64 model keeps its dtype.

Sparse spatial engine
---------------------
Spatial mixing runs on a sparse-native kernel: diffusion supports are built
as ``scipy.sparse`` CSR matrices (:mod:`repro.graph.sparse`), multiplied
against activations through the differentiable :func:`repro.tensor.spmm`
op, and cached on the :class:`repro.graph.Graph` they were built from, so a
graph never rebuilds its power series.  Supports auto-densify above a density
(nnz/size) of 0.1 because dense BLAS wins on small or dense graphs;
``repro.graph.sparse.set_spatial_mode`` can force either path.  See ``benchmarks/bench_spatial.py`` for the measured
crossover.
"""

from . import augmentation, core, data, experiments, graph, models, nn, replay, serve, tensor, utils
from .core import (
    ContinualResult,
    ContinualTrainer,
    FinetuneSTStrategy,
    OneFitAllStrategy,
    PredictionMetrics,
    TrainingConfig,
    URCLConfig,
    URCLModel,
)
from .data import build_streaming_scenario, list_datasets, load_dataset
from .graph import SensorNetwork
from .models import available_models, build_model
from .serve import EngineConfig, Forecaster, ModelPool, ServingEngine, ShardedForecaster

__version__ = "1.0.0"

__all__ = [
    "augmentation",
    "core",
    "data",
    "experiments",
    "graph",
    "models",
    "nn",
    "replay",
    "serve",
    "tensor",
    "utils",
    "Forecaster",
    "ServingEngine",
    "EngineConfig",
    "ModelPool",
    "ShardedForecaster",
    "available_models",
    "build_model",
    "ContinualResult",
    "ContinualTrainer",
    "FinetuneSTStrategy",
    "OneFitAllStrategy",
    "PredictionMetrics",
    "TrainingConfig",
    "URCLConfig",
    "URCLModel",
    "build_streaming_scenario",
    "list_datasets",
    "load_dataset",
    "SensorNetwork",
    "__version__",
]
