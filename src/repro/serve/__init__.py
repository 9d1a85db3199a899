"""Serving layer: the :class:`Forecaster` facade plus the serving engine.

``repro.serve`` wraps a trained model, its fitted scaler and the sensor
network behind one object with a raw-data interface::

    from repro.serve import Forecaster

    forecaster = Forecaster.from_scenario(scenario)
    forecaster.fit(scenario)                 # continual training (Fig. 5)
    y = forecaster.predict(raw_window)       # un-scaled in, un-scaled out
    forecaster.update(new_inputs, targets)   # replay-augmented online step
    forecaster.save("artifacts/model")       # durable checkpoint bundle
    same = Forecaster.load("artifacts/model")

On top of the facade sits the process-level serving stack::

    from repro.serve import EngineConfig, ModelPool, ServingEngine

    pool = ModelPool(max_bytes=512 << 20)            # LRU over tenants,
    pool.register("tenant-a", "artifacts/tenant-a")  # one shared graph
    pool.register("tenant-b", "artifacts/tenant-b")

    with ServingEngine(pool, EngineConfig(max_batch_size=32,
                                          max_delay_ms=5.0,
                                          shards=2)) as engine:
        future = engine.submit(raw_window, tenant="tenant-a")  # micro-batched
        y = future.result()
        engine.update(new_inputs, targets, tenant="tenant-a")  # serialized lane

Requests coalesce in a work-conserving dynamic micro-batcher (a request
waits for company only while every worker is busy, and then at most
``max_delay_ms``), tenants share one CSR graph (supports built once), and
node-sharded serving runs each shard's forward on its own node rows and
stitches the predictions bit-exactly.
"""

from .batching import DynamicBatcher, MicroBatch, PendingRequest
from .engine import EngineConfig, ServingEngine
from .faults import FaultInjector, FaultPlan
from .forecaster import Forecaster, impute_missing
from .loadgen import build_synthetic_tenants, run_closed_loop, run_fault_storm
from .metrics import EngineMetrics
from .sharding import Shard, ShardedForecaster, ShardPlan, ShardPlanner
from .tenancy import (
    CircuitBreaker,
    ModelPool,
    PoolEntry,
    TokenBucket,
    forecaster_nbytes,
    historical_average,
)

# Imported last: the proc subpackage builds on the modules above.
from .proc import ModelPlane, PlaneView, ProcessServingEngine  # noqa: E402

__all__ = [
    "Forecaster",
    "ServingEngine",
    "ProcessServingEngine",
    "ModelPlane",
    "PlaneView",
    "EngineConfig",
    "DynamicBatcher",
    "MicroBatch",
    "PendingRequest",
    "EngineMetrics",
    "ModelPool",
    "PoolEntry",
    "forecaster_nbytes",
    "FaultPlan",
    "FaultInjector",
    "CircuitBreaker",
    "TokenBucket",
    "historical_average",
    "impute_missing",
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "ShardedForecaster",
    "run_closed_loop",
    "build_synthetic_tenants",
    "run_fault_storm",
]
