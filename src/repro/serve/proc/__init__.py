"""Process-parallel serving: shared-memory plane, SPSC rings, seqlock updates.

See :class:`ProcessServingEngine` for the engine and the sibling modules
for the moving parts: :mod:`~repro.serve.proc.shm` (segments + manifests +
leak-proof lifecycle), :mod:`~repro.serve.proc.plane` (published model
plane and the single-writer weight lane), :mod:`~repro.serve.proc.ring`
(request/response rings), :mod:`~repro.serve.proc.metrics` (per-worker
metric shards) and :mod:`~repro.serve.proc.worker` (the worker process).
"""

from .engine import ProcessServingEngine, resolve_start_method
from .metrics import WorkerMetricsPlane, WorkerMetricsShard
from .plane import ModelPlane, PlaneView
from .ring import SpscRing

__all__ = [
    "ProcessServingEngine",
    "resolve_start_method",
    "ModelPlane",
    "PlaneView",
    "SpscRing",
    "WorkerMetricsPlane",
    "WorkerMetricsShard",
]
