"""Cross-process metrics: one shared-memory shard row per worker.

Each worker owns one row (single-writer, no locks): a block of int64
counters it increments and a small float64 ring of per-batch predict
latencies.  The parent merges all rows into the ``workers`` section of
``ProcessServingEngine.metrics()`` and into ``health()`` so process-mode serving
reports worker-side truth (batches actually served, padding overhead,
weight-generation refreshes, predict-time percentiles) instead of only the
parent's settle-side view.
"""

from __future__ import annotations

import numpy as np

from ..metrics import percentiles
from . import shm as shmlib

__all__ = ["WorkerMetricsPlane", "WorkerMetricsShard", "COUNTERS"]

# Counter block layout (int64), one row per worker.
COUNTERS = (
    "heartbeat",        # bumped every loop iteration: liveness signal
    "batches",          # micro-batches served
    "requests",         # windows served (sum of batch counts)
    "errors",           # batches answered with an error response
    "refreshes",        # weight-generation refreshes observed
    "padded_windows",   # filler windows added to reach a bucket size
    "latency_count",    # total latency samples ever recorded
)
_NUM_COUNTERS = 8  # round up for alignment headroom
LATENCY_SLOTS = 512

_ROW_NBYTES = (
    (_NUM_COUNTERS * 8 + shmlib.ALIGN - 1) // shmlib.ALIGN * shmlib.ALIGN
    + LATENCY_SLOTS * 8
)


class WorkerMetricsPlane:
    """Parent side: create/attach the all-workers metrics segment."""

    def __init__(self, segment, num_workers: int, owner: bool):
        self._segment = segment
        self.num_workers = int(num_workers)
        self.owner = owner

    @classmethod
    def create(cls, num_workers: int) -> "WorkerMetricsPlane":
        segment = shmlib.create_segment(num_workers * _ROW_NBYTES, tag="metrics")
        plane = cls(segment, num_workers, owner=True)
        np.ndarray(
            num_workers * _ROW_NBYTES, dtype=np.uint8, buffer=segment.buf
        )[:] = 0
        return plane

    @classmethod
    def attach(cls, spec: tuple) -> "WorkerMetricsPlane":
        name, num_workers = spec
        return cls(shmlib.attach(name), num_workers, owner=False)

    @property
    def spec(self) -> tuple:
        return (self._segment.name, self.num_workers)

    @property
    def name(self) -> str:
        return self._segment.name

    def shard(self, worker_index: int) -> "WorkerMetricsShard":
        return WorkerMetricsShard(self._segment, worker_index)

    # -------------------------------------------------------------- #
    def read(self, worker_index: int) -> dict:
        """One worker's counters + latency percentiles (parent side)."""
        shard = self.shard(worker_index)
        counters = {name: int(shard.counters[i]) for i, name in enumerate(COUNTERS)}
        samples = shard.latency_samples()
        counters["predict_latency_ms"] = percentiles([s * 1e3 for s in samples])
        return counters

    def merged(self) -> dict:
        """Sum counters across workers; pool latency samples for percentiles."""
        totals = dict.fromkeys(COUNTERS, 0)
        samples: list[float] = []
        per_worker = []
        for index in range(self.num_workers):
            row = self.read(index)
            per_worker.append(row)
            for name in COUNTERS:
                totals[name] += row[name]
            samples.extend(self.shard(index).latency_samples())
        totals.pop("heartbeat", None)
        totals["predict_latency_ms"] = percentiles([s * 1e3 for s in samples])
        totals["per_worker"] = per_worker
        return totals

    def close(self) -> None:
        shmlib.close_quietly(self._segment)

    def unlink(self) -> None:
        shmlib.close_quietly(self._segment)
        shmlib.unlink_quietly(self._segment)


class WorkerMetricsShard:
    """One worker's single-writer row."""

    def __init__(self, segment, worker_index: int):
        base = int(worker_index) * _ROW_NBYTES
        self.counters = np.ndarray(
            _NUM_COUNTERS, dtype=np.int64, buffer=segment.buf, offset=base
        )
        lat_offset = base + _ROW_NBYTES - LATENCY_SLOTS * 8
        self.latencies = np.ndarray(
            LATENCY_SLOTS, dtype=np.float64, buffer=segment.buf, offset=lat_offset
        )
        self._index = {name: i for i, name in enumerate(COUNTERS)}

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[self._index[name]] += amount

    def record_latency(self, seconds: float) -> None:
        count = int(self.counters[self._index["latency_count"]])
        self.latencies[count % LATENCY_SLOTS] = seconds
        self.counters[self._index["latency_count"]] = count + 1

    def latency_samples(self) -> list[float]:
        count = int(self.counters[self._index["latency_count"]])
        filled = min(count, LATENCY_SLOTS)
        return [float(v) for v in self.latencies[:filled]]

    def release(self) -> None:
        self.counters = None
        self.latencies = None
