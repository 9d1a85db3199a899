"""Process-parallel serving: the GIL-free transport of the serving engine.

:class:`ProcessServingEngine` is :class:`~repro.serve.engine.EngineCore` —
the request lifecycle the threaded :class:`~repro.serve.engine.ServingEngine`
runs, from the same code — with the fused forwards run in **worker
processes**, so K workers use K cores instead of time-slicing one.  This
module holds only that transport.

The data path never pickles an array:

* At construction the parent publishes the **model plane**
  (:class:`~repro.serve.proc.plane.ModelPlane`): weights behind per-tenant
  seqlocks, CSR supports inside serialized compiled programs, scaler
  statistics — all in named shared-memory segments workers map zero-copy.
* Each worker owns a **request ring and a response ring**
  (:class:`~repro.serve.proc.ring.SpscRing`): the parent-side dispatcher
  memcpy's a stacked micro-batch straight into a preallocated slot, the
  worker memcpy's predictions back.
* ``update()`` runs the shared serialized, rollback-protected update lane
  on the parent's model, then publishes by flipping the tenant's shared
  weight block behind its seqlock — workers pick the new generation up on
  their next batch without ever blocking a predict.

Parent-side threads are thin coordinators (batcher flusher, one dispatcher
+ one settler per worker, a supervisor that replaces dead or wedged worker
*processes* and requeues their in-flight batches); all model math happens
in the workers, so the parent's GIL is spent on bookkeeping only.

The in-process :class:`~repro.serve.engine.ServingEngine` remains the right
tool for a single tenant at K=1 — process workers buy nothing below two
cores of model work and cost fork/spawn startup plus one memcpy each way.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time

import numpy as np

from ...exceptions import (
    ConfigurationError,
    EngineClosed,
    InjectedFault,
    ServingError,
    ShapeError,
)
from ..batching import MicroBatch
from ..engine import _STOP, DEFAULT_TENANT, EngineConfig, EngineCore
from . import ring as ringlib
from .metrics import WorkerMetricsPlane
from .plane import ModelPlane
from .worker import worker_main

__all__ = ["ProcessServingEngine", "resolve_start_method"]

RING_CAPACITY = 32
READY_TIMEOUT_S = 120.0
# Batches a worker takes before a request is better off waiting for company:
# the one it is running plus one staged in its ring, so finishing a batch
# never leaves the process idle for a parent-side round trip.
WORKER_DEPTH = 2


def resolve_start_method(start_method: str | None = None) -> str:
    """Pick the multiprocessing start method for worker processes.

    Priority: explicit argument, then ``REPRO_PROC_START_METHOD`` in the
    environment, then ``fork`` where available (cheapest; workers are
    spawned before any parent serving thread exists, so fork-with-threads
    hazards don't apply), else the platform default.
    """
    method = start_method or os.environ.get("REPRO_PROC_START_METHOD") or ""
    available = multiprocessing.get_all_start_methods()
    if method:
        if method not in available:
            raise ConfigurationError(
                f"start method {method!r} not available (have {available})"
            )
        return method
    return "fork" if "fork" in available else multiprocessing.get_start_method()


class _ProcWorker:
    """One worker process plus its parent-side channels and bookkeeping."""

    __slots__ = (
        "index", "lock", "process", "requests", "responses",
        "request_event", "response_event", "ready_event",
        "inflight", "dispatcher", "settler",
    )

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.Lock()
        self.process = None
        self.requests = None
        self.responses = None
        self.request_event = None
        self.response_event = None
        self.ready_event = None
        # batch_id -> (MicroBatch, checked_out_at_monotonic)
        self.inflight: dict[int, tuple[MicroBatch, float]] = {}
        self.dispatcher: threading.Thread | None = None
        self.settler: threading.Thread | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def wedged(self, now: float, timeout: float) -> bool:
        return any(now - started > timeout for _, started in self.inflight.values())


class ProcessServingEngine(EngineCore):
    """Async serving over worker processes and shared-memory tensors.

    Parameters
    ----------
    source:
        A :class:`Forecaster` (served under the ``"default"`` tenant) or a
        prebuilt :class:`ModelPool`.  Every tenant must be resident: the
        plane is published once at construction, and tenants registered
        later cannot be served by already-running workers.
    config:
        The same :class:`~repro.serve.engine.EngineConfig` the threaded
        engine takes.  ``num_workers`` counts *processes*; ``shards > 1``
        shards node-wise inside each worker.
    faults:
        The same :class:`~repro.serve.faults.FaultPlan` /
        :class:`~repro.serve.faults.FaultInjector` the threaded engine
        takes.  Worker faults are drawn on the parent-side dispatcher: an
        injected crash kills the real worker process, an injected stall
        holds the batch back with its in-flight stamp already set.
    sample_windows:
        Optional raw windows used to warm the compiled predict path before
        publishing; zeros of the model's window shape are used otherwise.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; see
        :func:`resolve_start_method` for the default.

    Unlike the threaded engine, every request window must match the pool's
    fixed ``(input_steps, nodes, channels)`` shape exactly — ring slots are
    preallocated for it.
    """

    def __init__(self, source, config: EngineConfig | None = None, faults=None, *,
                 sample_windows=None, start_method: str | None = None):
        super().__init__(source, config, faults)
        self.start_method = resolve_start_method(start_method)
        self._ctx = multiprocessing.get_context(self.start_method)
        self._batch_seq = itertools.count()
        self._dispatch_abandon = threading.Event()
        self._settlers_stop = threading.Event()
        self._final_worker_metrics: dict | None = None
        self.metrics.sections["workers"] = self._workers_section
        self._workers = [_ProcWorker(i) for i in range(self.config.num_workers)]
        self.plane = self.worker_metrics = None
        try:
            self._start_workers(sample_windows)
        except BaseException:
            # Workers are daemons: left alone they would idle until the
            # parent exits, each holding its mappings open.
            for slot in self._workers:
                if slot.process is not None:
                    slot.process.kill()
                    slot.process.join()
            self._teardown_shared_memory()
            self._release_pool()
            raise
        for slot in self._workers:
            slot.dispatcher = threading.Thread(
                target=self._dispatch_loop, args=(slot,),
                name=f"repro-serve-dispatch-{slot.index}", daemon=True,
            )
            slot.settler = threading.Thread(
                target=self._settle_loop, args=(slot,),
                name=f"repro-serve-settle-{slot.index}", daemon=True,
            )
            slot.dispatcher.start()
            slot.settler.start()
        self._start_loops()

    # ------------------------------------------------------------------ #
    # Worker process lifecycle
    # ------------------------------------------------------------------ #
    def _start_workers(self, sample_windows) -> None:
        """Publish the plane (captures the compiled predict programs in the
        parent) and spawn every worker BEFORE any parent serving thread
        starts — fork is then safe and spawn sees a quiescent parent."""
        self.plane = ModelPlane.publish(
            self.pool,
            sample_windows=sample_windows,
            max_batch_size=self.config.max_batch_size,
        )
        meta = self.plane.spec["meta"]
        self._window_shape = tuple(meta["window_shape"])
        self._window_dtype = np.dtype(meta["window_dtype"])
        self._out_shape = tuple(meta["out_shape"])
        self._out_dtype = np.dtype(meta["out_dtype"])
        self._tenant_index = {t: i for i, t in enumerate(meta["tenants"])}
        for tenant in self._tenant_index:
            self._fallback_ctx[tenant] = (
                self._out_shape, meta["models"][tenant]["target_channel"]
            )
        window_nbytes = (
            int(np.prod(self._window_shape, dtype=np.int64))
            * self._window_dtype.itemsize
        )
        out_nbytes = (
            int(np.prod(self._out_shape, dtype=np.int64)) * self._out_dtype.itemsize
        )
        self._request_slot_nbytes = ringlib.request_slot_nbytes(
            self.config.max_batch_size, window_nbytes
        )
        self._response_slot_nbytes = ringlib.response_slot_nbytes(
            self.config.max_batch_size, out_nbytes
        )
        self._serving_spec = {"shards": self.config.shards}
        self.worker_metrics = WorkerMetricsPlane.create(self.config.num_workers)
        for slot in self._workers:
            self._make_channels(slot)
            self._spawn_process(slot)
        self._wait_ready()

    def _make_channels(self, slot: _ProcWorker) -> None:
        slot.requests = ringlib.SpscRing.create(
            RING_CAPACITY, self._request_slot_nbytes, tag=f"req{slot.index}"
        )
        slot.responses = ringlib.SpscRing.create(
            RING_CAPACITY, self._response_slot_nbytes, tag=f"resp{slot.index}"
        )
        slot.request_event = self._ctx.Event()
        slot.response_event = self._ctx.Event()
        slot.ready_event = self._ctx.Event()

    def _spawn_process(self, slot: _ProcWorker) -> None:
        process = self._ctx.Process(
            target=worker_main,
            args=(
                self.plane.spec,
                self._serving_spec,
                slot.requests.spec,
                slot.responses.spec,
                self.worker_metrics.spec,
                slot.index,
                slot.request_event,
                slot.response_event,
                slot.ready_event,
            ),
            name=f"repro-serve-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        slot.process = process

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for slot in self._workers:
            while not slot.ready_event.wait(0.1):
                if not slot.process.is_alive():
                    raise ServingError(
                        f"worker {slot.index} died during startup "
                        f"(exitcode {slot.process.exitcode}, "
                        f"start method {self.start_method!r})"
                    )
                if time.monotonic() > deadline:
                    raise ServingError(
                        f"worker {slot.index} failed to become ready within "
                        f"{READY_TIMEOUT_S:g}s"
                    )

    def _reap_workers(self, now: float) -> list[tuple[MicroBatch, BaseException]]:
        recovered = []
        for slot in self._workers:
            with slot.lock:
                alive = slot.alive()
                wedged = slot.wedged(now, self.config.wedge_timeout_s)
            if alive and wedged:
                # Processes, unlike threads, CAN be killed: terminate the
                # wedged worker and let the next pass find it dead.
                slot.process.terminate()
            elif not alive and not self._closed:
                recovered += self._restart_worker(slot)
        return recovered

    def _restart_worker(self, slot: _ProcWorker) -> list:
        """Replace one dead worker process; hand back its in-flight batches."""
        error = ServingError("worker process died while serving the batch")
        with slot.lock:
            old_requests, old_responses = slot.requests, slot.responses
            recovered = [(batch, error) for batch, _ in slot.inflight.values()]
            slot.inflight.clear()
            self._make_channels(slot)
            self._spawn_process(slot)
        old_requests.unlink()
        old_responses.unlink()
        self.metrics.record_worker_restart()
        return recovered

    # ------------------------------------------------------------------ #
    # Admission and update extras
    # ------------------------------------------------------------------ #
    def _validate(self, tenant: str, window: np.ndarray | None = None) -> None:
        if window is not None and tuple(window.shape) != self._window_shape:
            raise ShapeError(
                "process-parallel serving preallocates fixed-shape ring slots; "
                f"expected window shape {self._window_shape}, got {tuple(window.shape)}"
            )
        if tenant not in self._tenant_index:
            raise ConfigurationError(
                f"unknown tenant {tenant!r} (the plane was published for "
                f"{sorted(self._tenant_index)}; tenants cannot be added to a "
                "running process engine)"
            )

    def _publish(self, tenant: str, entry) -> None:
        # Flip the new weights into the tenant's shared segment behind its
        # seqlock: workers notice the generation bump on their next batch
        # and refresh without blocking — predicts in flight keep serving
        # the previous generation.
        self.plane.publish_weights(tenant, entry.forecaster.model)

    def weight_generation(self, tenant: str | None = None) -> int:
        """The tenant's current published weight generation (0 = initial)."""
        tenant = DEFAULT_TENANT if tenant is None else str(tenant)
        return self.plane.generation(tenant)

    # ------------------------------------------------------------------ #
    # One batch: dispatcher -> request ring -> worker -> response ring -> settler
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self, slot: _ProcWorker) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            try:
                self._serve_batch(slot, item)
            except InjectedFault:
                # The batch is stamped in flight: the supervisor finds the
                # worker dead and requeues it on the replacement.  Joined,
                # so the next batch pulled here cannot reach the corpse.
                process = slot.process
                process.kill()
                process.join()

    def _spare_capacity(self) -> bool:
        for slot in self._workers:
            with slot.lock:
                # A replacement still booting has nothing in flight either.
                if len(slot.inflight) < WORKER_DEPTH and slot.ready_event.is_set():
                    return True
        return False

    def _checkout(self, slot: _ProcWorker, batch: MicroBatch) -> int | None:
        # A replacement still booting cannot take the batch yet: wait for
        # it, so the wedge clock starts when the worker can start working.
        while not slot.ready_event.wait(0.05):
            if not slot.alive() or self._dispatch_abandon.is_set():
                return None
        with slot.lock:
            if not slot.alive():
                return None
            batch_id = next(self._batch_seq)
            slot.inflight[batch_id] = (batch, time.monotonic())
            return batch_id

    def _carry(self, slot: _ProcWorker, batch: MicroBatch, batch_id: int) -> None:
        stacked = np.ascontiguousarray(batch.stack(), dtype=self._window_dtype)
        while True:
            with slot.lock:
                if batch_id not in slot.inflight or not slot.alive():
                    # Recovered while an injected stall held it back, or
                    # about to be: the dead-worker pass owns it now.
                    return
                ring_slot = slot.requests.try_reserve()
                if ring_slot is not None:
                    ringlib.pack_request(
                        ring_slot, batch_id, self._tenant_index[batch.tenant], stacked
                    )
                    slot.requests.commit_push()
                    slot.request_event.set()
                    return
                if self._dispatch_abandon.is_set():
                    del slot.inflight[batch_id]
                    break
            time.sleep(0.0005)
        self._fail_batch(batch, EngineClosed("engine closed before the batch was served"))

    def _settle_loop(self, slot: _ProcWorker) -> None:
        while True:
            slot.response_event.wait(0.05)
            slot.response_event.clear()
            self._drain_responses(slot)
            if self._settlers_stop.is_set():
                self._drain_responses(slot)
                return

    def _drain_responses(self, slot: _ProcWorker) -> None:
        while True:
            with slot.lock:
                ring_slot = slot.responses.try_peek()
                if ring_slot is None:
                    return
                batch_id, predictions, error = ringlib.read_response(
                    ring_slot, self._out_shape, self._out_dtype
                )
                slot.responses.commit_pop()
                entry = slot.inflight.pop(batch_id, None)
            if entry is None:
                continue  # already recovered by the supervisor
            batch = entry[0]
            if error is not None:
                error = ServingError(
                    f"worker error serving tenant {batch.tenant!r}: {error}",
                    tenant=batch.tenant,
                )
            self._complete(
                batch, predictions, error, self._fallback_ctx[batch.tenant][1]
            )
            self._batch_done()

    # ------------------------------------------------------------------ #
    # Shutdown and shared-memory teardown
    # ------------------------------------------------------------------ #
    def _shut_down(self, drain: bool, remaining) -> list[MicroBatch]:
        """After return no ``/dev/shm`` segment owned by this engine remains."""
        for _ in self._workers:
            self._queue.put(_STOP)
        for slot in self._workers:
            slot.dispatcher.join(remaining())
        if any(slot.dispatcher.is_alive() for slot in self._workers):
            self._dispatch_abandon.set()
        # Dispatchers packed everything they could; workers may now
        # drain their rings and exit.
        for slot in self._workers:
            with slot.lock:
                slot.requests.signal_stop()
                slot.request_event.set()
        for slot in self._workers:
            slot.process.join(remaining())
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(1.0)
        # Settlers stop only after the workers exited, so every pushed
        # response is consumed before the final sweep below.
        self._settlers_stop.set()
        for slot in self._workers:
            slot.response_event.set()
        for slot in self._workers:
            slot.settler.join(remaining(default=5.0))
        unserved = []
        for slot in self._workers:
            self._drain_responses(slot)
            with slot.lock:
                unserved += [batch for batch, _ in slot.inflight.values()]
                slot.inflight.clear()
        # Nothing in the queue can be served anymore.
        unserved += self._drain_queue()
        self._final_worker_metrics = self.worker_metrics.merged()
        self._teardown_shared_memory()
        return unserved

    def _rings(self) -> list:
        return [
            ring for slot in self._workers
            for ring in (slot.requests, slot.responses) if ring is not None
        ]

    def _teardown_shared_memory(self) -> None:
        for ring in self._rings():
            ring.unlink()
        if self.worker_metrics is not None:
            self.worker_metrics.unlink()
        if self.plane is not None:
            self.plane.close()

    def segment_names(self) -> list[str]:
        """Every shared-memory segment this engine owns (for leak tests)."""
        return (list(self.plane.segment_names) + [self.worker_metrics.name]
                + [ring.name for ring in self._rings()])

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _workers_section(self) -> dict:
        """The ``workers`` section of ``engine.metrics()``: the cross-process
        merge (batches actually served, padding overhead, weight refreshes,
        worker-side predict latency percentiles, the raw per-worker rows) —
        the frozen final copy once the segment is gone."""
        return self._final_worker_metrics or self.worker_metrics.merged()

    def _worker_health(self, now: float) -> dict:
        alive = wedged = 0
        heartbeats = []
        for slot in self._workers:
            with slot.lock:
                alive += slot.alive()
                wedged += slot.wedged(now, self.config.wedge_timeout_s)
            if self._final_worker_metrics is None:
                heartbeats.append(self.worker_metrics.read(slot.index)["heartbeat"])
        return {"alive": alive, "wedged": wedged, "heartbeats": heartbeats}

    def stats(self) -> dict:
        """The shared :meth:`~repro.serve.engine.EngineCore.stats` plus the
        transport's configuration and the plane."""
        stats = super().stats()
        stats["config"].update(
            start_method=self.start_method, ring_capacity=RING_CAPACITY
        )
        stats["plane"] = {
            "nbytes": self.plane.nbytes(),
            "tenants": len(self._tenant_index),
            "buckets": list(self.plane.spec["meta"]["buckets"]),
            "segments": len(self.segment_names()),
        }
        return stats
