"""The serving worker process: map the plane, drain the ring, replay.

``worker_main`` is the target of every :class:`ProcessServingEngine`
worker.  It attaches the published :class:`~repro.serve.proc.plane.PlaneView`
(zero-copy weights + CSR supports + compiled predict programs), rebuilds a
per-tenant forecaster, then loops: pop a micro-batch from its request ring,
replay the captured program of its batch bucket, and push the predictions
into the response ring — raw bytes both ways, no pickling.

Weight freshness is pull-based and torn-proof.  Each batch first compares
the tenant's seqlock ``generation`` with the one bound at startup; on the
*first* flip the worker leaves zero-copy mode — it snapshots the active
block into private arrays, rebinds every parameter to them, and drops the
model's cached program instances (the structures stay installed, so the
rebuild replays without re-capturing).  Later flips are a plain in-place
``np.copyto`` refresh.  During the zero-copy phase a predict that raced
*two* flips (the writer may have re-entered the block the worker still has
mapped) is detected by the generation distance and redone from a private
snapshot, so served predictions are never computed from torn weights.

If the parent dies, the worker unlinks every segment it knows by name
(idempotently — siblings race to the same cleanup) and exits, leaving
``/dev/shm`` empty.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from ...tensor import batch_bucket, forget_model
from ..sharding import ShardedForecaster
from . import ring as ringlib
from .metrics import WorkerMetricsPlane
from .plane import PlaneView

__all__ = ["worker_main"]


def _bind_private(plane: PlaneView, state: dict, tenant: str) -> None:
    """Leave zero-copy mode: snapshot weights, rebind, drop stale instances."""
    model = state["model"]
    private = state["private"]
    if private is None:
        private = {
            name: np.empty(param.data.shape, dtype=param.data.dtype)
            for name, param in model.named_parameters()
        }
    state["generation"] = plane.read_weights(tenant, private)
    if state["mode"] == "shared":
        for name, param in model.named_parameters():
            param.data = private[name]
        # Cached program instances captured the old (shared) arrays by
        # reference; drop them so replay rebinds.  They are cached per
        # module that ran compiled (the backbone, not the wrapper around
        # it).  The structures stay in the global cache — the rebuild
        # replays, it does not re-capture.
        for module in model.modules():
            forget_model(module)
        state["mode"] = "private"
    state["private"] = private


def _refresh_weights(plane: PlaneView, state: dict, tenant: str) -> None:
    if state["mode"] == "shared":
        _bind_private(plane, state, tenant)
    else:
        state["generation"] = plane.read_weights(tenant, state["private"])


def worker_main(
    plane_spec: dict,
    serving: dict,
    req_spec: tuple,
    resp_spec: tuple,
    metrics_spec: tuple,
    worker_index: int,
    request_event,
    response_event,
    ready_event,
) -> None:
    plane = PlaneView(plane_spec)
    plane.apply_knobs()
    plane.install_structures()
    requests = ringlib.SpscRing.attach(req_spec)
    responses = ringlib.SpscRing.attach(resp_spec)
    metrics = WorkerMetricsPlane.attach(metrics_spec)
    shard = metrics.shard(worker_index)

    meta = plane.meta
    tenants = plane.tenants
    window_shape = tuple(meta["window_shape"])
    window_dtype = np.dtype(meta["window_dtype"])
    out_dtype = np.dtype(meta["out_dtype"])
    parent = multiprocessing.parent_process()

    network = plane.build_network()
    states: dict[str, dict] = {}
    for tenant in tenants:
        forecaster, generation = plane.build_forecaster(tenant, network)
        served = forecaster
        if serving.get("shards", 1) > 1:
            served = ShardedForecaster(forecaster, serving["shards"])
        states[tenant] = {
            "forecaster": forecaster,
            "served": served,
            "model": forecaster.model,
            "generation": generation,
            "mode": "shared",
            "private": None,
        }
    ready_event.set()

    def parent_dead() -> bool:
        return parent is not None and not parent.is_alive()

    def orphan_cleanup() -> None:
        requests.unlink()
        responses.unlink()
        metrics.unlink()
        plane.unlink_all()

    try:
        while True:
            if parent_dead():
                orphan_cleanup()
                return
            slot = requests.try_peek()
            if slot is None:
                if requests.stopped:
                    break
                shard.bump("heartbeat")
                request_event.wait(0.05)
                request_event.clear()
                continue
            batch_id, tenant_index, windows = ringlib.read_request(
                slot, window_shape, window_dtype
            )
            requests.commit_pop()
            tenant = tenants[tenant_index]
            state = states[tenant]

            if plane.generation(tenant) != state["generation"]:
                _refresh_weights(plane, state, tenant)
                shard.bump("refreshes")

            count = windows.shape[0]
            started = time.perf_counter()
            try:
                predictions = state["served"].predict(windows, batch_size=count)
                if (
                    state["mode"] == "shared"
                    and plane.generation(tenant) - state["generation"] >= 2
                ):
                    # Two flips raced this predict: the block our views map
                    # may have been rewritten mid-read.  Snapshot privately
                    # and redo — cheap, and only ever on an update burst.
                    _bind_private(plane, state, tenant)
                    shard.bump("refreshes")
                    predictions = state["served"].predict(windows, batch_size=count)
                predictions = np.asarray(predictions, dtype=out_dtype)
                error = None
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                predictions = None
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started

            while True:
                out_slot = responses.try_reserve()
                if out_slot is not None:
                    break
                if parent_dead():
                    orphan_cleanup()
                    return
                time.sleep(0.001)
            # Count the batch BEFORE publishing the response: once the
            # parent settles the future, a metrics() snapshot must already
            # include this work (tests and dashboards rely on it).
            shard.bump("heartbeat")
            shard.bump("batches")
            shard.bump("requests", count)
            shard.bump("padded_windows", batch_bucket(count) - count)
            if error is not None:
                shard.bump("errors")
            shard.record_latency(elapsed)

            if error is None:
                ringlib.pack_response(out_slot, batch_id, predictions)
            else:
                ringlib.pack_error_response(out_slot, batch_id, error)
            responses.commit_push()
            response_event.set()
    finally:
        for state in states.values():
            served = state.get("served")
            if isinstance(served, ShardedForecaster):
                served.close()
        shard.release()
        requests.close()
        responses.close()
        metrics.close()
        plane.close()
