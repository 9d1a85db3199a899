"""The shared model plane: publish once, map everywhere, flip atomically.

:class:`ModelPlane` (parent side) publishes everything a worker process
needs to serve a :class:`~repro.serve.tenancy.ModelPool` into named
shared-memory segments:

* **one main segment** — the sensor network (adjacency/coordinates),
  per-tenant scaler statistics, and the serialized compiled predict
  programs (:mod:`repro.tensor.serialize`) whose CONST payloads carry the
  CSR diffusion supports/transposes — the heavyweight read-only bytes every
  worker maps zero-copy;
* **one weight segment per tenant** — a seqlock header (``seq``,
  ``active``, ``generation`` as int64) followed by *two* packed parameter
  blocks (A/B).  Readers bind the active block; the single writer (the
  parent's online-update lane) always writes the *inactive* block, flips
  ``active``, and bumps ``generation`` inside an odd/even ``seq`` bracket —
  so readers never block and never observe torn weights.

:class:`PlaneView` (worker side) attaches by name from the picklable
:attr:`ModelPlane.spec`, rebuilds each tenant's model from its registry
config, rebinds every parameter tensor to a read-only view of the active
block (zero copies), restores the scaler, and installs the compiled
structures so replicas replay without ever re-capturing.
"""

from __future__ import annotations

import time

import numpy as np

from ...exceptions import ConfigurationError
from ...graph import sparse as sparse_knobs
from ...graph.sensor_network import SensorNetwork
from ...models.registry import model_name_of
from ...tensor import (
    batch_bucket,
    export_structures,
    get_default_dtype,
    install_structures,
)
from ...tensor.serialize import dump_structures, load_structures
from ..tenancy import build_replica
from . import shm as shmlib

__all__ = ["ModelPlane", "PlaneView"]

_CTRL_NBYTES = shmlib.ALIGN
_SEQ, _ACTIVE, _GENERATION = 0, 1, 2


def _pack_params(model) -> tuple[list, int]:
    """Manifest [(name, offset, shape, dtype)] + aligned block size."""
    manifest = []
    offset = 0
    for name, param in model.named_parameters():
        data = param.data
        manifest.append((name, offset, tuple(data.shape), data.dtype.str))
        offset += (data.nbytes + shmlib.ALIGN - 1) // shmlib.ALIGN * shmlib.ALIGN
    return manifest, max(offset, shmlib.ALIGN)


def _split_scaler(scaler) -> dict:
    """Scaler type + params split into scalars / arrays / Nones for transport."""
    if scaler is None:
        return {"type": None, "scalars": {}, "none": [], "array_keys": []}
    params = scaler.get_params()
    scalars, none_keys, array_keys = {}, [], []
    for key, value in params.items():
        if value is None:
            none_keys.append(key)
        elif isinstance(value, np.ndarray):
            array_keys.append(key)
        else:
            scalars[key] = value
    return {
        "type": type(scaler).__name__,
        "scalars": scalars,
        "none": none_keys,
        "array_keys": array_keys,
    }


def _knobs() -> dict:
    return {
        "dtype": str(get_default_dtype()),
        "spatial_mode": sparse_knobs.get_spatial_mode(),
    }


class ModelPlane:
    """Parent-side owner of the shared segments and the weight-flip lane."""

    def __init__(self, spec, main, weight_segments):
        self.spec = spec
        self._main = main
        self._weights = weight_segments  # tenant -> SharedMemory
        self._ctrl = {
            tenant: np.ndarray(8, dtype=np.int64, buffer=seg.buf, offset=0)
            for tenant, seg in weight_segments.items()
        }
        self._param_views = {}  # (tenant, block) -> {name: writable view}

    # -------------------------------------------------------------- #
    @classmethod
    def publish(cls, pool, sample_windows=None, max_batch_size: int = 32) -> "ModelPlane":
        """Build and publish the plane for every resident tenant of ``pool``.

        Warms compiled predict at every batch bucket up to ``max_batch_size``
        (one capture per architecture x bucket, shared across tenants), probes
        the output geometry, then freezes everything into shared memory.
        """
        tenants = list(pool.resident)
        if not tenants:
            raise ConfigurationError("the pool has no resident tenants to publish")
        network = pool.network
        reference = pool.forecaster(tenants[0]).model
        window_shape = (
            reference.input_steps, reference.network.num_nodes, reference.in_channels
        )
        for tenant in tenants:
            model = pool.forecaster(tenant).model
            dims = (model.input_steps, model.network.num_nodes, model.in_channels)
            if dims != window_shape:
                raise ConfigurationError(
                    "process-parallel serving preallocates fixed-shape rings; "
                    f"tenant {tenant!r} expects windows {dims}, "
                    f"tenant {tenants[0]!r} expects {window_shape}"
                )
        if sample_windows is None:
            sample = np.zeros((1,) + window_shape, dtype=float)
        else:
            sample = np.asarray(sample_windows, dtype=float)
            if sample.ndim == 3:
                sample = sample[None]
            if sample.shape[1:] != window_shape:
                raise ConfigurationError(
                    f"sample windows have shape {sample.shape[1:]}, "
                    f"models expect {window_shape}"
                )
        buckets = tuple(sorted({batch_bucket(n) for n in range(1, max_batch_size + 1)}))

        # Warm the compiled cache at every bucket shape so the export below
        # carries a replayable program for everything workers will see.
        probe = None
        for tenant in tenants:
            forecaster = pool.forecaster(tenant)
            for bucket in buckets:
                batch = np.repeat(sample[:1], bucket, axis=0)
                out = forecaster.predict(batch, batch_size=bucket)
            if probe is None:
                probe = out[:1]
        out_shape = tuple(probe.shape[1:])
        out_dtype = probe.dtype.str

        blob, table = dump_structures(export_structures())

        arrays = {"network/adjacency": network.adjacency}
        if network.coordinates is not None:
            arrays["network/coordinates"] = network.coordinates
        meta_models = {}
        for tenant in tenants:
            forecaster = pool.forecaster(tenant)
            scaler_meta = _split_scaler(forecaster.scaler)
            for key in scaler_meta["array_keys"]:
                arrays[f"scaler/{tenant}/{key}"] = forecaster.scaler.get_params()[key]
            meta_models[tenant] = {
                "model": model_name_of(forecaster.model),
                "config": forecaster.model.to_config(),
                "scaler": scaler_meta,
                "target_channel": int(getattr(forecaster, "target_channel", 0)),
            }
        arrays["structs/blob"] = np.frombuffer(blob, dtype=np.uint8)
        for index, array in enumerate(table):
            arrays[f"structs/arr{index}"] = array
        main, manifest = shmlib.publish_arrays(arrays, tag="plane")

        weight_segments = {}
        weights_spec = {}
        for tenant in tenants:
            model = pool.forecaster(tenant).model
            params_manifest, block = _pack_params(model)
            segment = shmlib.create_segment(_CTRL_NBYTES + 2 * block, tag="weights")
            ctrl = np.ndarray(8, dtype=np.int64, buffer=segment.buf, offset=0)
            ctrl[:] = 0
            named = dict(model.named_parameters())
            for block_index in (0, 1):
                for name, offset, shape, dtype in params_manifest:
                    target = np.ndarray(
                        shape, dtype=np.dtype(dtype), buffer=segment.buf,
                        offset=_CTRL_NBYTES + block_index * block + offset,
                    )
                    np.copyto(target, named[name].data)
                    del target
            del ctrl
            weight_segments[tenant] = segment
            weights_spec[tenant] = {
                "name": segment.name,
                "params": params_manifest,
                "block": block,
            }

        spec = {
            "main": (main.name, manifest),
            "weights": weights_spec,
            "meta": {
                "tenants": tenants,
                "models": meta_models,
                "network": {"name": network.name, "directed": bool(network.directed)},
                "window_shape": window_shape,
                "window_dtype": sample.dtype.str,
                "out_shape": out_shape,
                "out_dtype": out_dtype,
                "buckets": buckets,
                "knobs": _knobs(),
                "num_struct_arrays": len(table),
            },
        }
        return cls(spec, main, weight_segments)

    # -------------------------------------------------------------- #
    # Single-writer update lane
    # -------------------------------------------------------------- #
    def publish_weights(self, tenant: str, model) -> int:
        """Seqlock flip: write the inactive block, swap, bump generation.

        The caller is the *only* writer (the engine serializes updates
        under its update lock), so the odd/even ``seq`` bracket is all the
        synchronization readers need: an odd ``seq`` or a ``seq`` change
        across a read means "retry", a stable even ``seq`` means the active
        block was immutable for the whole read.
        """
        ctrl = self._ctrl[tenant]
        seq = int(ctrl[_SEQ])
        ctrl[_SEQ] = seq + 1  # odd: a flip is in progress
        inactive = 1 - int(ctrl[_ACTIVE])
        views = self._writable_views(tenant, inactive)
        for name, param in model.named_parameters():
            np.copyto(views[name], param.data)
        ctrl[_ACTIVE] = inactive
        ctrl[_GENERATION] += 1
        ctrl[_SEQ] = seq + 2  # even again: flip visible and complete
        return int(ctrl[_GENERATION])

    def generation(self, tenant: str) -> int:
        return int(self._ctrl[tenant][_GENERATION])

    def _writable_views(self, tenant: str, block_index: int) -> dict:
        key = (tenant, block_index)
        views = self._param_views.get(key)
        if views is None:
            info = self.spec["weights"][tenant]
            segment = self._weights[tenant]
            views = {
                name: np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=segment.buf,
                    offset=_CTRL_NBYTES + block_index * info["block"] + offset,
                )
                for name, offset, shape, dtype in info["params"]
            }
            self._param_views[key] = views
        return views

    # -------------------------------------------------------------- #
    @property
    def segment_names(self) -> list[str]:
        return [self.spec["main"][0]] + [
            info["name"] for info in self.spec["weights"].values()
        ]

    def nbytes(self) -> int:
        total = self._main.size
        for segment in self._weights.values():
            total += segment.size
        return total

    def close(self) -> None:
        """Unlink every plane segment (idempotent)."""
        self._param_views.clear()
        self._ctrl = {}
        for segment in self._weights.values():
            shmlib.close_quietly(segment)
            shmlib.unlink_quietly(segment)
        self._weights = {}
        if self._main is not None:
            shmlib.close_quietly(self._main)
            shmlib.unlink_quietly(self._main)
            self._main = None


class PlaneView:
    """Worker-side zero-copy mapping of a published plane."""

    def __init__(self, spec):
        self.spec = spec
        self.meta = spec["meta"]
        main_name, manifest = spec["main"]
        self._main = shmlib.attach(main_name)
        self._views = shmlib.attach_views(self._main, manifest)
        self._weights = {
            tenant: shmlib.attach(info["name"])
            for tenant, info in spec["weights"].items()
        }
        self._ctrl = {
            tenant: np.ndarray(8, dtype=np.int64, buffer=seg.buf, offset=0)
            for tenant, seg in self._weights.items()
        }
        self._param_views = {}

    @property
    def tenants(self) -> list[str]:
        return list(self.meta["tenants"])

    # -------------------------------------------------------------- #
    def apply_knobs(self) -> None:
        """Match the publisher's dtype + spatial mode (fingerprint parity)."""
        from ...tensor import set_default_dtype

        knobs = self.meta["knobs"]
        set_default_dtype(knobs["dtype"])
        sparse_knobs.set_spatial_mode(knobs["spatial_mode"])

    def build_network(self) -> SensorNetwork:
        meta = self.meta["network"]
        coordinates = self._views.get("network/coordinates")
        return SensorNetwork(
            adjacency=np.array(self._views["network/adjacency"]),
            coordinates=None if coordinates is None else np.array(coordinates),
            name=meta["name"],
            directed=meta["directed"],
        )

    def install_structures(self) -> int:
        """Load the serialized predict programs, CSR payloads zero-copy."""
        blob = bytes(self._views["structs/blob"])
        table = [
            self._views[f"structs/arr{index}"]
            for index in range(self.meta["num_struct_arrays"])
        ]
        return install_structures(load_structures(blob, table))

    def build_forecaster(self, tenant: str, network: SensorNetwork) -> tuple:
        """Rebuild one tenant zero-copy: returns ``(forecaster, generation)``.

        The forecaster is a :func:`~repro.serve.tenancy.build_replica`
        whose parameters are read-only views of the active weight block.
        """
        from ...data.scalers import build_scaler

        entry = self.meta["models"][tenant]
        scaler_meta = entry["scaler"]
        scaler = None
        if scaler_meta["type"] is not None:
            params = dict(scaler_meta["scalars"])
            for key in scaler_meta["none"]:
                params[key] = None
            for key in scaler_meta["array_keys"]:
                params[key] = np.array(self._views[f"scaler/{tenant}/{key}"])
            scaler = build_scaler(scaler_meta["type"], params)
        forecaster = build_replica(
            entry["model"], entry["config"], network, scaler, entry["target_channel"]
        )
        return forecaster, self.bind_weights(tenant, forecaster.model)

    # -------------------------------------------------------------- #
    # Seqlock readers
    # -------------------------------------------------------------- #
    def generation(self, tenant: str) -> int:
        return int(self._ctrl[tenant][_GENERATION])

    def bind_weights(self, tenant: str, model) -> int:
        """Point every parameter at a read-only view of the active block."""
        ctrl = self._ctrl[tenant]
        while True:
            seq = int(ctrl[_SEQ])
            if seq % 2 == 0:
                active = int(ctrl[_ACTIVE])
                generation = int(ctrl[_GENERATION])
                if int(ctrl[_SEQ]) == seq:
                    break
            time.sleep(0.0002)
        views = self._read_views(tenant, active)
        for name, param in model.named_parameters():
            view = views.get(name)
            if view is None or view.shape != param.data.shape:
                raise ConfigurationError(
                    f"published weights for tenant {tenant!r} do not match "
                    f"parameter {name!r}"
                )
            param.data = view
        return generation

    def read_weights(self, tenant: str, out: dict) -> int:
        """Copy a torn-free snapshot of the active block into ``out``."""
        ctrl = self._ctrl[tenant]
        while True:
            seq = int(ctrl[_SEQ])
            if seq % 2 == 0:
                active = int(ctrl[_ACTIVE])
                generation = int(ctrl[_GENERATION])
                views = self._read_views(tenant, active)
                for name, target in out.items():
                    np.copyto(target, views[name])
                if int(ctrl[_SEQ]) == seq:
                    return generation
            time.sleep(0.0002)

    def _read_views(self, tenant: str, block_index: int) -> dict:
        key = (tenant, block_index)
        views = self._param_views.get(key)
        if views is None:
            info = self.spec["weights"][tenant]
            segment = self._weights[tenant]
            views = {}
            for name, offset, shape, dtype in info["params"]:
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=segment.buf,
                    offset=_CTRL_NBYTES + block_index * info["block"] + offset,
                )
                view.flags.writeable = False
                views[name] = view
            self._param_views[key] = views
        return views

    # -------------------------------------------------------------- #
    def segment_names(self) -> list[str]:
        return [self.spec["main"][0]] + [
            info["name"] for info in self.spec["weights"].values()
        ]

    def close(self) -> None:
        self._param_views.clear()
        self._views = {}
        self._ctrl = {}
        shmlib.close_quietly(self._main)
        for segment in self._weights.values():
            shmlib.close_quietly(segment)

    def unlink_all(self) -> None:
        """Orphan cleanup: remove every plane segment (parent died)."""
        self.close()
        for name in self.segment_names():
            shmlib.unlink_quietly(name)
