"""Multi-tenant model pool: byte-bounded LRU of per-tenant forecasters.

The multi-tenant scenario is "one checkpoint per tenant, shared graph":
every tenant trains its own parameters (a city district, a fleet, an A/B
arm) over the *same* sensor network, so the expensive derived spatial state
— diffusion supports, CSR transposes, fused stacks — must be built once and
shared, not once per tenant.  :class:`ModelPool` enforces that by loading
every tenant checkpoint against one shared :class:`~repro.graph.sensor_network.SensorNetwork`
(hence one :class:`repro.graph.Graph`); the
``support_cache_stats()["graph_support_builds"]`` counter stays flat as
tenants are added, which the tests pin.

Residency is byte-bounded: each loaded forecaster is measured
(:func:`forecaster_nbytes` — parameters + optimizer slots + replay buffer,
plus the parameters of its serving replica when an engine attached one)
and least-recently-used tenants are evicted once the total exceeds
``max_bytes``.  Evicted tenants reload transparently from their registered
checkpoint path on the next request (a cold start, surfaced in
:meth:`stats`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..exceptions import ConfigurationError
from ..models.registry import build_model, model_name_of
from .forecaster import Forecaster

__all__ = [
    "build_replica",
    "replica_of",
    "forecaster_nbytes",
    "PoolEntry",
    "ModelPool",
    "CircuitBreaker",
    "TokenBucket",
    "historical_average",
]


def build_replica(name: str, config: dict, network, scaler,
                  target_channel: int) -> Forecaster:
    """A serving copy of a registered model, rebuilt through the registry.

    What both engines' predicts run: worker processes bind its weights to
    shared memory, the threaded engine copies the trained ones in
    (:func:`replica_of`).  It shares ``network`` and ``scaler``, is in eval
    mode and has no optimizer and an empty replay buffer.  Its parameters
    are named and shaped like the original's, so it replays the same shared
    compiled structures and, once bound, predicts the same bits.
    """
    model = build_model(name, config, network=network, rng=0)
    model.eval()
    return Forecaster(model, scaler=scaler, target_channel=target_channel)


def replica_of(forecaster: Forecaster) -> Forecaster:
    """A :func:`build_replica` of ``forecaster`` holding a private copy of
    its current weights (each parameter keeps its dtype)."""
    model = forecaster.model
    replica = build_replica(
        model_name_of(model), model.to_config(), forecaster.network,
        forecaster.scaler, forecaster.target_channel,
    )
    trained = dict(model.named_parameters())
    for name, parameter in replica.model.named_parameters():
        parameter.data = trained[name].data.copy()
    return replica


def forecaster_nbytes(forecaster) -> int:
    """Resident bytes of one serving forecaster.

    Counts model parameters, optimizer slot variables and the replay-buffer
    contents — the per-tenant state.  The graph and its supports are shared
    across tenants and deliberately not attributed to any one of them.
    """
    total = sum(
        np.asarray(value).nbytes for value in forecaster.model.state_dict().values()
    )
    optimizer = forecaster._optimizer
    if optimizer is not None:
        for value in optimizer.state_dict().values():
            if isinstance(value, list):
                total += sum(np.asarray(slot).nbytes for slot in value)
    buffer = getattr(forecaster.model, "buffer", None)
    if buffer is not None and len(buffer):
        inputs, targets = buffer.as_arrays()
        total += inputs.nbytes + targets.nbytes
    return int(total)


def historical_average(
    stacked: np.ndarray, out_shape: tuple, target_channel: int = 0
) -> np.ndarray:
    """Model-free fallback forecast: per-node historical average.

    ``stacked`` is a ``(batch, time, nodes, channels)`` request stack;
    the forecast repeats each node's NaN-robust mean of the target channel
    over every output step.  ``out_shape`` is the per-window prediction
    shape the model would have produced (``(horizon, nodes, 1)``), so the
    degraded answer is drop-in shaped for callers.  This is the paper's HA
    baseline reduced to a single window — always available, never NaN.
    """
    values = np.asarray(stacked, dtype=float)[..., target_channel]  # (batch, time, nodes)
    finite = np.isfinite(values)
    sums = np.where(finite, values, 0.0).sum(axis=1)
    counts = finite.sum(axis=1)
    means = sums / np.maximum(counts, 1)
    means = np.where(counts > 0, means, 0.0)  # a fully-dark node forecasts 0
    batch = values.shape[0]
    return np.broadcast_to(
        means[:, None, :, None], (batch,) + tuple(out_shape)
    ).copy()


class TokenBucket:
    """Per-tenant admission control: ``rate`` tokens/second, ``burst`` cap.

    ``try_acquire`` refills lazily from a monotonic clock and either takes
    a token or reports rejection — no background thread, O(1) per call,
    thread-safe.  The engine keeps one bucket per tenant when
    ``EngineConfig.tenant_rate_limit`` is set.
    """

    def __init__(self, rate: float, burst: float | None = None):
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(2.0 * rate, 1.0)
        if self.burst < 1.0:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False


class CircuitBreaker:
    """Per-tenant circuit breaker: fail fast instead of hammering a sick model.

    Classic three-state machine.  *Closed*: traffic flows; consecutive
    failures (exceptions or non-finite outputs) count up and trip it open
    at ``failure_threshold``.  *Open*: :meth:`allow` refuses everything
    (the engine fails fast with :class:`~repro.exceptions.CircuitOpen` or
    routes to a fallback) until ``reset_timeout_s`` passes.  *Half-open*:
    one probe request is let through; its success closes the breaker, its
    failure re-opens it.

    Thread-safe; one fused micro-batch counts as one success/failure
    event, so a tenant flooding the engine cannot trip its breaker faster
    by batching less.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 5, reset_timeout_s: float = 5.0):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ConfigurationError(
                f"reset_timeout_s must be positive, got {reset_timeout_s}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_out = False
        self.opened_total = 0

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open(time.monotonic())
            return self._state

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    def retry_after_s(self) -> float:
        """Seconds until an open breaker half-opens (0 when not open)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(self._opened_at + self.reset_timeout_s - time.monotonic(), 0.0)

    def _maybe_half_open(self, now: float) -> None:
        if self._state == self.OPEN and now >= self._opened_at + self.reset_timeout_s:
            self._state = self.HALF_OPEN
            self._probe_out = False

    def allow(self) -> bool:
        """May a request proceed right now?  (Half-open admits one probe.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            self._maybe_half_open(time.monotonic())
            if self._state == self.OPEN:
                return False
            if self._probe_out:
                return False
            self._probe_out = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
            self._failures = 0

    def record_failure(self) -> bool:
        """Count one failure; returns True when this one tripped it open."""
        with self._lock:
            now = time.monotonic()
            if self._state == self.HALF_OPEN:
                # A failed probe re-opens immediately.
                self._state = self.OPEN
                self._opened_at = now
                self.opened_total += 1
                return True
            self._failures += 1
            if self._state == self.CLOSED and self._failures >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = now
                self.opened_total += 1
                return True
            return False

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open(time.monotonic())
            return {
                "state": self._state,
                "failures": self._failures,
                "opened_total": self.opened_total,
            }


class _ReadWriteLock:
    """Writer-preferring readers/writer lock for one tenant's serving weights.

    Any number of predict workers share the read side; the update lane
    takes the write side only to publish — to copy the weights it trained
    into the serving replica — so an in-flight predict never observes a
    half-copied replica.  The training step itself runs on the tenant's
    forecaster with no lock held.  A waiting writer blocks *new* readers,
    which keeps a continuous predict stream from starving publishes.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    class _Side:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire, release):
            self._acquire = acquire
            self._release = release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc):
            self._release()

    def read(self) -> "_ReadWriteLock._Side":
        return self._Side(self.acquire_read, self.release_read)

    def write(self) -> "_ReadWriteLock._Side":
        return self._Side(self.acquire_write, self.release_write)


class PoolEntry:
    """One resident tenant: forecaster, serving view, lock, byte size.

    ``forecaster`` is what online updates train; ``served`` is what
    predicts run — the forecaster itself, or a view an engine attached
    (:meth:`ModelPool.attach_views`): a serving replica, possibly wrapped
    in a :class:`~repro.serve.sharding.ShardedForecaster`.
    """

    __slots__ = ("tenant", "forecaster", "served", "lock", "writer", "nbytes", "dirty",
                 "pins")

    def __init__(self, tenant: str, forecaster: Forecaster, served=None):
        self.tenant = tenant
        self.forecaster = forecaster
        self.served = served if served is not None else forecaster
        self.lock = _ReadWriteLock()
        # One writer of ``forecaster`` at a time, whichever engine it is
        # (engines sharing the pool share its entries); see ``updating``.
        self.writer = threading.Lock()
        self.nbytes = 0
        self.refresh_nbytes()
        # Online updates mutate in-memory state the checkpoint on disk does
        # not have; a dirty entry is pinned against eviction (reloading it
        # would silently discard accepted learning).
        self.dirty = False
        # In-flight writers: while > 0 the entry is pinned regardless of
        # dirtiness, so an eviction racing a write can never orphan the
        # update mid-step (the write would land on an object the pool no
        # longer serves and be silently discarded on reload).
        self.pins = 0

    @property
    def replica(self) -> Forecaster | None:
        """The forecaster ``served`` runs when it is not ``forecaster``
        (looking through a shard wrapper), else ``None``."""
        inner = getattr(self.served, "forecaster", self.served)
        return None if inner is self.forecaster else inner

    def refresh_nbytes(self) -> int:
        """Re-measure after an online update (the replay buffer grows)."""
        replica = self.replica
        self.nbytes = forecaster_nbytes(self.forecaster) + (
            0 if replica is None else forecaster_nbytes(replica)
        )
        return self.nbytes

    def mark_dirty(self) -> None:
        """Record un-persisted in-memory state (pins against eviction)."""
        self.dirty = True


class ModelPool:
    """Byte-bounded LRU pool of :class:`Forecaster` instances by tenant id.

    Parameters
    ----------
    max_bytes:
        Resident-state bound; ``None`` disables eviction.  Only tenants
        that can be reloaded (registered checkpoint path) and carry no
        un-persisted online updates are evictable; the most recently used
        tenant always stays, so a single tenant larger than the bound
        still serves (the bound then acts on everyone else).
    network:
        The shared sensor network.  Defaults to the first loaded tenant's;
        every later checkpoint must match it (same adjacency bytes) and is
        rebuilt *against* it, so all tenants share one ``Graph`` and its
        cached supports.
    """

    def __init__(self, max_bytes: int | None = None, network=None, load_hook=None):
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._network = network
        # The ``forecaster -> serving view`` hook applied on activation, the
        # key it was attached under and how many engines share it.
        self._decorate = None
        self._view_key = None
        self._view_users = 0
        # Called as ``load_hook(tenant, path)`` before every checkpoint
        # load; raising aborts the load.  The fault injector plugs in here.
        self._load_hook = load_hook
        self._paths: dict[str, Path] = {}
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        self._fallbacks: dict[str, Forecaster] = {}
        self._lock = threading.RLock()
        # Per-tenant guards so one cold checkpoint load neither blocks the
        # whole pool nor runs twice for concurrent misses on one tenant.
        self._loading: dict[str, threading.Lock] = {}
        self.loads = 0
        self.hits = 0
        self.evictions = 0
        self.load_failures = 0

    # ------------------------------------------------------------------ #
    @property
    def network(self):
        """The shared sensor network (``None`` until the first tenant)."""
        return self._network

    @property
    def graph(self):
        """The one shared :class:`repro.graph.Graph` (``None`` until loaded)."""
        return None if self._network is None else self._network.graph

    @property
    def tenants(self) -> list[str]:
        """Every known tenant id (resident or registered)."""
        with self._lock:
            known = dict.fromkeys(self._entries)
            known.update(dict.fromkeys(self._paths))
            return list(known)

    @property
    def resident(self) -> list[str]:
        """Tenant ids currently loaded, LRU-first."""
        with self._lock:
            return list(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    # ------------------------------------------------------------------ #
    def register(self, tenant: str, path: "str | Path") -> None:
        """Associate ``tenant`` with a checkpoint path (loaded lazily)."""
        with self._lock:
            self._paths[str(tenant)] = Path(path)

    def put(self, tenant: str, forecaster: Forecaster) -> PoolEntry:
        """Insert an already-built forecaster for ``tenant``.

        The forecaster must serve on the pool's shared network (same object
        or, for the first tenant, it *becomes* the shared network).
        """
        tenant = str(tenant)
        with self._lock:
            if self._network is None:
                self._network = forecaster.network
            elif forecaster.network is not self._network:
                raise ConfigurationError(
                    f"tenant {tenant!r} was built on its own network; construct it "
                    "against pool.network (or register its checkpoint path and let "
                    "the pool load it) so all tenants share one graph"
                )
            entry = self._activate(tenant, forecaster)
            return entry

    def get(self, tenant: str) -> PoolEntry:
        """The resident entry for ``tenant``, loading its checkpoint on miss.

        A miss runs the checkpoint load (disk IO + model rebuild) *outside*
        the pool-wide lock, so a cold tenant never stalls the hot path of
        resident ones; a per-tenant guard dedupes concurrent misses.  Only
        the very first load ever — the one that establishes the shared
        network — stays under the pool lock.
        """
        tenant = str(tenant)
        with self._lock:
            entry = self._entries.get(tenant)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(tenant)
                return entry
            path = self._paths.get(tenant)
            if path is None:
                raise ConfigurationError(f"unknown tenant {tenant!r}")
            shared = self._network
            if shared is None:
                # Startup path: this load defines the shared graph, and a
                # racing first load must not define a second one.
                forecaster = self._load(tenant, path, None)
                self.loads += 1
                self._network = forecaster.network
                return self._activate(tenant, forecaster)
            guard = self._loading.setdefault(tenant, threading.Lock())
        with guard:
            with self._lock:
                entry = self._entries.get(tenant)
                if entry is not None:
                    # A racer finished the load while we waited on the guard.
                    self.hits += 1
                    self._entries.move_to_end(tenant)
                    return entry
            forecaster = self._load(tenant, path, shared)
            with self._lock:
                self.loads += 1
                self._loading.pop(tenant, None)
                return self._activate(tenant, forecaster)

    def _load(self, tenant: str, path, shared) -> Forecaster:
        """One checkpoint load, counted on failure and hookable for faults."""
        try:
            hook = self._load_hook
            if hook is not None:
                hook(tenant, path)
            return Forecaster.load(path, network=shared)
        except BaseException:
            with self._lock:
                self.load_failures += 1
            raise

    # ------------------------------------------------------------------ #
    def set_fallback(self, tenant: str, forecaster: Forecaster) -> None:
        """Register a degraded-mode forecaster for ``tenant``.

        Typically a last-known-good checkpoint loaded on the shared
        network.  When the tenant's circuit breaker is open the engine
        serves from this instead of failing fast; the fallback is never
        online-updated and never evicted (it is not a pool entry).
        """
        with self._lock:
            self._fallbacks[str(tenant)] = forecaster

    def fallback_for(self, tenant: str) -> Forecaster | None:
        with self._lock:
            return self._fallbacks.get(str(tenant))

    @contextlib.contextmanager
    def updating(self, tenant: str, mark_dirty: bool = True):
        """Writer-pinned access to ``tenant`` for one online update.

        Acquires the entry under the pool lock, increments its writer pin
        count (and by default latches it dirty) before yielding, and always
        releases the pin afterwards.  While pinned the entry cannot be
        selected by LRU eviction, so an update can never land on an object
        the pool no longer serves; unlike the dirty latch the pin is
        transient, covering exactly the in-flight step.  Writers of one
        tenant take turns on its ``writer`` lock.
        """
        with self._lock:
            entry = self.get(tenant)
            entry.pins += 1
            if mark_dirty:
                entry.mark_dirty()
        try:
            with entry.writer:
                yield entry
        finally:
            with self._lock:
                entry.pins -= 1

    def forecaster(self, tenant: str) -> Forecaster:
        """Convenience: the loaded :class:`Forecaster` for ``tenant``."""
        return self.get(tenant).forecaster

    # ------------------------------------------------------------------ #
    def attach_views(self, decorate, key) -> None:
        """Serve every tenant through ``decorate(forecaster)``.

        Resident tenants get their view now, tenants put or reloaded later
        on activation.  Engines attaching an equal ``key`` share one set of
        views, and each releases them with :meth:`reset_views`.  Attaching
        a different ``key`` meanwhile is a
        :class:`~repro.exceptions.ConfigurationError`.
        """
        with self._lock:
            if not self._view_users:
                self._decorate, self._view_key = decorate, key
                for entry in self._entries.values():
                    entry.served = decorate(entry.forecaster)
                    entry.refresh_nbytes()
            elif key != self._view_key:
                raise ConfigurationError(
                    f"the pool already serves its tenants through {self._view_key!r} "
                    f"views; an engine asking for {key!r} needs a pool of its own"
                )
            self._view_users += 1

    def _activate(self, tenant: str, forecaster: Forecaster) -> PoolEntry:
        # Trained models rest in eval mode (the update lane restores it
        # after every step): a forecaster serving its own predicts then
        # saves and restores the mode idempotently under concurrency.
        if hasattr(forecaster.model, "eval"):
            forecaster.model.eval()
        served = self._decorate(forecaster) if self._decorate is not None else None
        entry = PoolEntry(tenant, forecaster, served=served)
        self._entries[tenant] = entry
        self._entries.move_to_end(tenant)
        self._evict()
        return entry

    def _evict(self) -> None:
        """Drop LRU entries until the byte bound holds.

        Only *reloadable, clean, writer-free* entries are evictable: a
        tenant without a registered checkpoint path could never be served
        again, a dirty one (online updates since load) would silently lose
        accepted learning, and one with in-flight writers (``pins > 0``)
        would have its update land on an orphaned object — all stay pinned
        even over the bound, surfaced via ``stats()["pinned"]``.  The
        evicted entry's serving view is NOT closed here: a worker may be
        mid-predict on it; dropping the reference lets it retire when the
        in-flight work finishes.
        """
        if self.max_bytes is None:
            return
        while len(self._entries) > 1 and self.resident_bytes > self.max_bytes:
            victim = next(
                (
                    tenant
                    for tenant, entry in self._entries.items()
                    if tenant in self._paths and not entry.dirty and entry.pins == 0
                ),
                None,
            )
            if victim is None or victim == next(reversed(self._entries)):
                # Nothing evictable, or only the most recently used is left.
                return
            del self._entries[victim]
            self.evictions += 1

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            pinned = sum(
                1
                for tenant, entry in self._entries.items()
                if entry.dirty or entry.pins > 0 or tenant not in self._paths
            )
            return {
                "resident": len(self._entries),
                "registered": len(self._paths),
                "pinned": pinned,
                "write_pinned": sum(
                    1 for entry in self._entries.values() if entry.pins > 0
                ),
                "resident_bytes": self.resident_bytes,
                "max_bytes": self.max_bytes,
                "loads": self.loads,
                "hits": self.hits,
                "evictions": self.evictions,
                "load_failures": self.load_failures,
                "fallbacks": len(self._fallbacks),
            }

    def reset_views(self) -> None:
        """Release one :meth:`attach_views`.  The last release closes the
        serving views: tenants stay resident, undecorated, for the next
        engine; their replicas and shard executors do not survive.
        """
        with self._lock:
            self._view_users = max(self._view_users - 1, 0)
            if self._view_users:
                return
            self._decorate = self._view_key = None
            for entry in self._entries.values():
                if entry.served is not entry.forecaster:
                    close = getattr(entry.served, "close", None)
                    if close is not None:
                        close()
                    entry.served = entry.forecaster
                    entry.refresh_nbytes()

    def close(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                close = getattr(entry.served, "close", None)
                if close is not None and entry.served is not entry.forecaster:
                    close()
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._entries or tenant in self._paths
