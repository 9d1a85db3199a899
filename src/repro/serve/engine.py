"""The serving engine: async micro-batched, multi-tenant, fault-tolerant.

:class:`EngineCore` is the request lifecycle on top of
:class:`~repro.serve.forecaster.Forecaster`, written once; the two public
engines add only a transport.  :class:`ServingEngine` (below) runs the fused
forwards on worker threads of this process;
:class:`~repro.serve.proc.ProcessServingEngine` runs them in worker
processes over shared memory.  What they share:

* **Requests** are single raw ``(time, nodes, channels)`` windows submitted
  via :meth:`~EngineCore.submit`, which returns a
  ``concurrent.futures.Future`` that resolves to that window's raw
  prediction.
* **Dynamic micro-batching** coalesces same-tenant, same-shape requests
  (:class:`~repro.serve.batching.DynamicBatcher`) into fused
  ``Forecaster.predict`` calls, and is work-conserving: a request waits for
  company only while every worker already has work.  A bucket leaves the
  batcher when it reaches ``max_batch_size`` (*size* flush), the moment a
  worker has nothing to do — seen by ``submit`` on arrival or by the worker
  finishing a batch (*idle* flush) — or, behind busy workers, once its
  oldest request has waited ``max_delay_ms`` (*deadline* flush, the upper
  bound on that wait).  Batches therefore size themselves to load: one
  request on an idle engine, the whole backlog behind a busy one.
* **Backpressure is explicit**: beyond ``max_pending`` accepted-but-
  unresolved requests, ``submit`` raises
  :class:`~repro.exceptions.QueueFull` (or sheds the oldest queued request
  under ``overload_policy="shed_oldest"``); per-tenant token buckets
  (``tenant_rate_limit``) reject floods with
  :class:`~repro.exceptions.RateLimited` before they consume queue space.
* **Deadlines**: ``submit(..., deadline_ms=...)`` bounds how long a request
  may wait; the supervisor expires overdue requests still in the batcher
  and overdue requests are dropped from flushed batches before they reach a
  worker, both with a structured :class:`~repro.exceptions.DeadlineExceeded`.
* **Fault tolerance**: a supervisor thread has the transport find dead
  workers (crashed serving a batch) and wedged workers (in flight longer
  than ``wedge_timeout_s``), replace them and hand their batches back, and
  requeues those with capped exponential backoff up to ``max_retries`` per
  request — safe because ``predict`` is side-effect-free, and every request
  resolves exactly once regardless of how many times its batch was
  dispatched.  Only a batch actually handed to a worker spends an attempt.
* **Graceful degradation**: per-tenant circuit breakers trip open after
  ``breaker_failures`` consecutive batch failures (exceptions or
  non-finite outputs) and fail fast with
  :class:`~repro.exceptions.CircuitOpen` — or route to a registered
  fallback forecaster / the model-free historical-average baseline when
  ``fallback="ha"`` — then half-open and probe their way closed.
  NaN-damaged inbound windows are mask-and-imputed (or rejected) per
  ``nan_policy``.
* **Fault injection** (:mod:`repro.serve.faults`) exercises all of the
  above deterministically on either engine: pass a
  :class:`~repro.serve.faults.FaultPlan` and the engine crashes/stalls its
  own workers, corrupts inbound windows and fails checkpoint loads on
  seeded schedules.  With no plan installed every hook is a ``None`` check
  — the production path pays nothing.
* **Multi-tenancy** routes each request's tenant id through a
  :class:`~repro.serve.tenancy.ModelPool` (byte-bounded LRU of per-tenant
  checkpoints, one shared graph).
* **Sharding**: with ``shards > 1`` every tenant is served through a
  :class:`~repro.serve.sharding.ShardedForecaster`, whose memory-sharded
  partitioned forward is bit-exact against the unsharded one.
* **Online updates** go through a serialized update lane
  (:meth:`~EngineCore.update`): one update at a time engine-wide.  Predicts
  never run on the model being trained: the step runs on the tenant's
  forecaster with no lock held while serving reads a copy, and only a
  step that succeeded is *published* into that copy (:meth:`~EngineCore.publish`
  — a replica copy under the tenant's write lock on the thread transport,
  a seqlocked shared-memory flip on the process one), before ``update``
  returns.  A failed step publishes nothing and rolls the model and
  optimizer back to their pre-step state.

One parent-side thread per worker pulls flushed batches off a FIFO queue,
gates them (deadline, cancellation, breaker) and carries them to its worker;
a flusher thread sweeps buckets that waited out ``max_delay_ms``.
:meth:`~EngineCore.close` drains by default — everything accepted is
answered — or fails the still-queued requests with
:class:`~repro.exceptions.EngineClosed` when asked not to; ``drain_timeout``
bounds how long a wedged worker can hold up shutdown.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    CircuitOpen,
    ConfigurationError,
    DataError,
    DeadlineExceeded,
    EngineClosed,
    QueueFull,
    RateLimited,
    ServingError,
    ShapeError,
)
from ..tensor import program_cache_stats
from .batching import DynamicBatcher, MicroBatch, PendingRequest
from .faults import FaultInjector, FaultPlan
from .forecaster import Forecaster, impute_missing
from .metrics import EngineMetrics
from .sharding import ShardedForecaster
from .tenancy import (CircuitBreaker, ModelPool, PoolEntry, TokenBucket,
                      historical_average, replica_of)

__all__ = ["EngineConfig", "ServingEngine"]

DEFAULT_TENANT = "default"

_STOP = object()


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs (see the module docstring for the semantics).

    Attributes
    ----------
    max_batch_size:
        Flush a micro-batch at this size.
    max_delay_ms:
        Upper bound on how long a request waits for company behind busy
        workers; with a worker idle it does not wait at all.
    max_pending:
        Accepted-but-unresolved request bound; beyond it ``submit`` raises
        :class:`~repro.exceptions.QueueFull`.
    num_workers:
        Worker threads running fused forwards.
    shards:
        Node shards per tenant (1 disables sharding); each shard runs only
        its own node rows, bit-identical to the unsharded forward.
    deadline_default_ms:
        Deadline applied to requests that pass none (``None``: no default).
    overload_policy:
        At ``max_pending``: ``"reject"`` the new request or
        ``"shed_oldest"`` — drop the oldest *queued* request to admit the
        new one (fresh data beats stale data on a live stream).
    max_retries:
        Re-dispatches allowed per request after worker crashes / failed
        checkpoint loads before its future fails with the original error.
    retry_backoff_ms / retry_backoff_max_ms:
        Capped exponential backoff between re-dispatches.
    wedge_timeout_s:
        In-flight time after which the supervisor declares a worker wedged,
        abandons it and requeues its batch on a fresh worker.
    supervise_interval_s:
        Supervisor polling period (restart/retry/expiry latency floor).
    tenant_rate_limit / tenant_burst:
        Per-tenant token-bucket admission (requests/second and burst);
        ``None`` disables.
    breaker_failures / breaker_reset_s:
        Per-tenant circuit breaker: consecutive batch failures to trip and
        open hold time (half-open then admits one probe).
        ``breaker_failures=None`` disables breakers entirely.
    nan_policy:
        Non-finite inbound windows: ``"impute"`` (mask-and-impute per
        node/channel), ``"reject"`` (:class:`~repro.exceptions.DataError`
        at submit) or ``"propagate"`` (serve as-is).  Non-finite model
        *outputs* are always a batch failure (breaker event +
        fallback/error).
    fallback:
        When a batch cannot be served healthily: ``"none"`` fails the
        requests, ``"ha"`` answers with the tenant's registered fallback
        forecaster or the historical-average baseline.

    A failed online update always rolls the model and optimizer back.
    """

    max_batch_size: int = 32
    max_delay_ms: float = 5.0
    max_pending: int = 1024
    num_workers: int = 2
    shards: int = 1
    deadline_default_ms: float | None = None
    overload_policy: str = "reject"
    max_retries: int = 2
    retry_backoff_ms: float = 10.0
    retry_backoff_max_ms: float = 500.0
    wedge_timeout_s: float = 30.0
    supervise_interval_s: float = 0.05
    tenant_rate_limit: float | None = None
    tenant_burst: float | None = None
    breaker_failures: int | None = 5
    breaker_reset_s: float = 5.0
    nan_policy: str = "impute"
    fallback: str = "none"

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_delay_ms < 0:
            raise ConfigurationError(
                f"max_delay_ms must be >= 0, got {self.max_delay_ms}"
            )
        if self.max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.num_workers < 1:
            raise ConfigurationError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.deadline_default_ms is not None and self.deadline_default_ms <= 0:
            raise ConfigurationError(
                f"deadline_default_ms must be positive, got {self.deadline_default_ms}"
            )
        if self.overload_policy not in ("reject", "shed_oldest"):
            raise ConfigurationError(
                "overload_policy must be 'reject' or 'shed_oldest', "
                f"got {self.overload_policy!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_ms < 0 or self.retry_backoff_max_ms < 0:
            raise ConfigurationError("retry backoff times must be >= 0")
        if self.wedge_timeout_s <= 0:
            raise ConfigurationError(
                f"wedge_timeout_s must be positive, got {self.wedge_timeout_s}"
            )
        if self.supervise_interval_s <= 0:
            raise ConfigurationError(
                f"supervise_interval_s must be positive, got {self.supervise_interval_s}"
            )
        if self.tenant_rate_limit is not None and self.tenant_rate_limit <= 0:
            raise ConfigurationError(
                f"tenant_rate_limit must be positive, got {self.tenant_rate_limit}"
            )
        if self.tenant_burst is not None and self.tenant_burst < 1:
            raise ConfigurationError(
                f"tenant_burst must be >= 1 (or None), got {self.tenant_burst}"
            )
        if self.breaker_failures is not None and self.breaker_failures < 1:
            raise ConfigurationError(
                f"breaker_failures must be >= 1 (or None), got {self.breaker_failures}"
            )
        if self.breaker_reset_s <= 0:
            raise ConfigurationError(
                f"breaker_reset_s must be positive, got {self.breaker_reset_s}"
            )
        if self.nan_policy not in ("impute", "reject", "propagate"):
            raise ConfigurationError(
                "nan_policy must be 'impute', 'reject' or 'propagate', "
                f"got {self.nan_policy!r}"
            )
        if self.fallback not in ("none", "ha"):
            raise ConfigurationError(
                f"fallback must be 'none' or 'ha', got {self.fallback!r}"
            )


# What stats() echoes of the configuration.
_STATS_CONFIG = (
    "max_batch_size", "max_delay_ms", "max_pending", "num_workers", "shards",
    "overload_policy", "max_retries", "wedge_timeout_s",
    "breaker_failures", "nan_policy", "fallback",
)


class EngineCore:
    """The request lifecycle shared by both engines (see the module docstring).

    A subclass is a *transport*: its constructor starts the workers and
    one parent-side thread per worker that feeds queued batches to
    :meth:`_serve_batch`, then calls :meth:`_start_loops`; the methods under
    "Transport hooks" are what it implements.

    Parameters
    ----------
    source:
        A :class:`Forecaster` (single-tenant engine under the
        ``"default"`` tenant id) or a prebuilt :class:`ModelPool`.
    config:
        Engine knobs; defaults are sized for interactive serving.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` or
        :class:`~repro.serve.faults.FaultInjector` for chaos testing; the
        engine then injects worker crashes/stalls, window corruption and
        checkpoint-load failures on the plan's seeded schedule.
    """

    def __init__(self, source, config: EngineConfig | None = None, faults=None):
        self.config = config or EngineConfig()
        self._owns_pool = isinstance(source, Forecaster)
        if isinstance(source, ModelPool):
            self.pool = source
        elif isinstance(source, Forecaster):
            self.pool = ModelPool()
            self.pool.put(DEFAULT_TENANT, source)
        else:
            raise ConfigurationError(
                f"{type(self).__name__} serves a Forecaster or a ModelPool, "
                f"got {type(source).__name__}"
            )
        if faults is None:
            self.injector: FaultInjector | None = None
        elif isinstance(faults, FaultInjector):
            self.injector = faults
        elif isinstance(faults, FaultPlan):
            self.injector = FaultInjector(faults) if faults.any_faults() else None
        else:
            raise ConfigurationError(
                f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
            )
        self._installed_load_hook = False
        if self.injector is not None and self.pool._load_hook is None:
            self.pool._load_hook = self.injector.on_checkpoint_load
            self._installed_load_hook = True
        self.metrics = EngineMetrics()
        self._batcher = DynamicBatcher(
            max_batch_size=self.config.max_batch_size,
            max_delay_ms=self.config.max_delay_ms,
        )
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._update_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        # Makes a submitter's add-to-batcher + enqueue atomic with respect
        # to close(): otherwise a size-flushed batch could land in the
        # worker queue after the stop sentinels and hang its futures.
        self._dispatch_lock = threading.Lock()
        # Exactly-once resolution: a request duplicated across batches
        # (wedge recovery, close-time sweeps) settles under this lock.
        self._settle_lock = threading.Lock()
        self._deadlines_used = False
        self._breaker_lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._bucket_lock = threading.Lock()
        self._tenant_buckets: dict[str, TokenBucket] = {}
        # Per-tenant (per-window output shape, target channel) learned from
        # the last healthy batch — what the HA fallback needs to produce
        # drop-in shaped answers.
        self._fallback_ctx: dict[str, tuple[tuple, int]] = {}
        # Batches awaiting a retry re-dispatch: [(due_monotonic, batch)].
        self._delayed_lock = threading.Lock()
        self._delayed: list[tuple[float, MicroBatch]] = []
        self.supervisor_errors = 0
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-serve-flusher", daemon=True
        )
        self._supervisor_stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-serve-supervisor", daemon=True
        )

    def _start_loops(self) -> None:
        self._flusher.start()
        self._supervisor.start()

    def _release_pool(self) -> None:
        """Take our load hook off the pool; close a pool the engine built."""
        if self._installed_load_hook:
            self.pool._load_hook = None
        if self._owns_pool:
            self.pool.close()

    # ------------------------------------------------------------------ #
    # Transport hooks
    # ------------------------------------------------------------------ #
    def _validate(self, tenant: str, window: np.ndarray | None = None) -> None:
        """Refuse a tenant (and, at submit, a window) this engine cannot serve."""
        if tenant not in self.pool:
            raise ConfigurationError(f"unknown tenant {tenant!r}")

    def _checkout(self, worker, batch: MicroBatch):
        """Stamp ``batch`` in flight on ``worker``; the ticket goes to
        :meth:`_carry`.  ``None`` when the worker is gone (a worker that
        pulls its own batches never is)."""
        return True

    def _carry(self, worker, batch: MicroBatch, ticket) -> None:
        """Take ``batch`` to ``worker``; the predictions or the error go to
        :meth:`_complete`, now or from another thread later."""
        raise NotImplementedError

    def _spare_capacity(self) -> bool:
        """Whether some worker could start on one more batch right away."""
        raise NotImplementedError

    def _reap_workers(self, now: float) -> list[tuple[MicroBatch, BaseException]]:
        """Replace dead and wedged workers; return their in-flight batches,
        each with the error to fail it with once its retries are spent."""
        raise NotImplementedError

    def _shut_down(self, drain: bool, remaining) -> list[MicroBatch]:
        """Stop the workers (``remaining()``: join budget left, ``None`` for
        unbounded), release what the transport owns, return what is unserved."""
        raise NotImplementedError

    def _worker_health(self, now: float) -> dict:
        """``{"alive": ..., "wedged": ...}`` plus transport extras."""
        raise NotImplementedError

    def _publish(self, tenant: str, entry: PoolEntry) -> None:
        """Make ``entry.forecaster``'s weights the ones ``tenant`` is served
        with; callers hold ``_update_lock``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(self, window: np.ndarray, tenant: str | None = None,
               deadline_ms: float | None = None) -> Future:
        """Accept one raw window; resolve its future with the prediction.

        ``deadline_ms`` bounds the request's total wait: once exceeded in
        queue (or found exceeded at service time) its future fails with
        :class:`~repro.exceptions.DeadlineExceeded` instead of being
        served late.  Raises :class:`~repro.exceptions.QueueFull` beyond
        ``max_pending`` outstanding requests,
        :class:`~repro.exceptions.RateLimited` beyond the tenant's
        admission rate and :class:`~repro.exceptions.EngineClosed` after
        :meth:`close`.
        """
        if self._closed:
            raise EngineClosed("engine is closed", tenant=tenant)
        window = np.asarray(window, dtype=float)
        if window.ndim != 3:
            raise ShapeError(
                f"submit expects one (time, nodes, channels) window, got shape {window.shape}"
            )
        tenant = DEFAULT_TENANT if tenant is None else str(tenant)
        self._validate(tenant, window)
        if deadline_ms is None:
            deadline_ms = self.config.deadline_default_ms
        elif deadline_ms <= 0:
            raise ConfigurationError(f"deadline_ms must be positive, got {deadline_ms}")
        if self.injector is not None:
            window = self.injector.corrupt(window, tenant=tenant)
        if self.config.nan_policy != "propagate" and not np.isfinite(window).all():
            if self.config.nan_policy == "reject":
                self.metrics.record_nan_rejected()
                raise DataError(
                    "window contains non-finite values and nan_policy='reject'"
                )
            window, imputed = impute_missing(window)
            if imputed:
                self.metrics.record_imputed()
        if self.config.tenant_rate_limit is not None:
            if not self._bucket_for(tenant).try_acquire():
                self.metrics.record_throttled()
                raise RateLimited(
                    f"tenant {tenant!r} exceeded its admission rate "
                    f"({self.config.tenant_rate_limit:g} req/s)",
                    tenant=tenant, rate=self.config.tenant_rate_limit,
                )
        shed_attempts = 0
        while True:
            with self._pending_lock:
                # Check-and-count under one lock so concurrent submitters
                # cannot overshoot the bound.
                pending = self.metrics.pending
                if pending < self.config.max_pending:
                    self.metrics.record_submit()
                    break
                victim = None
                if (self.config.overload_policy == "shed_oldest"
                        and shed_attempts <= 2 * self.config.max_pending):
                    victim = self._batcher.shed_oldest()
                if victim is None:
                    self.metrics.record_rejected()
                    raise QueueFull(
                        f"{pending} requests pending "
                        f"(max_pending={self.config.max_pending})",
                        tenant=tenant, pending=pending,
                        limit=self.config.max_pending,
                    )
            # Settle outside the lock: resolving a future can run client
            # callbacks, which must be free to call submit() again.
            shed_attempts += 1
            self._settle_error(
                victim,
                QueueFull(
                    "shed under overload to admit newer work",
                    tenant=victim.tenant, pending=pending,
                    limit=self.config.max_pending,
                ),
                kind="shed",
            )
        request = PendingRequest(window=window, tenant=tenant)
        if deadline_ms is not None:
            request.deadline = time.monotonic() + deadline_ms / 1e3
            request.deadline_ms = float(deadline_ms)
            self._deadlines_used = True
        try:
            with self._dispatch_lock:
                batch = self._batcher.add(request)
                if batch is not None:
                    self.metrics.record_flush(len(batch), "size")
                    self._queue.put(batch)
                else:
                    self._flush_if_idle()
        except EngineClosed:
            # close() won the race between our closed-check and the add.
            self.metrics.record_revoked()
            raise
        return request.future

    def predict(self, window: np.ndarray, tenant: str | None = None,
                timeout: float | None = None,
                deadline_ms: float | None = None) -> np.ndarray:
        """Synchronous convenience: ``submit`` + ``Future.result``."""
        return self.submit(window, tenant=tenant, deadline_ms=deadline_ms).result(
            timeout=timeout
        )

    def _bucket_for(self, tenant: str) -> TokenBucket:
        with self._bucket_lock:
            bucket = self._tenant_buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self.config.tenant_rate_limit, burst=self.config.tenant_burst
                )
                self._tenant_buckets[tenant] = bucket
            return bucket

    def _breaker_for(self, tenant: str) -> CircuitBreaker | None:
        if self.config.breaker_failures is None:
            return None
        with self._breaker_lock:
            breaker = self._breakers.get(tenant)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_failures,
                    reset_timeout_s=self.config.breaker_reset_s,
                )
                self._breakers[tenant] = breaker
            return breaker

    def _record_failure(self, tenant: str) -> None:
        """One failed batch against ``tenant``'s breaker."""
        breaker = self._breaker_for(tenant)
        if breaker is not None and breaker.record_failure():
            self.metrics.record_breaker_open()

    # ------------------------------------------------------------------ #
    # Exactly-once settlement
    # ------------------------------------------------------------------ #
    def _mark_settled(self, request: PendingRequest) -> bool:
        with self._settle_lock:
            if request.settled:
                return False
            request.settled = True
            return True

    def _settle_result(self, request: PendingRequest, value) -> None:
        self._settle(request, request.future.set_result, value)

    def _settle_error(self, request: PendingRequest, exc: BaseException,
                      kind: str | None = None) -> None:
        self._settle(request, request.future.set_exception, exc, True, kind)

    def _settle(self, request: PendingRequest, resolve, outcome,
                failed: bool = False, kind: str | None = None) -> None:
        if not self._mark_settled(request):
            return
        try:
            resolve(outcome)
        except InvalidStateError:
            self.metrics.record_cancelled()
            return
        self.metrics.record_done(time.perf_counter() - request.submitted, failed, kind)

    def _fail_batch(self, batch: MicroBatch, exc: BaseException) -> None:
        for request in batch.requests:
            self._settle_error(request, exc)

    def _claim(self, request: PendingRequest) -> bool:
        """Move the request to RUNNING exactly once; False when cancelled
        or already settled (a duplicate dispatch lost the race)."""
        cancelled = False
        with self._settle_lock:
            if request.settled:
                return False
            if not request.started:
                request.started = True
                if not request.future.set_running_or_notify_cancel():
                    request.settled = True
                    cancelled = True
        if cancelled:
            self.metrics.record_cancelled()
            return False
        return True

    def _expire(self, request: PendingRequest) -> None:
        waited_ms = (time.perf_counter() - request.submitted) * 1e3
        deadline_ms = request.deadline_ms
        self._settle_error(
            request,
            DeadlineExceeded(
                f"request expired after {waited_ms:.1f} ms in queue "
                f"(deadline {deadline_ms:g} ms)" if deadline_ms is not None
                else f"request expired after {waited_ms:.1f} ms in queue",
                tenant=request.tenant, deadline_ms=deadline_ms, waited_ms=waited_ms,
            ),
            kind="expired",
        )

    # ------------------------------------------------------------------ #
    # Online update lane
    # ------------------------------------------------------------------ #
    def update(self, inputs: np.ndarray, targets: np.ndarray,
               tenant: str | None = None, set_name: str = "online"):
        """One replay-augmented online step on ``tenant``'s model.

        Serialized engine-wide (one update at a time).  The step trains the
        tenant's forecaster with no lock held — predicts keep running on
        the serving copy meanwhile — and the model is returned to eval mode
        afterwards.  A step that succeeded is then published
        (:meth:`publish`) before this returns, so a predict submitted after
        ``update`` returns sees the new weights.  A step that raises
        publishes nothing and restores the model and optimizer to their
        pre-step state bit-for-bit, so a poisoned online batch never
        reaches serving.
        """
        tenant = self._writable(tenant)
        with self._update_lock:
            # Writer-pinned (and latched dirty) before the mutation so a
            # concurrent eviction can't select this entry mid-step.
            with self.pool.updating(tenant) as entry:
                snapshot = entry.forecaster.snapshot_state()
                try:
                    step = entry.forecaster.update(inputs, targets, set_name=set_name)
                except BaseException:
                    entry.forecaster.restore_state(snapshot)
                    self.metrics.record_rollback()
                    raise
                finally:
                    # Forecaster.update leaves the model in train mode; it
                    # rests in eval like every model the pool holds.
                    if hasattr(entry.forecaster.model, "eval"):
                        entry.forecaster.model.eval()
                entry.refresh_nbytes()
                self._timed_publish(tenant, entry)
            self.metrics.record_update()
        return step

    def publish(self, tenant: str | None = None) -> None:
        """Serve ``tenant`` from its forecaster's current weights.

        :meth:`update` publishes every step it completes; call this after
        changing ``pool.forecaster(tenant)``'s parameters directly (a
        restored snapshot, hand-set weights), which serving does not see
        until published.  Serialized with the update lane.
        """
        tenant = self._writable(tenant)
        with self._update_lock:
            with self.pool.updating(tenant, mark_dirty=False) as entry:
                self._timed_publish(tenant, entry)

    def _writable(self, tenant: str | None) -> str:
        if self._closed:
            raise EngineClosed("engine is closed", tenant=tenant)
        tenant = DEFAULT_TENANT if tenant is None else str(tenant)
        self._validate(tenant)
        return tenant

    def _timed_publish(self, tenant: str, entry: PoolEntry) -> None:
        started = time.perf_counter()
        self._publish(tenant, entry)
        self.metrics.record_publish(time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # One batch: queue -> admission -> worker -> settlement
    # ------------------------------------------------------------------ #
    def _flush_loop(self) -> None:
        while True:
            batches = self._batcher.wait_due()
            if not batches and self._batcher.closed:
                return
            for batch in batches:
                self.metrics.record_flush(len(batch), "deadline")
                self._queue.put(batch)

    def _flush_if_idle(self) -> None:
        """Hand the oldest open bucket to a worker that has nothing else to
        do.  Batches already queued go first: a queued batch means no worker
        is waiting for this one.  Callers hold ``_dispatch_lock``, so the
        batch cannot land behind the stop sentinels — the batcher pops
        nothing once ``close`` has closed it."""
        if self._queue.empty() and self._spare_capacity():
            batch = self._batcher.pop_oldest()
            if batch is not None:
                self.metrics.record_flush(len(batch), "idle")
                self._queue.put(batch)

    def _batch_done(self) -> None:
        """Transport call-in: a worker just finished a batch, so whatever
        waited for company behind it has waited long enough."""
        with self._dispatch_lock:
            self._flush_if_idle()

    def _admit(self, batch: MicroBatch) -> MicroBatch | None:
        """The part of ``batch`` still worth a forward: overdue requests
        expire, cancelled/settled ones drop out, an open breaker answers."""
        now = time.monotonic()
        live = []
        for request in batch.requests:
            if request.deadline is not None and request.deadline <= now:
                self._expire(request)
            elif self._claim(request):
                live.append(request)
        if not live:
            return None
        tenant = batch.tenant
        breaker = self._breaker_for(tenant)
        if breaker is not None and not breaker.allow():
            self.metrics.record_breaker_fast_fail(len(live))
            self._serve_degraded(
                tenant, live,
                CircuitOpen(
                    f"circuit breaker for tenant {tenant!r} is open",
                    tenant=tenant, failures=breaker.failures,
                    retry_after_s=breaker.retry_after_s(),
                ),
            )
            return None
        return MicroBatch(
            tenant=tenant, requests=live, due_to_deadline=batch.due_to_deadline
        )

    def _serve_batch(self, worker, batch: MicroBatch) -> None:
        """One queued batch's trip to ``worker``, on its parent-side thread.
        An injected crash leaves as ``InjectedFault`` with the batch stamped
        in flight: the caller kills its worker, the supervisor requeues."""
        batch = self._admit(batch)
        if batch is None:
            return
        ticket = self._checkout(worker, batch)
        if ticket is None:
            # Never reached a worker: requeue without spending an attempt.
            self._retry_or_fail(
                batch, ServingError("worker died before the batch reached it")
            )
            return
        # The one place an attempt is counted, for either transport.
        for request in batch.requests:
            request.attempts += 1
        if self.injector is not None:
            self.injector.on_worker_batch(tenant=batch.tenant)
        self._carry(worker, batch, ticket)

    def _complete(self, batch: MicroBatch, predictions=None,
                  error: BaseException | None = None,
                  target_channel: int = 0) -> None:
        """Settle ``batch`` with a worker's answer.  A *reported* error is a
        deterministic model failure that would fail identically on retry, so
        — like non-finite output — it is a breaker event followed by a
        fallback answer or the structured error, never a requeue."""
        tenant = batch.tenant
        if error is None and not np.isfinite(predictions).all():
            self.metrics.record_nonfinite_batch()
            error = ServingError(
                f"model for tenant {tenant!r} produced non-finite predictions",
                tenant=tenant,
            )
        if error is not None:
            self._record_failure(tenant)
            self._serve_degraded(tenant, batch.requests, error)
            return
        breaker = self._breaker_for(tenant)
        if breaker is not None:
            breaker.record_success()
        self._fallback_ctx[tenant] = (tuple(predictions.shape[1:]), target_channel)
        for index, request in enumerate(batch.requests):
            self._settle_result(request, predictions[index])

    # ------------------------------------------------------------------ #
    # Degradation and retry
    # ------------------------------------------------------------------ #
    def _serve_degraded(self, tenant: str, requests: list[PendingRequest],
                        exc: BaseException) -> None:
        """Answer ``requests`` via a fallback predictor or fail them with ``exc``."""
        if self._serve_fallback(tenant, requests):
            return
        for request in requests:
            self._settle_error(request, exc)

    def _serve_fallback(self, tenant: str, requests: list[PendingRequest]) -> bool:
        """Degraded answers: the tenant's registered fallback forecaster,
        else the model-free historical average (when ``fallback="ha"`` and
        a healthy batch has taught us the output shape)."""
        fallback = self.pool.fallback_for(tenant)
        if fallback is None and self.config.fallback == "none":
            return False
        stacked = np.stack([request.window for request in requests])
        try:
            if fallback is not None:
                predictions = fallback.predict(stacked, batch_size=len(stacked))
            else:
                ctx = self._fallback_ctx.get(tenant)
                if ctx is None:
                    return False
                out_shape, target_channel = ctx
                predictions = historical_average(stacked, out_shape, target_channel)
            if not np.isfinite(predictions).all():
                return False
        except BaseException:  # noqa: BLE001 - a broken fallback must not mask exc
            return False
        self.metrics.record_fallback(len(requests))
        for index, request in enumerate(requests):
            self._settle_result(request, predictions[index])
        return True

    def _retry_or_fail(self, batch: MicroBatch, exc: BaseException) -> None:
        """Requeue a failed batch's unresolved requests with backoff, or
        fail the ones whose retry budget is spent."""
        retry = []
        for request in batch.requests:
            if request.settled or request.future.done():
                continue
            if request.attempts > self.config.max_retries:
                self._settle_error(request, exc)
            else:
                retry.append(request)
        if not retry:
            return
        if self._closed:
            # Workers are on their way out; a requeue could hang forever.
            for request in retry:
                self._settle_error(request, exc)
            return
        self.metrics.record_retry(len(retry))
        attempts = max(request.attempts for request in retry)
        backoff = min(
            self.config.retry_backoff_ms * (2 ** max(attempts - 1, 0)),
            self.config.retry_backoff_max_ms,
        ) / 1e3
        requeued = MicroBatch(
            tenant=batch.tenant, requests=retry, due_to_deadline=batch.due_to_deadline
        )
        with self._delayed_lock:
            self._delayed.append((time.monotonic() + backoff, requeued))

    # ------------------------------------------------------------------ #
    # Supervisor
    # ------------------------------------------------------------------ #
    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(self.config.supervise_interval_s):
            try:
                self._supervise_once()
            except Exception:  # noqa: BLE001 - the supervisor must survive anything
                self.supervisor_errors += 1

    def _supervise_once(self) -> None:
        now = time.monotonic()
        # 1. Re-dispatch retry batches whose backoff elapsed.
        due = []
        with self._delayed_lock:
            keep = []
            for due_at, batch in self._delayed:
                (due if due_at <= now else keep).append((due_at, batch))
            self._delayed[:] = keep
        for _, batch in due:
            self._queue.put(batch)
        # 2. Expire requests still waiting in the batcher past their deadline.
        if self._deadlines_used:
            for request in self._batcher.pop_expired(now):
                self._expire(request)
        # 3. Replace dead and wedged workers; recover their batches.
        for batch, error in self._reap_workers(now):
            self._retry_or_fail(batch, error)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True, drain_timeout: float | None = None) -> None:
        """Stop the engine.

        ``drain=True`` (default) answers everything already accepted: the
        batcher's residual buckets are flushed, workers finish the queue,
        then exit.  ``drain=False`` fails still-buffered requests with
        :class:`~repro.exceptions.EngineClosed` (batches already dispatched
        to workers still complete).  ``drain_timeout`` (seconds) bounds the
        wait on worker exit: past it, wedged workers are abandoned (worker
        processes terminated) and everything still unanswered fails with
        ``EngineClosed`` — a stuck forward can no longer hang shutdown.  A
        pool the engine built itself (from a bare ``Forecaster``) is
        closed; a caller-supplied pool survives, minus any shard views this
        engine attached.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            with self._dispatch_lock:
                # Any submitter past the closed-check either finished its
                # enqueue before this point or will get EngineClosed from
                # the batcher; afterwards no new batch can enter the queue.
                self._batcher.close()
            # Join the flusher BEFORE draining and before the worker stop
            # sentinels: it may hold batches popped from the buckets but not
            # yet enqueued, and those must land ahead of the sentinels or
            # their futures would hang forever.
            self._flusher.join()
            self._supervisor_stop.set()
            self._supervisor.join()
            closing_error = EngineClosed("engine closed before the batch was served")
            remainder = self._batcher.drain()
            with self._delayed_lock:
                delayed = [batch for _, batch in self._delayed]
                self._delayed.clear()
            if drain:
                for batch in remainder:
                    self.metrics.record_flush(len(batch), "deadline")
                    self._queue.put(batch)
                for batch in delayed:
                    self._queue.put(batch)
            else:
                for batch in remainder + delayed:
                    self._fail_batch(batch, closing_error)
            join_deadline = (
                None if drain_timeout is None
                else time.monotonic() + drain_timeout
            )

            def remaining(default: float | None = None) -> float | None:
                if join_deadline is None:
                    return default
                return max(join_deadline - time.monotonic(), 0.0)

            for batch in self._shut_down(drain, remaining):
                self._fail_batch(batch, closing_error)
            self._release_pool()

    def _drain_queue(self) -> list[MicroBatch]:
        """Empty the batch queue once nothing pulls from it anymore."""
        batches = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return batches
            if item is not _STOP:
                batches.append(item)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Liveness summary: workers, breakers, queue depth, verdict.

        ``status`` is ``"ok"`` (all workers alive, all breakers closed),
        ``"degraded"`` (a worker is down/wedged or a breaker is open or
        half-open) or ``"closed"``.
        """
        workers = self._worker_health(time.monotonic())
        with self._breaker_lock:
            breakers = {
                tenant: breaker.snapshot()
                for tenant, breaker in self._breakers.items()
            }
        unhealthy_breakers = sum(
            1 for snapshot in breakers.values() if snapshot["state"] != "closed"
        )
        with self._delayed_lock:
            delayed = len(self._delayed)
        degraded = (
            workers["alive"] < self.config.num_workers or workers["wedged"] > 0
            or unhealthy_breakers > 0
        )
        return {
            "status": "closed" if self._closed
            else ("degraded" if degraded else "ok"),
            "workers": {
                "configured": self.config.num_workers,
                "restarts": self.metrics.worker_restarts,
                **workers,
            },
            "breakers": breakers,
            "pending": self.metrics.pending,
            "queued_batches": self._queue.qsize(),
            "delayed_batches": delayed,
            "supervisor_errors": self.supervisor_errors,
        }

    def stats(self) -> dict:
        """Metrics, pool, batcher and compiled-program state in one dict."""
        stats = {
            "metrics": self.metrics.snapshot(),
            "pool": self.pool.stats(),
            "program_cache": program_cache_stats(),
            "waiting_in_batcher": len(self._batcher),
            "closed": self._closed,
            "health": self.health(),
            "config": {name: getattr(self.config, name) for name in _STATS_CONFIG},
        }
        if self.injector is not None:
            stats["faults"] = self.injector.stats()
        return stats


class _Worker:
    """One serving thread plus the supervisor's view of it.

    ``batch``/``started_at`` form the heartbeat (what it is serving, since
    when); ``crashed`` is set by the worker itself on the way down so the
    supervisor can recover the batch; ``abandoned`` tells a wedged worker
    that has been replaced to exit instead of pulling more work.
    """

    __slots__ = ("thread", "abandoned", "batch", "started_at", "crashed", "error")

    def __init__(self):
        self.thread: threading.Thread | None = None
        self.abandoned = threading.Event()
        self.batch: MicroBatch | None = None
        self.started_at: float | None = None
        self.crashed = False
        self.error: BaseException | None = None

    def wedged(self, now: float, timeout: float) -> bool:
        return self.started_at is not None and now - self.started_at > timeout


class ServingEngine(EngineCore):
    """Async serving loop over one forecaster or a multi-tenant pool, the
    fused forwards running on worker threads of this process.

    Takes :class:`EngineCore`'s parameters.  Every tenant is served from a
    replica (:func:`~repro.serve.tenancy.replica_of`) attached to the pool
    as its serving view — wrapped in a
    :class:`~repro.serve.sharding.ShardedForecaster` when ``shards > 1`` —
    so training never touches what predicts read.  Each worker thread pulls
    a flushed batch, runs the replica's ``predict`` under the tenant's read
    lock and resolves the requests' futures; :meth:`publish` copies trained
    weights into the replica in place under the write lock.  Engines
    sharing a pool with equal ``shards`` share its replicas.
    """

    def __init__(self, source, config: EngineConfig | None = None, faults=None):
        super().__init__(source, config, faults)
        shards = self.config.shards
        self.pool.attach_views(
            (lambda f: ShardedForecaster(replica_of(f), shards)) if shards > 1
            else replica_of,
            key=("replica", shards),
        )
        self._workers_lock = threading.Lock()
        self._worker_seq = itertools.count()
        self._workers: list[_Worker] = []
        with self._workers_lock:
            for _ in range(self.config.num_workers):
                self._spawn_worker()
        self._start_loops()

    def _spawn_worker(self) -> _Worker:
        """Create, register and start one worker (callers hold _workers_lock)."""
        worker = _Worker()
        worker.thread = threading.Thread(
            target=self._worker_loop, args=(worker,),
            name=f"repro-serve-worker-{next(self._worker_seq)}", daemon=True,
        )
        self._workers.append(worker)
        worker.thread.start()
        return worker

    def _worker_loop(self, worker: _Worker) -> None:
        while True:
            batch = self._queue.get()
            if batch is _STOP:
                return
            with self._workers_lock:
                worker.batch = batch
                worker.started_at = time.monotonic()
            try:
                self._serve_batch(worker, batch)
            except BaseException as exc:  # noqa: BLE001 - die visibly for the supervisor
                with self._workers_lock:
                    worker.error = exc
                    worker.crashed = True
                return
            with self._workers_lock:
                worker.batch = None
                worker.started_at = None
            if worker.abandoned.is_set():
                return
            self._batch_done()

    def _publish(self, tenant: str, entry: PoolEntry) -> None:
        # Parameters change in place: compiled replay instances bound the
        # replica's arrays when they were built.
        pairs = zip(entry.replica.model.parameters(), entry.forecaster.model.parameters())
        with entry.lock.write():
            for served, trained in pairs:
                np.copyto(served.data, trained.data)

    def _carry(self, worker, batch: MicroBatch, ticket=None) -> None:
        tenant = batch.tenant
        try:
            entry: PoolEntry = self.pool.get(tenant)
        except BaseException as exc:  # noqa: BLE001 - checkpoint load can fail
            # A failed (re)load is plausibly transient — IO hiccup, injected
            # fault, a checkpoint mid-rewrite — so it goes through the
            # retry path before the requests fail.
            self._record_failure(tenant)
            self._retry_or_fail(batch, exc)
            return
        try:
            with entry.lock.read():
                predictions = entry.served.predict(
                    batch.stack(), batch_size=len(batch)
                )
        except BaseException as exc:  # noqa: BLE001 - resolve, never hang
            self._complete(batch, error=exc)
            return
        self._complete(
            batch, predictions,
            target_channel=getattr(entry.forecaster, "target_channel", 0),
        )

    def _spare_capacity(self) -> bool:
        # A crashed worker keeps its batch stamped until it is reaped.
        with self._workers_lock:
            return any(worker.batch is None for worker in self._workers)

    def _reap_workers(self, now: float) -> list[tuple[MicroBatch, BaseException]]:
        recovered = []
        with self._workers_lock:
            for worker in list(self._workers):
                if worker.crashed or not worker.thread.is_alive():
                    error = worker.error or ServingError(
                        "worker died while serving the batch"
                    )
                elif worker.wedged(now, self.config.wedge_timeout_s):
                    # Python threads can't be killed: abandon it (it exits
                    # after its batch, if ever) and serve a duplicate — the
                    # settle latch makes double completion harmless.
                    worker.abandoned.set()
                    error = ServingError(
                        f"worker exceeded wedge_timeout_s="
                        f"{self.config.wedge_timeout_s:g} serving the batch"
                    )
                else:
                    continue
                self._workers.remove(worker)
                if worker.batch is not None:
                    recovered.append((worker.batch, error))
                self._spawn_worker()
                self.metrics.record_worker_restart()
        return recovered

    def _shut_down(self, drain: bool, remaining) -> list[MicroBatch]:
        with self._workers_lock:
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(_STOP)
        for worker in workers:
            worker.thread.join(remaining())
        stuck = [worker for worker in workers if worker.thread.is_alive()]
        for worker in stuck:
            worker.abandoned.set()
        # Whatever is still queued (crashed workers leave batches and their
        # own unconsumed sentinels behind) plus the in-flight batches of
        # workers that died or are being abandoned right now.
        unserved = self._drain_queue()
        for worker in workers:
            if worker.batch is not None:
                unserved.append(worker.batch)
                worker.batch = None
        if drain and not stuck:
            # Every worker is gone: serve the rest on the closing thread.
            for batch in unserved:
                batch = self._admit(batch)
                if batch is not None:
                    self._carry(None, batch)
            unserved = []
        if not self._owns_pool:
            # Hand the caller's pool back (undecorated once no other engine
            # serves it), shutting our shard executors down.
            self.pool.reset_views()
        return unserved

    def _worker_health(self, now: float) -> dict:
        with self._workers_lock:
            return {
                "alive": sum(
                    1 for worker in self._workers
                    if worker.thread.is_alive() and not worker.crashed
                ),
                "wedged": sum(
                    1 for worker in self._workers
                    if worker.wedged(now, self.config.wedge_timeout_s)
                ),
            }
