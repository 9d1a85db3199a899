"""Serving metrics: request counters, latency percentiles, batching efficiency.

One :class:`EngineMetrics` instance rides along with each serving engine
(``engine.metrics``, either transport).  Every counter mutation happens
under one lock, so worker threads, the flusher and the submitting callers
can all record concurrently; :meth:`snapshot` returns a plain dict suitable
for JSON dumps (the serving benchmark records exactly this).

Latency percentiles are computed over a bounded window of the most recent
observations (:data:`LATENCY_WINDOW` requests) so a long-lived engine keeps
constant memory; throughput and counters are cumulative since start (or the
last :meth:`reset`).  The same bounded window holds the time each online
update took to publish its weights to serving (``publish_ms``).
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

__all__ = ["EngineMetrics", "LATENCY_WINDOW", "percentiles"]

LATENCY_WINDOW = 65536

# Every counter, in snapshot order.
COUNTERS = (
    "submitted", "completed", "failed", "cancelled", "rejected",
    "batches", "batched_requests",
    # Why each batch left the batcher (the three sum to ``batches``): it was
    # full, a worker had nothing to do, or it waited out ``max_delay_ms``.
    "deadline_flushes", "size_flushes", "idle_flushes", "updates",
    # Resilience counters: terminal error kinds (each also counts in
    # ``failed``), recovery actions, and graceful-degradation events.
    "expired",               # deadline passed before service
    "shed",                  # dropped oldest under overload
    "throttled",             # token-bucket admission refusals
    "retried",               # requests re-dispatched after a failure
    "worker_restarts",       # dead/wedged workers replaced
    "breaker_opens",         # circuit-breaker trips
    "breaker_fast_fails",    # requests refused/redirected while open
    "fallbacks",             # requests served by a fallback predictor
    "imputed_windows",       # NaN windows repaired on admission
    "rejected_nan_windows",  # NaN windows refused on admission
    "nonfinite_batches",     # model outputs caught non-finite
    "rollbacks",             # online updates rolled back mid-step
)


def percentiles(samples, points=(50.0, 95.0, 99.0)) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over ``samples`` (NaN when empty)."""
    if len(samples) == 0:
        return {f"p{point:g}": float("nan") for point in points}
    values = np.percentile(np.asarray(list(samples), dtype=float), points)
    return {f"p{point:g}": float(value) for point, value in zip(points, values)}


class EngineMetrics:
    """Thread-safe counters and latency accounting for the serving engine.

    Request latency is measured from ``submit`` to future resolution, so it
    includes batching delay, queueing and the fused forward — what a client
    actually waits.
    """

    def __init__(self, latency_window: int = LATENCY_WINDOW):
        self._lock = threading.Lock()
        # Extra snapshot sections by name, each a ``() -> dict`` (the process
        # engine contributes ``"workers"``, merged from its worker shards).
        self.sections: dict = {}
        self._latencies: deque[float] = deque(maxlen=int(latency_window))
        self._publishes: deque[float] = deque(maxlen=int(latency_window))
        self.reset()

    # ------------------------------------------------------------------ #
    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_revoked(self) -> None:
        """Un-count a submission the batcher refused (engine closing)."""
        with self._lock:
            self.submitted -= 1
            self.rejected += 1

    def record_cancelled(self) -> None:
        """Resolve a client-cancelled request's slot in the pending count.

        Cancelled futures are never set_result/set_exception, so without
        this the pending count would leak one slot per cancellation and
        eventually wedge submit() into permanent ``QueueFull``.
        """
        with self._lock:
            self.cancelled += 1

    def record_update(self) -> None:
        with self._lock:
            self.updates += 1

    def record_publish(self, seconds: float) -> None:
        """One publish of trained weights to serving: the replica copy on
        the thread transport, the shared-memory flip on the process one."""
        with self._lock:
            self._publishes.append(float(seconds))

    def record_flush(self, size: int, reason: str) -> None:
        """One batch of ``size`` left the batcher; ``reason`` is ``"size"``,
        ``"deadline"`` or ``"idle"``."""
        with self._lock:
            if reason == "size":
                self.size_flushes += 1
            elif reason == "deadline":
                self.deadline_flushes += 1
            elif reason == "idle":
                self.idle_flushes += 1
            else:
                raise ValueError(f"unknown flush reason {reason!r}")
            self.batches += 1
            self.batched_requests += int(size)

    def record_done(self, latency_seconds: float, failed: bool = False,
                    kind: str | None = None) -> None:
        """Terminal resolution of one request.

        ``kind`` tags error resolutions for the typed counters:
        ``"expired"`` (deadline), ``"shed"`` (overload) — anything else
        counts only in ``failed``.
        """
        with self._lock:
            if failed:
                self.failed += 1
                if kind == "expired":
                    self.expired += 1
                elif kind == "shed":
                    self.shed += 1
            else:
                self.completed += 1
            self._latencies.append(float(latency_seconds))

    # ------------------------------------------------------------------ #
    # Resilience events
    # ------------------------------------------------------------------ #
    def record_throttled(self) -> None:
        with self._lock:
            self.throttled += 1
            self.rejected += 1

    def record_retry(self, requests: int = 1) -> None:
        with self._lock:
            self.retried += int(requests)

    def record_worker_restart(self) -> None:
        with self._lock:
            self.worker_restarts += 1

    def record_breaker_open(self) -> None:
        with self._lock:
            self.breaker_opens += 1

    def record_breaker_fast_fail(self, requests: int = 1) -> None:
        with self._lock:
            self.breaker_fast_fails += int(requests)

    def record_fallback(self, requests: int = 1) -> None:
        with self._lock:
            self.fallbacks += int(requests)

    def record_imputed(self) -> None:
        with self._lock:
            self.imputed_windows += 1

    def record_nan_rejected(self) -> None:
        with self._lock:
            self.rejected_nan_windows += 1
            self.rejected += 1

    def record_nonfinite_batch(self) -> None:
        with self._lock:
            self.nonfinite_batches += 1

    def record_rollback(self) -> None:
        with self._lock:
            self.rollbacks += 1

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Requests accepted but not yet resolved (queue + in flight)."""
        with self._lock:
            return self.submitted - self.completed - self.failed - self.cancelled

    def snapshot(self) -> dict:
        """One consistent view of every counter plus derived statistics."""
        with self._lock:
            elapsed = time.perf_counter() - self._started
            snapshot = {name: getattr(self, name) for name in COUNTERS}
            # Copied under the lock, ranked outside it: percentiles over a
            # full window would otherwise stall every submit for the scrape.
            window = list(self._latencies)
            publishes = list(self._publishes)
        resolved = snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
        snapshot.update({
            "pending": snapshot["submitted"] - resolved,
            "mean_batch_size": snapshot["batched_requests"] / snapshot["batches"]
            if snapshot["batches"]
            else float("nan"),
            "latency_ms": {k: v * 1e3 for k, v in percentiles(window).items()},
            "publish_ms": {
                "p50": float(np.median(publishes)) * 1e3 if publishes else float("nan"),
                "max": max(publishes) * 1e3 if publishes else float("nan"),
            },
            "throughput_rps": snapshot["completed"] / elapsed if elapsed > 0 else 0.0,
            "elapsed_seconds": elapsed,
        })
        for name, section in self.sections.items():
            snapshot[name] = section()
        return snapshot

    # ``engine.metrics()`` and ``engine.metrics.snapshot()`` are one call.
    __call__ = snapshot

    def reset(self) -> None:
        """Zero every counter and restart the throughput clock."""
        with self._lock:
            self._latencies.clear()
            self._publishes.clear()
            self._started = time.perf_counter()
            for name in COUNTERS:
                setattr(self, name, 0)
