"""Dynamic micro-batching for single-window requests.

The serving engine accepts one ``(time, nodes, channels)`` window per
request but the model amortises fixed per-call overhead (scaling, Python
dispatch, support lookup) over a whole ``(batch, ...)`` stack — the same
reason ``Forecaster.predict`` micro-batches internally.
:class:`DynamicBatcher` bridges the two: requests accumulate in per-
``(tenant, window shape)`` buckets and a bucket leaves as one
:class:`MicroBatch` for one of three reasons.  **Size**: it reached
``max_batch_size`` — flushed synchronously inside :meth:`add` (zero extra
latency on a full batch).  **Idle**: the engine saw a worker with nothing to
do and took the oldest open bucket with :meth:`pop_oldest`, so a request
waits for company only while every worker already has work.  **Deadline**:
its oldest request has waited ``max_delay_ms`` behind busy workers — the
upper bound on that wait, collected by the engine's flusher thread blocking
in :meth:`wait_due`.

The batcher is a pure coalescing data structure: it never touches a model
and never resolves a future, so it is exactly unit-testable with fake
requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import EngineClosed

__all__ = ["PendingRequest", "MicroBatch", "DynamicBatcher"]


@dataclass
class PendingRequest:
    """One accepted single-window request travelling through the engine.

    ``deadline`` is an absolute ``time.monotonic`` instant after which the
    request should be failed instead of served; ``attempts`` counts
    dispatches (a batch requeued after a worker crash re-increments it);
    ``started``/``settled`` are engine-side latches so a request duplicated
    across batches (wedge recovery, close-time sweeps) is resolved and
    counted exactly once.
    """

    window: np.ndarray
    tenant: str
    future: Future = field(default_factory=Future)
    submitted: float = field(default_factory=time.perf_counter)
    deadline: float | None = None
    deadline_ms: float | None = None
    attempts: int = 0
    started: bool = False
    settled: bool = False


@dataclass
class MicroBatch:
    """A flushed group of same-shape, same-tenant requests."""

    tenant: str
    requests: list[PendingRequest]
    due_to_deadline: bool = False

    def __len__(self) -> int:
        return len(self.requests)

    def stack(self) -> np.ndarray:
        """The fused ``(batch, time, nodes, channels)`` input stack."""
        return np.stack([request.window for request in self.requests])


class _Bucket:
    __slots__ = ("requests", "deadline")

    def __init__(self, deadline: float):
        self.requests: list[PendingRequest] = []
        self.deadline = deadline


class DynamicBatcher:
    """Coalesce requests into micro-batches; see the module docstring for
    the three ways a bucket leaves.

    Parameters
    ----------
    max_batch_size:
        Flush a bucket as soon as it holds this many requests.
    max_delay_ms:
        Upper bound on coalescing wait: :meth:`wait_due` hands a bucket over
        once its *first* request has waited this long, full or not.  A
        caller that pops buckets earlier (:meth:`pop_oldest`) only ever
        shortens the wait.
    """

    def __init__(self, max_batch_size: int = 32, max_delay_ms: float = 5.0):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.max_batch_size = int(max_batch_size)
        self.max_delay = float(max_delay_ms) / 1e3
        self._cond = threading.Condition()
        self._buckets: dict[tuple, _Bucket] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._cond:
            return sum(len(bucket.requests) for bucket in self._buckets.values())

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    def add(self, request: PendingRequest) -> MicroBatch | None:
        """Enqueue ``request``; return a batch if it filled one up.

        A returned batch was flushed *by size* and should be dispatched by
        the caller immediately.  Raises
        :class:`~repro.exceptions.EngineClosed` once the batcher is closed: a
        request added after the closing drain would otherwise sit in a bucket
        nobody sweeps and its future would hang.
        """
        key = (request.tenant, tuple(request.window.shape))
        with self._cond:
            if self._closed:
                raise EngineClosed("batcher is closed")
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _Bucket(deadline=time.monotonic() + self.max_delay)
                self._buckets[key] = bucket
                # A fresh bucket may carry the earliest deadline: wake the
                # flusher so it re-arms its wait.
                self._cond.notify_all()
            bucket.requests.append(request)
            if len(bucket.requests) >= self.max_batch_size:
                del self._buckets[key]
                return MicroBatch(tenant=request.tenant, requests=bucket.requests)
        return None

    def wait_due(self, timeout: float | None = None) -> list[MicroBatch]:
        """Block until some bucket's deadline passes; pop and return them.

        Returns an empty list when the batcher is closed (the flusher
        thread's exit signal) or when ``timeout`` elapses first.
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return []
                now = time.monotonic()
                due = [key for key, bucket in self._buckets.items() if bucket.deadline <= now]
                if due:
                    return [
                        MicroBatch(
                            tenant=key[0],
                            requests=self._buckets.pop(key).requests,
                            due_to_deadline=True,
                        )
                        for key in due
                    ]
                next_deadline = min(
                    (bucket.deadline for bucket in self._buckets.values()), default=None
                )
                wait = None if next_deadline is None else max(next_deadline - now, 0.0)
                if end is not None:
                    remaining = end - now
                    if remaining <= 0:
                        return []
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

    def pop_oldest(self) -> MicroBatch | None:
        """Pop the open bucket whose first request arrived earliest.

        ``None`` when nothing is queued, and once the batcher is closed —
        what is left then belongs to the closing :meth:`drain`.
        """
        with self._cond:
            if self._closed or not self._buckets:
                return None
            # Every bucket's deadline is its first arrival plus one constant.
            key = min(self._buckets, key=lambda k: self._buckets[k].deadline)
            return MicroBatch(tenant=key[0], requests=self._buckets.pop(key).requests)

    def pop_expired(self, now: float | None = None) -> list[PendingRequest]:
        """Remove and return queued requests whose deadline has passed.

        Only requests still waiting in a bucket can expire here; once a
        batch is flushed, expiry is the worker's business.  Buckets left
        empty are dropped so their flush deadline stops waking the flusher.
        """
        now = time.monotonic() if now is None else now
        expired: list[PendingRequest] = []
        with self._cond:
            emptied = []
            for key, bucket in self._buckets.items():
                keep = []
                for request in bucket.requests:
                    if request.deadline is not None and request.deadline <= now:
                        expired.append(request)
                    else:
                        keep.append(request)
                if len(keep) != len(bucket.requests):
                    bucket.requests = keep
                    if not keep:
                        emptied.append(key)
            for key in emptied:
                del self._buckets[key]
        return expired

    def shed_oldest(self) -> PendingRequest | None:
        """Pop the single oldest queued request (overload shedding).

        Returns ``None`` when nothing is queued — the overload is entirely
        in-flight and there is nothing safe to drop.
        """
        with self._cond:
            oldest_key = None
            oldest = None
            for key, bucket in self._buckets.items():
                head = bucket.requests[0]
                if oldest is None or head.submitted < oldest.submitted:
                    oldest, oldest_key = head, key
            if oldest is None:
                return None
            bucket = self._buckets[oldest_key]
            bucket.requests.pop(0)
            if not bucket.requests:
                del self._buckets[oldest_key]
            return oldest

    def drain(self) -> list[MicroBatch]:
        """Pop every queued request as batches (used on engine close)."""
        with self._cond:
            batches = [
                MicroBatch(tenant=key[0], requests=bucket.requests, due_to_deadline=True)
                for key, bucket in self._buckets.items()
            ]
            self._buckets.clear()
            return batches

    def close(self) -> None:
        """Mark the batcher closed and wake any thread blocked in wait_due."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
