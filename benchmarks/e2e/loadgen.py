"""Seeded open-loop load generation for the end-to-end benchmark.

One issuer thread submits requests on a precomputed Poisson schedule and
never waits for a reply, so a slow engine receives the same load as a fast
one and its queue is allowed to grow.  Completions arrive through future
callbacks on the engine's own threads.  Every latency is measured from the
request's *due* time, not from the moment it was actually submitted, so a
stall that delays the issuer is charged to the requests it delayed; how
late the issuer ran is reported beside the latencies.  A refused request
is counted and never retried.

The burst driver submits a whole tick of requests back to back and waits
for the last future, which is how a sensor network reporting on one
five-minute boundary loads the engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import QueueFull

SLO_MS = 25.0
DRAIN_TIMEOUT_S = 30.0


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile; NaN for an empty sample."""
    if len(samples) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def poisson_schedule(rng: np.random.Generator, rate_rps: float, duration_s: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson arrival process.

    Offsets are the cumulative sum of exponential gaps, so due times do not
    drift with how long each submit takes.  At least one request is due.
    """
    expected = max(int(rate_rps * duration_s * 1.5) + 16, 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate_rps, size=expected))
    offsets = offsets[offsets < duration_s]
    if offsets.size == 0:
        offsets = np.array([duration_s / 2.0])
    return offsets


@dataclass
class PhaseResult:
    """Outcome of one open-loop phase.  Latencies are in milliseconds."""

    rate_rps: float
    sent: int
    refused: int
    failed: int
    lost: int
    backlog_at_end: int
    issue_seconds: float
    latencies_ms: np.ndarray
    late_ms: np.ndarray
    submit_us: np.ndarray
    errors: dict = field(default_factory=dict)

    @property
    def ok_share(self) -> float:
        """Requests answered within the limit of their due time / requests sent."""
        return float((self.latencies_ms <= SLO_MS).sum()) / self.sent

    @property
    def missed(self) -> int:
        """Requests that were refused, failed or never resolved."""
        return self.refused + self.failed + self.lost

    @property
    def backlogged(self) -> bool:
        """More requests in flight at the end than the limit allows for."""
        return self.backlog_at_end > self.rate_rps * SLO_MS / 1e3

    def summary(self) -> dict:
        return {
            "rate_rps": self.rate_rps,
            "sent": self.sent,
            "refused": self.refused,
            "failed": self.failed,
            "lost": self.lost,
            "errors": self.errors,
            "backlog_at_end": self.backlog_at_end,
            "achieved_offer_rps": self.sent / self.issue_seconds,
            "p50_ms": percentile(self.latencies_ms, 50),
            "p95_ms": percentile(self.latencies_ms, 95),
            "p99_ms": percentile(self.latencies_ms, 99),
            "ok_share": self.ok_share,
            "late_ms_p99": percentile(self.late_ms, 99),
            "submit_us_p50": percentile(self.submit_us, 50),
        }


class _Collector:
    """Completion bookkeeping shared by the issuer and the engine's threads."""

    def __init__(self, capacity: int):
        self.done_at = np.full(capacity, np.nan)
        self.lock = threading.Lock()
        self.resolved = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.expected: int | None = None
        self.all_done = threading.Event()

    def callback(self, index: int):
        def on_done(future) -> None:
            now = time.perf_counter()
            error = future.exception()
            if error is None and not np.isfinite(future.result()).all():
                error = FloatingPointError("non-finite prediction")
            with self.lock:
                if error is None:
                    self.done_at[index] = now
                else:
                    self.failed += 1
                    name = type(error).__name__
                    self.errors[name] = self.errors.get(name, 0) + 1
                self.resolved += 1
                if self.resolved == self.expected:
                    self.all_done.set()
        return on_done

    def finish(self, accepted: int) -> int:
        """Wait for every accepted request; return how many never resolved."""
        with self.lock:
            self.expected = accepted
            if self.resolved == accepted:
                self.all_done.set()
        self.all_done.wait(DRAIN_TIMEOUT_S)
        with self.lock:
            return accepted - self.resolved


def run_open_loop(engine, windows: np.ndarray, tenants: list, offsets: np.ndarray,
                  rate_rps: float) -> PhaseResult:
    """Submit ``len(offsets)`` requests at their due times; wait for the drain.

    Request ``i`` carries ``windows[i % len(windows)]`` for tenant
    ``tenants[i % len(tenants)]``.
    """
    count = len(offsets)
    collector = _Collector(count)
    late = np.empty(count)
    submit = np.empty(count)
    refused = accepted = 0
    start = time.perf_counter() + 0.005
    due_at = start + offsets
    for index in range(count):
        wait = due_at[index] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        window = windows[index % len(windows)]
        tenant = tenants[index % len(tenants)]
        before = time.perf_counter()
        try:
            future = engine.submit(window, tenant=tenant)
        except QueueFull:
            future = None
        after = time.perf_counter()
        late[index] = before - due_at[index]
        submit[index] = after - before
        if future is None:
            refused += 1
            continue
        accepted += 1
        future.add_done_callback(collector.callback(index))
    issue_end = time.perf_counter()
    with collector.lock:
        backlog = accepted - collector.resolved
    lost = collector.finish(accepted)
    answered = ~np.isnan(collector.done_at)
    return PhaseResult(
        rate_rps=rate_rps,
        sent=count,
        refused=refused,
        failed=collector.failed,
        lost=lost,
        backlog_at_end=backlog,
        issue_seconds=issue_end - start,
        latencies_ms=(collector.done_at[answered] - due_at[answered]) * 1e3,
        late_ms=np.maximum(late, 0.0) * 1e3,
        submit_us=submit * 1e6,
        errors=collector.errors,
    )


def run_burst(engine, windows: np.ndarray, tenants: list, size: int) -> dict:
    """Submit ``size`` requests back to back; time first submit → last answer."""
    collector = _Collector(size)
    refused = accepted = 0
    start = time.perf_counter()
    for index in range(size):
        try:
            future = engine.submit(
                windows[index % len(windows)], tenant=tenants[index % len(tenants)]
            )
        except QueueFull:
            refused += 1
            continue
        accepted += 1
        future.add_done_callback(collector.callback(index))
    lost = collector.finish(accepted)
    seconds = time.perf_counter() - start
    return {
        "sent": size,
        "refused": refused,
        "failed": collector.failed,
        "lost": lost,
        "errors": collector.errors,
        "seconds": seconds,
        "rps": size / seconds,
    }


def run_updates(engine, batches: list, tenants: list, period_s: float,
                stop: threading.Event) -> dict:
    """Call ``engine.update`` every ``period_s`` until ``stop`` or out of batches.

    Due times are ``start + i * period_s``, so a slow update does not push
    the following ones back.  Returns the wall time of every call (ms), the
    number that raised, and how many were issued.
    """
    durations = []
    failed = 0
    start = time.perf_counter()
    for index, (inputs, targets) in enumerate(batches):
        if stop.wait(max(start + index * period_s - time.perf_counter(), 0.0)):
            break
        before = time.perf_counter()
        try:
            engine.update(inputs, targets, tenant=tenants[index % len(tenants)])
        except Exception:  # the updater must outlive a bad step to report it
            failed += 1
        durations.append((time.perf_counter() - before) * 1e3)
    return {"issued": len(durations), "failed": failed, "durations_ms": durations}
