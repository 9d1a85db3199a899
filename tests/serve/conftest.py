"""Serving-test fixtures: a way to keep requests waiting in the batcher.

The engine is work-conserving — a request on an idle engine goes straight
to a worker, whatever ``max_delay_ms`` says — so a test that needs requests
to *stay queued* (in-queue expiry, shedding, non-draining close) has to
give every worker something to do first.  :class:`Gate` does that with the
engine's own fault-injection hook, on either transport.
"""

import threading
import time

import pytest

from repro.serve import FaultInjector, FaultPlan

HOLD_TIMEOUT_S = 60.0


class Gate(FaultInjector):
    """An injected worker stall that ends when the test says so.

    Pass it as an engine's ``faults=``.  While held, every batch a worker
    takes blocks where a :class:`~repro.serve.faults.FaultPlan` stall would
    sleep — after it was stamped in flight, before its forward.
    """

    def __init__(self):
        super().__init__(FaultPlan())
        self._open = threading.Event()
        self._open.set()
        self._until = None
        self.held = 0

    def on_worker_batch(self, tenant=None) -> None:
        with self._lock:
            self.held += 1
        try:
            deadline = time.monotonic() + HOLD_TIMEOUT_S
            while not self._open.wait(0.002) and time.monotonic() < deadline:
                if self._until is not None and self._until():
                    return
        finally:
            with self._lock:
                self.held -= 1

    def park(self, engine, window, tenant=None, until_closing=False) -> "Gate":
        """Occupy every worker of ``engine``: afterwards nothing submitted
        is dispatched until :meth:`release` (or the end of a ``with`` on the
        returned gate).  The parking requests are single-request batches of
        ``window`` with a deadline no test outlives; none is left in the
        batcher.  With ``until_closing`` the workers also resume once
        ``engine.close()`` has closed the batcher — after the point where a
        finished batch could still pull the waiting requests out of it, so
        they are close's to drain or fail."""
        self._open.clear()
        self._until = (lambda: engine._batcher.closed) if until_closing else None
        parked = 0
        # The engine's own rule: submit() dispatches on arrival exactly
        # while the batch queue is empty and some worker has spare capacity.
        while engine._queue.empty() and engine._spare_capacity():
            parked += 1
            engine.submit(window, tenant=tenant, deadline_ms=HOLD_TIMEOUT_S * 1e3)
            # Workers take one batch each; on the process transport the
            # last parking batch then waits in the queue, which parks too.
            taken = min(parked, engine.config.num_workers)
            deadline = time.monotonic() + HOLD_TIMEOUT_S
            while self.held < taken and time.monotonic() < deadline:
                time.sleep(0.001)
            assert self.held >= taken, "a parking batch never reached its worker"
        return self

    def release(self) -> None:
        self._open.set()

    def __enter__(self) -> "Gate":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@pytest.fixture
def gate():
    """A fresh :class:`Gate`, released at teardown so a failing test cannot
    leave a worker (and the engine's ``close``) blocked."""
    gate = Gate()
    try:
        yield gate
    finally:
        gate.release()
