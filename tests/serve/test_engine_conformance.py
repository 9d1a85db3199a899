"""One request lifecycle, two transports: every scenario runs on both engines.

``ServingEngine`` and ``ProcessServingEngine`` share
:class:`repro.serve.engine.EngineCore`; this file pins that what the
threaded engine guarantees — deadlines, shedding, rate limits, breakers,
fallbacks, NaN policies, fault-injected crashes and stalls, exactly-once
settlement, drain semantics, update rollback — holds on the process engine
too.  Every scenario ends with zero unresolved futures.  Honours
``REPRO_PROC_START_METHOD`` so CI runs it under fork and spawn.
"""

import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import (
    CircuitOpen,
    DataError,
    DeadlineExceeded,
    EngineClosed,
    QueueFull,
    RateLimited,
    ServingError,
)
from repro.serve import (
    EngineConfig,
    FaultPlan,
    ProcessServingEngine,
    ServingEngine,
    build_synthetic_tenants,
)

TENANT = "tenant-0"


def wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class Harness:
    """Builds engines of one kind over a fresh single-tenant pool and, at
    teardown, checks that nothing any of them accepted was left unresolved."""

    def __init__(self, engine_class, gate):
        self.engine_class = engine_class
        self.gate = gate
        self.pool, self.windows, self.scenario = build_synthetic_tenants(
            num_tenants=1, num_nodes=8, num_days=4, seed=0, request_windows=8,
        )
        self.forecaster = self.pool.forecaster(TENANT)
        self.direct = self.forecaster.predict(self.windows)
        self.engines = []
        self.futures = []

    def engine(self, faults=None, **overrides):
        settings = dict(
            max_batch_size=4, max_delay_ms=2.0, num_workers=2, max_retries=4,
            retry_backoff_ms=2.0, retry_backoff_max_ms=20.0,
            supervise_interval_s=0.02,
        )
        settings.update(overrides)
        extra = {}
        if self.engine_class is ProcessServingEngine:
            extra["sample_windows"] = self.windows[:1]
        engine = self.engine_class(self.pool, EngineConfig(**settings), faults, **extra)
        self.engines.append(engine)
        return engine

    def park(self, engine, **kwargs):
        """Occupy every worker of an engine built with ``faults=self.gate``;
        see ``conftest.Gate.park``."""
        return self.gate.park(engine, self.windows[0], TENANT, **kwargs)

    def submit(self, engine, index: int, **kwargs):
        future = engine.submit(self.windows[index], tenant=TENANT, **kwargs)
        self.futures.append(future)
        return future

    def serve_all(self, engine) -> np.ndarray:
        futures = [self.submit(engine, index) for index in range(len(self.windows))]
        return np.stack([future.result(timeout=60) for future in futures])

    def set_weights(self, engine, state=None):
        """Poison the tenant's serving weights (``state=None``; returns the
        state to heal with) or heal them from ``state``."""
        saved = None
        if state is None:
            saved = self.forecaster.snapshot_state()
            for parameter in self.forecaster.model.parameters():
                parameter.data[...] = np.nan
        else:
            self.forecaster.restore_state(state)
        engine.publish(TENANT)  # serving reads the published weights
        return saved

    def finish(self):
        self.gate.release()
        for engine in self.engines:
            engine.close()
        assert all(future.done() for future in self.futures)
        for engine in self.engines:
            assert engine.metrics.pending == 0
            assert engine.supervisor_errors == 0


@pytest.fixture(params=[ServingEngine, ProcessServingEngine], ids=["thread", "process"])
def harness(request, gate):
    harness = Harness(request.param, gate)
    try:
        yield harness
    finally:
        harness.finish()


class TestAdmission:
    def test_in_queue_expiry_has_structured_fields(self, harness):
        engine = harness.engine(harness.gate, max_batch_size=8, max_delay_ms=500.0,
                                supervise_interval_s=0.01)
        harness.park(engine)
        future = harness.submit(engine, 0, deadline_ms=15.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            future.result(timeout=60)
        assert excinfo.value.deadline_ms == 15.0
        assert excinfo.value.waited_ms >= 15.0
        assert excinfo.value.tenant == TENANT
        snapshot = engine.metrics.snapshot()
        assert snapshot["expired"] == 1 and snapshot["failed"] == 1

    def test_shed_oldest_fails_the_oldest_not_the_newest(self, harness):
        engine = harness.engine(harness.gate, max_batch_size=8, max_delay_ms=10_000.0,
                                max_pending=6, overload_policy="shed_oldest")
        harness.park(engine)
        # The parking batches hold slots too (how many is the transport's
        # business): fill what is left, then one more.
        room = engine.config.max_pending - engine.metrics.pending
        futures = [harness.submit(engine, index) for index in range(room + 1)]
        harness.gate.release()
        engine.close(drain=True)
        with pytest.raises(QueueFull):
            futures[0].result(timeout=60)
        for index in range(1, room + 1):
            assert np.array_equal(futures[index].result(timeout=60),
                                  harness.direct[index])
        assert engine.metrics.shed == 1

    def test_token_bucket_throttles_a_flooding_tenant(self, harness):
        engine = harness.engine(tenant_rate_limit=5.0, tenant_burst=1)
        first = harness.submit(engine, 0)
        with pytest.raises(RateLimited) as excinfo:
            harness.submit(engine, 1)
        assert excinfo.value.rate == 5.0
        first.result(timeout=60)
        time.sleep(0.3)  # the bucket refills with time
        assert np.array_equal(harness.submit(engine, 1).result(timeout=60),
                              harness.direct[1])
        assert engine.metrics.throttled == 1

    def test_nan_policies_on_injected_corruption(self, harness):
        plan = FaultPlan(seed=0, corrupt_rate=1.0, corrupt_cell_fraction=0.1)
        imputing = harness.engine(faults=plan, nan_policy="impute")
        result = harness.submit(imputing, 0).result(timeout=60)
        assert np.isfinite(result).all()
        assert imputing.metrics.imputed_windows == 1
        assert imputing.injector.stats()["corrupted_windows"] == 1
        rejecting = harness.engine(faults=plan, nan_policy="reject")
        with pytest.raises(DataError):
            harness.submit(rejecting, 0)
        assert rejecting.metrics.rejected_nan_windows == 1
        assert "faults" in rejecting.stats()


class TestDegradation:
    def test_breaker_trips_fails_fast_then_recovers_half_open(self, harness):
        engine = harness.engine(breaker_failures=2, breaker_reset_s=0.3,
                                max_retries=0, fallback="none")
        saved = harness.set_weights(engine)
        for _ in range(2):  # sequential => one breaker event per batch
            with pytest.raises(ServingError):
                harness.submit(engine, 0).result(timeout=60)
        with pytest.raises(CircuitOpen) as excinfo:
            harness.submit(engine, 1).result(timeout=60)
        assert excinfo.value.failures >= 2
        assert excinfo.value.retry_after_s > 0
        health = engine.health()
        assert health["breakers"][TENANT]["state"] == "open"
        assert health["status"] == "degraded"
        assert engine.metrics.breaker_opens == 1
        assert engine.metrics.nonfinite_batches == 2
        # Heal, wait out the reset window: a half-open probe closes it.
        harness.set_weights(engine, saved)
        time.sleep(0.45)
        assert np.array_equal(harness.submit(engine, 0).result(timeout=60),
                              harness.direct[0])
        assert engine.health()["breakers"][TENANT]["state"] == "closed"

    def test_ha_fallback_answers_while_the_model_is_sick(self, harness):
        engine = harness.engine(breaker_failures=2, breaker_reset_s=30.0,
                                max_retries=0, fallback="ha")
        assert np.array_equal(harness.submit(engine, 0).result(timeout=60),
                              harness.direct[0])
        harness.set_weights(engine)
        degraded = np.stack([
            harness.submit(engine, index).result(timeout=60) for index in range(4)
        ])
        assert degraded.shape == harness.direct[:4].shape
        assert np.isfinite(degraded).all()
        assert engine.metrics.fallbacks == 4
        assert engine.health()["breakers"][TENANT]["state"] == "open"


class TestWorkerFaults:
    def test_injected_crashes_retry_to_the_fault_free_bits(self, harness):
        plan = FaultPlan(seed=0, worker_crash_rate=1.0, worker_fault_limit=2)
        engine = harness.engine(faults=plan)
        assert np.array_equal(harness.serve_all(engine), harness.direct)
        assert engine.injector.stats()["crashes"] == 2
        assert engine.metrics.retried >= 2
        # The answers can beat the second replacement: give it a moment.
        assert wait_until(lambda: engine.health()["workers"]["restarts"] >= 2)
        assert engine.health()["workers"]["alive"] == 2

    def test_injected_stall_past_the_wedge_timeout_replaces_the_worker(self, harness):
        plan = FaultPlan(seed=0, worker_stall_rate=1.0, stall_ms=600.0,
                         worker_fault_limit=1)
        engine = harness.engine(faults=plan, num_workers=1, wedge_timeout_s=0.1)
        futures = [harness.submit(engine, index) for index in range(4)]
        served = np.stack([future.result(timeout=60) for future in futures])
        assert np.array_equal(served, harness.direct[:4])
        assert engine.injector.stats()["stalls"] == 1
        assert engine.metrics.worker_restarts >= 1


class TestSettlement:
    def test_cancelled_futures_are_counted_exactly_once(self, harness):
        engine = harness.engine(harness.gate, max_batch_size=8, max_delay_ms=30.0,
                                max_pending=5)
        for _ in range(3):  # more cancellations than max_pending in total
            with harness.park(engine):
                first, second = harness.submit(engine, 0), harness.submit(engine, 1)
                assert first.cancel() and second.cancel()
            assert wait_until(lambda: engine.metrics.pending == 0)
        snapshot = engine.metrics.snapshot()
        assert snapshot["cancelled"] == 6
        # A cancelled request is neither completed nor failed: all that
        # completed were the parking batches.
        assert snapshot["completed"] == snapshot["submitted"] - 6
        assert snapshot["failed"] == 0
        assert np.array_equal(harness.submit(engine, 0).result(timeout=60),
                              harness.direct[0])

    def test_draining_close_answers_everything(self, harness):
        engine = harness.engine(max_batch_size=16, max_delay_ms=10_000.0)
        futures = [harness.submit(engine, index) for index in range(8)]
        engine.close(drain=True)
        served = np.stack([future.result(timeout=1) for future in futures])
        assert np.array_equal(served, harness.direct)
        with pytest.raises(EngineClosed):
            harness.submit(engine, 0)
        assert engine.health()["status"] == "closed"

    def test_non_draining_close_fails_the_buffered_requests(self, harness):
        engine = harness.engine(harness.gate, max_batch_size=16, max_delay_ms=10_000.0)
        harness.park(engine, until_closing=True)
        futures = [harness.submit(engine, index) for index in range(3)]
        engine.close(drain=False)
        for future in futures:
            with pytest.raises(EngineClosed):
                future.result(timeout=1)
        assert engine.metrics.snapshot()["failed"] == 3


class TestWorkConservingBatching:
    """A request waits for company only while every worker has work; no
    scenario here depends on how long anything takes."""

    def test_lone_request_on_an_idle_engine_does_not_wait_out_the_deadline(self, harness):
        engine = harness.engine(max_batch_size=8, max_delay_ms=10_000.0)
        served = harness.submit(engine, 0).result(timeout=5)
        assert np.array_equal(served, harness.direct[0])
        snapshot = engine.metrics()
        assert snapshot["idle_flushes"] == 1
        assert snapshot["deadline_flushes"] == snapshot["size_flushes"] == 0
        assert engine.metrics.snapshot()["idle_flushes"] == 1

    def test_backlog_behind_busy_workers_leaves_as_one_batch(self, harness):
        engine = harness.engine(harness.gate, max_batch_size=8, max_delay_ms=10_000.0)
        with harness.park(engine):
            before = engine.metrics()
            futures = [harness.submit(engine, index) for index in range(5)]
            assert engine.stats()["waiting_in_batcher"] == 5
        served = np.stack([future.result(timeout=60) for future in futures])
        assert np.array_equal(served, harness.direct[:5])
        after = engine.metrics()
        assert after["batches"] == before["batches"] + 1
        assert after["batched_requests"] == before["batched_requests"] + 5
        assert after["idle_flushes"] == before["idle_flushes"] + 1
        assert after["deadline_flushes"] == after["size_flushes"] == 0

    def test_deadline_still_bounds_the_wait_behind_busy_workers(self, harness):
        engine = harness.engine(harness.gate, max_batch_size=8, max_delay_ms=5.0)
        with harness.park(engine):
            future = harness.submit(engine, 0)
            assert wait_until(lambda: engine.metrics.deadline_flushes == 1)
            assert engine.stats()["waiting_in_batcher"] == 0
            assert not future.done()
        assert np.array_equal(future.result(timeout=60), harness.direct[0])

    def test_completion_flush_racing_close_settles_everything(self, harness):
        # One engine per race; worker processes make those slow to build,
        # and the code under test is the transport-independent core.
        rounds = 200 if harness.engine_class is ServingEngine else 12
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per round
        try:
            for round_index in range(rounds):
                self.race_close(harness, drain=bool(round_index % 2),
                                head_start_s=(round_index // 2 % 4) * 5e-4)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def race_close(harness, drain: bool, head_start_s: float):
        engine = harness.engine(harness.gate, max_batch_size=8, max_delay_ms=10_000.0)
        harness.park(engine)
        futures = [harness.submit(engine, index) for index in range(3)]
        # The workers finish their batches (and go for the bucket) while
        # close() shuts the batcher and drains or fails what is in it; the
        # head start varies who gets there first, the outcome must not care.
        releaser = threading.Thread(target=harness.gate.release)
        releaser.start()
        time.sleep(head_start_s)
        engine.close(drain=drain)
        releaser.join(timeout=60)
        assert not releaser.is_alive()
        assert all(future.done() for future in futures)
        assert engine.metrics.pending == 0
        for index, future in enumerate(futures):
            if drain or future.exception() is None:
                assert np.array_equal(future.result(), harness.direct[index])
            else:
                assert isinstance(future.exception(), EngineClosed)


class TestUpdateLane:
    @staticmethod
    def update_batch(harness, horizon_shortfall: int = 0):
        spec, series = harness.scenario.spec, harness.scenario.raw_series
        stop = spec.input_steps + spec.output_steps - horizon_shortfall
        inputs = np.stack([series[: spec.input_steps]])
        targets = np.stack([
            series[spec.input_steps : stop, :,
                   spec.target_channel : spec.target_channel + 1]
        ])
        return inputs, targets

    def test_update_reaches_a_worker_that_already_served(self, harness):
        engine = harness.engine(num_workers=1)
        before = harness.submit(engine, 0).result(timeout=60)
        step = engine.update(*self.update_batch(harness), tenant=TENANT)
        assert np.isfinite(step.task_loss)
        after = harness.submit(engine, 0).result(timeout=60)
        assert np.array_equal(after, harness.forecaster.predict(harness.windows[0]))
        assert not np.array_equal(after, before)
        assert engine.metrics.updates == 1

    def test_sharded_serving_is_bit_identical_before_and_after_update(self, harness):
        engine = harness.engine(shards=2)
        assert np.array_equal(harness.serve_all(engine), harness.direct)
        engine.update(*self.update_batch(harness), tenant=TENANT)
        expected = harness.forecaster.predict(harness.windows)
        assert not np.array_equal(expected, harness.direct)
        assert np.array_equal(harness.serve_all(engine), expected)

    def test_update_in_flight_blocks_no_predict_and_publishes_bit_exact(self, harness):
        engine = harness.engine()
        train, stepped, release = harness.forecaster.update, threading.Event(), threading.Event()

        def held_update(*args, **kwargs):
            step = train(*args, **kwargs)
            stepped.set()  # the optimizer stepped; nothing is published yet
            release.wait(timeout=60)
            return step

        harness.forecaster.update = held_update
        updater = threading.Thread(
            target=engine.update, args=self.update_batch(harness),
            kwargs={"tenant": TENANT},
        )
        updater.start()
        try:
            assert stepped.wait(timeout=60)
            during = np.stack([
                harness.submit(engine, index).result(timeout=10)
                for index in range(len(harness.windows))
            ])
        finally:
            release.set()
            updater.join(timeout=60)
        assert np.array_equal(during, harness.direct)
        assert engine.metrics.updates == 1
        expected = harness.forecaster.predict(harness.windows)
        assert not np.array_equal(expected, harness.direct)
        assert np.array_equal(harness.serve_all(engine), expected)

    def test_raising_step_rolls_back_bit_exactly(self, harness):
        # The horizon is one step short: the step raises mid-update.
        inputs, bad_targets = self.update_batch(harness, horizon_shortfall=1)
        engine = harness.engine()
        with pytest.raises(Exception):
            engine.update(inputs, bad_targets, tenant=TENANT)
        assert engine.metrics.rollbacks == 1
        assert engine.metrics.updates == 0
        assert np.array_equal(harness.submit(engine, 0).result(timeout=60),
                              harness.direct[0])


class TestMetricsAccessor:
    def test_publish_time_is_reported_after_an_update(self, harness):
        engine = harness.engine()
        assert np.isnan(engine.metrics()["publish_ms"]["p50"])
        engine.update(*TestUpdateLane.update_batch(harness), tenant=TENANT)
        publish_ms = engine.metrics()["publish_ms"]
        assert np.isfinite(publish_ms["p50"]) and np.isfinite(publish_ms["max"])
        assert 0.0 <= publish_ms["p50"] <= publish_ms["max"]

    def test_both_spellings_work_on_both_engines(self, harness):
        engine = harness.engine()
        harness.submit(engine, 0).result(timeout=60)
        called, snapshot = engine.metrics(), engine.metrics.snapshot()
        assert called["completed"] == snapshot["completed"] == 1
        assert engine.metrics.completed == 1
        assert engine.stats()["metrics"]["completed"] == 1
        if harness.engine_class is ProcessServingEngine:
            assert called["workers"]["requests"] >= 1
            assert snapshot["workers"]["requests"] >= 1
        else:
            assert "workers" not in called


# -------------------------------------------------------------------- #
# Process-transport regressions (no threaded counterpart: a thread cannot
# be killed, and a thread engine spawns nothing at start-up).
# -------------------------------------------------------------------- #
process_only = pytest.mark.parametrize(
    "harness", [ProcessServingEngine], ids=["process"], indirect=True
)


@process_only
def test_batch_that_never_reached_a_worker_spends_no_retry_budget(harness):
    """With no retries allowed, requests submitted between a worker's death
    and its replacement are still served: they were never tried."""
    engine = harness.engine(num_workers=1, max_retries=0, supervise_interval_s=0.5)
    assert np.array_equal(harness.submit(engine, 0).result(timeout=60),
                          harness.direct[0])
    process = engine._workers[0].process
    os.kill(process.pid, signal.SIGKILL)
    assert wait_until(lambda: not process.is_alive())
    assert np.array_equal(harness.serve_all(engine), harness.direct)
    assert engine.metrics.worker_restarts == 1
    assert engine.metrics.failed == 0


@process_only
@pytest.mark.skipif(not Path("/dev/shm").is_dir(),
                    reason="needs a POSIX /dev/shm to observe segments")
def test_failed_start_up_leaves_no_worker_and_no_segment(harness, monkeypatch):
    spawned = []
    original = ProcessServingEngine._spawn_process

    def spawn_then_fail_worker_one(self, slot):
        original(self, slot)
        spawned.append((self, slot.process))
        if slot.index == 1:
            slot.process.kill()

    monkeypatch.setattr(ProcessServingEngine, "_spawn_process",
                        spawn_then_fail_worker_one)
    with pytest.raises(ServingError, match="worker 1 died during startup"):
        ProcessServingEngine(harness.pool, EngineConfig(num_workers=2),
                             sample_windows=harness.windows[:1])
    assert len(spawned) == 2
    assert not any(process.is_alive() for _, process in spawned)
    names = spawned[0][0].segment_names()
    assert names and not any((Path("/dev/shm") / name).exists() for name in names)
