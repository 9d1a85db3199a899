"""Engine fault tolerance: deadlines, retries, breakers, degradation, drain."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.exceptions import (
    CheckpointError,
    CircuitOpen,
    ConfigurationError,
    DataError,
    DeadlineExceeded,
    EngineClosed,
    QueueFull,
    RateLimited,
    ServingError,
)
from repro.serve import (
    EngineConfig,
    FaultInjector,
    FaultPlan,
    Forecaster,
    ModelPool,
    ServingEngine,
)
from repro.serve.forecaster import impute_missing
from repro.serve.loadgen import build_synthetic_tenants, resilience_config, run_fault_storm
from repro.tensor import traced_execution


@pytest.fixture
def forecaster(tiny_scenario, tiny_urcl_config):
    return Forecaster.from_scenario(
        tiny_scenario, config=tiny_urcl_config,
        training=TrainingConfig(batch_size=8), seed=0,
    )


@pytest.fixture
def raw_windows(tiny_scenario, rng):
    series = tiny_scenario.raw_series
    spec = tiny_scenario.spec
    starts = rng.integers(0, series.shape[0] - spec.input_steps - spec.output_steps, size=8)
    return np.stack([series[s : s + spec.input_steps] for s in starts])


def fast_config(**overrides):
    """Small batches, quick supervision — the storm-test workhorse."""
    settings = dict(
        max_batch_size=4, max_delay_ms=4.0, num_workers=2,
        max_retries=4, retry_backoff_ms=2.0, retry_backoff_max_ms=20.0,
        supervise_interval_s=0.02, wedge_timeout_s=2.0,
    )
    settings.update(overrides)
    return EngineConfig(**settings)


def poison(forecaster):
    """Make every model output NaN; returns the state to heal with."""
    saved = forecaster.snapshot_state()
    for parameter in forecaster.model.parameters():
        parameter.data[...] = np.nan
    return saved


class TestDeadlines:
    def test_in_queue_expiry_has_structured_fields(self, forecaster, raw_windows, gate):
        slow = EngineConfig(max_batch_size=64, max_delay_ms=500.0,
                            supervise_interval_s=0.01)
        with ServingEngine(forecaster, slow, faults=gate) as engine:
            with gate.park(engine, raw_windows[0]):
                future = engine.submit(raw_windows[0], deadline_ms=15.0)
                with pytest.raises(DeadlineExceeded) as excinfo:
                    future.result(timeout=60)
                assert excinfo.value.deadline_ms == 15.0
                assert excinfo.value.waited_ms >= 15.0
                snapshot = engine.metrics.snapshot()
        assert snapshot["expired"] == 1
        assert snapshot["failed"] == 1

    def test_config_default_deadline_applies(self, forecaster, raw_windows, gate):
        slow = EngineConfig(max_batch_size=64, max_delay_ms=500.0,
                            supervise_interval_s=0.01, deadline_default_ms=15.0)
        with ServingEngine(forecaster, slow, faults=gate) as engine:
            with gate.park(engine, raw_windows[0]):
                with pytest.raises(DeadlineExceeded):
                    engine.submit(raw_windows[0]).result(timeout=60)

    def test_generous_deadline_serves_normally(self, forecaster, raw_windows):
        with ServingEngine(forecaster, fast_config()) as engine:
            result = engine.predict(raw_windows[0], deadline_ms=60_000, timeout=60)
        assert np.array_equal(result, forecaster.predict(raw_windows[0]))

    @pytest.mark.parametrize("bad", [0.0, -10.0])
    def test_non_positive_deadline_rejected(self, forecaster, raw_windows, bad):
        with ServingEngine(forecaster, fast_config()) as engine:
            with pytest.raises(ConfigurationError):
                engine.submit(raw_windows[0], deadline_ms=bad)


class TestOverloadPolicies:
    def test_shed_oldest_fails_the_oldest_not_the_newest(self, forecaster, raw_windows,
                                                         gate):
        # Two slots for the workers' parking batches, two for the queue.
        config = EngineConfig(max_batch_size=1000, max_delay_ms=10_000.0,
                              max_pending=4, overload_policy="shed_oldest")
        engine = ServingEngine(forecaster, config, faults=gate)
        try:
            gate.park(engine, raw_windows[0])
            futures = [engine.submit(window) for window in raw_windows[:3]]
        finally:
            gate.release()
            engine.close(drain=True)
        with pytest.raises(QueueFull):
            futures[0].result(timeout=60)
        direct = forecaster.predict(raw_windows[:3])
        for kept, expected in zip(futures[1:], direct[1:]):
            assert np.array_equal(kept.result(timeout=60), expected)
        assert engine.metrics.shed == 1

    def test_token_bucket_throttles_a_flooding_tenant(self, forecaster, raw_windows):
        config = fast_config(tenant_rate_limit=5.0, tenant_burst=1)
        with ServingEngine(forecaster, config) as engine:
            first = engine.submit(raw_windows[0])
            with pytest.raises(RateLimited) as excinfo:
                engine.submit(raw_windows[1])
            assert excinfo.value.rate == 5.0
            assert isinstance(excinfo.value, QueueFull)  # retryable family
            first.result(timeout=60)
            # The bucket refills with time, so patience readmits the tenant.
            time.sleep(0.3)
            engine.predict(raw_windows[1], timeout=60)
            assert engine.metrics.throttled == 1


class TestCrashRecovery:
    @pytest.mark.parametrize("traced", [False, True])
    def test_retried_batches_are_bit_identical(self, forecaster, raw_windows, traced):
        """Satellite acceptance: crashes lose nothing, compiled or eager."""
        plan = FaultPlan(seed=0, worker_crash_rate=1.0, worker_fault_limit=2)
        with traced_execution(traced):
            direct = forecaster.predict(raw_windows)
            with ServingEngine(forecaster, fast_config(), faults=plan) as engine:
                futures = [engine.submit(window) for window in raw_windows]
                served = np.stack([f.result(timeout=60) for f in futures])
                stats = engine.injector.stats()
                health = engine.health()
        assert np.array_equal(served, direct)
        assert stats["crashes"] == 2
        assert engine.metrics.worker_restarts >= 2
        assert engine.metrics.retried >= 2
        assert health["workers"]["restarts"] >= 2

    def test_wedged_worker_is_abandoned_and_batch_requeued(self, forecaster, raw_windows):
        plan = FaultPlan(seed=0, worker_stall_rate=1.0, stall_ms=600.0,
                         worker_fault_limit=1)
        config = fast_config(num_workers=1, wedge_timeout_s=0.1,
                             supervise_interval_s=0.02)
        with ServingEngine(forecaster, config, faults=plan) as engine:
            futures = [engine.submit(window) for window in raw_windows[:4]]
            served = np.stack([f.result(timeout=60) for f in futures])
        assert np.array_equal(served, forecaster.predict(raw_windows[:4]))
        assert engine.metrics.worker_restarts >= 1

    def test_accepted_requests_all_resolve_under_a_mixed_storm(
        self, forecaster, raw_windows
    ):
        plan = FaultPlan(seed=1, worker_crash_rate=0.3, worker_stall_rate=0.2,
                         stall_ms=20.0, corrupt_rate=0.3, worker_fault_limit=6)
        config = fast_config(nan_policy="impute")
        with ServingEngine(forecaster, config, faults=plan) as engine:
            futures = [engine.submit(window) for window in raw_windows]
            for future in futures:
                result = future.result(timeout=60)
                assert np.isfinite(result).all()


class TestCheckpointFaults:
    @pytest.fixture
    def registered_pool(self, forecaster, tmp_path):
        pool = ModelPool()
        path = forecaster.save(tmp_path / "alpha")
        pool.register("alpha", path)
        return pool

    def test_failed_load_is_retried_and_recovers(self, registered_pool, raw_windows,
                                                 forecaster):
        plan = FaultPlan(seed=0, checkpoint_failures=1)
        with ServingEngine(registered_pool, fast_config(), faults=plan) as engine:
            result = engine.predict(raw_windows[0], tenant="alpha", timeout=60)
            assert engine.injector.stats()["checkpoint_failures"] == 1
            assert engine.metrics.retried >= 1
        assert np.array_equal(result, forecaster.predict(raw_windows[0]))

    def test_exhausted_retries_surface_the_checkpoint_error(self, registered_pool,
                                                            raw_windows):
        plan = FaultPlan(seed=0, checkpoint_failures=100)
        config = fast_config(max_retries=0)
        with ServingEngine(registered_pool, config, faults=plan) as engine:
            future = engine.submit(raw_windows[0], tenant="alpha")
            with pytest.raises(CheckpointError) as excinfo:
                future.result(timeout=60)
            assert excinfo.value.reason == "injected"


class TestBreakerAndDegradation:
    def test_breaker_opens_and_fails_fast_without_fallback(self, forecaster,
                                                           raw_windows):
        config = fast_config(breaker_failures=3, breaker_reset_s=30.0,
                             max_retries=0, fallback="none")
        with ServingEngine(forecaster, config) as engine:
            poison(engine.pool.forecaster(engine.pool.resident[0]))
            engine.publish()
            for _ in range(3):  # sequential => one breaker event per batch
                with pytest.raises(ServingError):
                    engine.predict(raw_windows[0], timeout=60)
            with pytest.raises(CircuitOpen) as excinfo:
                engine.predict(raw_windows[1], timeout=60)
            assert excinfo.value.failures >= 3
            assert excinfo.value.retry_after_s > 0
            health = engine.health()
            tenant = engine.pool.resident[0]
            assert health["breakers"][tenant]["state"] == "open"
            assert health["status"] == "degraded"
            assert engine.metrics.breaker_opens == 1
            assert engine.metrics.breaker_fast_fails >= 1
            assert engine.metrics.nonfinite_batches >= 1

    def test_ha_fallback_serves_finite_answers_then_heals(self, forecaster,
                                                          raw_windows):
        config = fast_config(breaker_failures=2, breaker_reset_s=0.2,
                             max_retries=0, fallback="ha")
        with ServingEngine(forecaster, config) as engine:
            tenant = engine.pool.resident[0]
            direct = forecaster.predict(raw_windows[0])
            assert np.array_equal(engine.predict(raw_windows[0], timeout=60), direct)
            saved = poison(engine.pool.forecaster(tenant))
            engine.publish(tenant)
            degraded = np.stack([
                engine.predict(window, timeout=60) for window in raw_windows[:4]
            ])
            assert np.isfinite(degraded).all()
            assert engine.metrics.fallbacks >= 1
            assert engine.health()["breakers"][tenant]["state"] != "closed"
            # Heal, wait out the reset window: a half-open probe closes it.
            engine.pool.forecaster(tenant).restore_state(saved)
            engine.publish(tenant)
            time.sleep(config.breaker_reset_s * 1.5)
            healed = engine.predict(raw_windows[0], timeout=60)
            assert np.array_equal(healed, direct)
            assert engine.health()["breakers"][tenant]["state"] == "closed"

    def test_registered_fallback_model_wins_over_ha(self, tiny_scenario,
                                                    tiny_urcl_config, raw_windows):
        primary = Forecaster.from_scenario(
            tiny_scenario, config=tiny_urcl_config,
            training=TrainingConfig(batch_size=8), seed=0,
        )
        standby = Forecaster.from_scenario(
            tiny_scenario, config=tiny_urcl_config,
            training=TrainingConfig(batch_size=8), seed=1,
        )
        pool = ModelPool()
        pool.put("alpha", primary)
        pool.set_fallback("alpha", standby)
        config = fast_config(breaker_failures=2, breaker_reset_s=30.0,
                             max_retries=0, fallback="ha")
        with ServingEngine(pool, config) as engine:
            poison(primary)
            engine.publish("alpha")
            answers = np.stack([
                engine.predict(window, tenant="alpha", timeout=60)
                for window in raw_windows[:3]
            ])
        assert np.array_equal(answers, standby.predict(raw_windows[:3]))
        assert engine.metrics.fallbacks == 3


class TestNanPolicies:
    @pytest.fixture
    def glitched(self, raw_windows):
        window = np.array(raw_windows[0], dtype=float)
        window[0, 0, 0] = np.nan
        window[2, 1, :] = np.inf
        return window

    def test_reject_refuses_at_admission(self, forecaster, glitched):
        with ServingEngine(forecaster, fast_config(nan_policy="reject")) as engine:
            with pytest.raises(DataError):
                engine.submit(glitched)
            assert engine.metrics.rejected_nan_windows == 1

    def test_impute_matches_direct_predict_on_the_repaired_window(self, forecaster,
                                                                  glitched):
        repaired, count = impute_missing(glitched)
        assert count == 1 + glitched.shape[2]  # one cell + one full time/node row
        with ServingEngine(forecaster, fast_config(nan_policy="impute")) as engine:
            served = engine.predict(glitched, timeout=60)
            assert engine.metrics.imputed_windows == 1
        assert np.array_equal(served, forecaster.predict(repaired))

    def test_injected_corruption_is_imputed_before_the_model(self, forecaster,
                                                             raw_windows):
        plan = FaultPlan(seed=0, corrupt_rate=1.0, corrupt_cell_fraction=0.1)
        with ServingEngine(forecaster, fast_config(nan_policy="impute"),
                           faults=plan) as engine:
            result = engine.predict(raw_windows[0], timeout=60)
            assert engine.metrics.imputed_windows == 1
        assert np.isfinite(result).all()


class TestUpdateRollback:
    def test_poisoned_update_rolls_back_bit_exactly(self, forecaster, tiny_scenario,
                                                    raw_windows):
        spec = tiny_scenario.spec
        series = tiny_scenario.raw_series
        inputs = np.stack([series[: spec.input_steps]])
        bad_targets = np.stack([
            series[spec.input_steps : spec.input_steps + spec.output_steps - 1,
                   :, spec.target_channel : spec.target_channel + 1]
        ])  # horizon is one step short: the step raises mid-update
        with ServingEngine(forecaster, fast_config()) as engine:
            before = engine.predict(raw_windows[0], timeout=60)
            with pytest.raises(Exception):
                engine.update(inputs, bad_targets)
            after = engine.predict(raw_windows[0], timeout=60)
            assert engine.metrics.rollbacks == 1
        assert np.array_equal(before, after)


class TestCloseAndDrain:
    def test_drain_timeout_abandons_a_wedged_worker(self, forecaster, raw_windows):
        release = threading.Event()
        original = forecaster.predict

        def blocking_predict(windows, *args, **kwargs):
            release.wait(timeout=10.0)
            return original(windows, *args, **kwargs)

        config = EngineConfig(max_batch_size=8, max_delay_ms=2.0, num_workers=1,
                              wedge_timeout_s=60.0, supervise_interval_s=0.02)
        engine = ServingEngine(forecaster, config)
        entry = engine.pool.get(engine.pool.resident[0])
        entry.served.predict = blocking_predict
        future = engine.submit(raw_windows[0])
        time.sleep(0.1)  # let the worker pick the batch up and block
        start = time.perf_counter()
        engine.close(drain=True, drain_timeout=0.3)
        elapsed = time.perf_counter() - start
        release.set()
        assert elapsed < 5.0  # did not wait for the stuck worker
        with pytest.raises(EngineClosed):
            future.result(timeout=60)
        assert engine.health()["status"] == "closed"

    def test_drain_serves_everything_left_in_queue(self, forecaster, raw_windows):
        config = EngineConfig(max_batch_size=1000, max_delay_ms=10_000.0)
        engine = ServingEngine(forecaster, config)
        futures = [engine.submit(window) for window in raw_windows]
        engine.close(drain=True)  # flushes the residual bucket and serves it
        served = np.stack([f.result(timeout=60) for f in futures])
        assert np.array_equal(served, forecaster.predict(raw_windows))


class TestHealth:
    def test_health_shape_and_lifecycle(self, forecaster, raw_windows):
        with ServingEngine(forecaster, fast_config()) as engine:
            engine.predict(raw_windows[0], timeout=60)
            health = engine.health()
            assert health["status"] == "ok"
            assert health["workers"]["alive"] == 2
            assert health["workers"]["restarts"] == 0
            assert health["pending"] == 0
            stats = engine.stats()
            assert stats["health"]["status"] == "ok"
            assert "faults" not in stats  # no injector installed
        assert engine.health()["status"] == "closed"


class TestFaultStormEndToEnd:
    def test_zero_lost_futures_and_recovery(self):
        """Tentpole acceptance, smoke scale: storm => nothing lost, recovers."""
        pool, windows, _ = build_synthetic_tenants(
            num_tenants=2, num_nodes=8, seed=0, request_windows=8
        )
        record = run_fault_storm(
            pool, windows, tenants=pool.resident,
            plan=FaultPlan.storm(seed=0, worker_fault_limit=4),
            config=resilience_config(),
            concurrency=4, total_requests=48,
        )
        assert record["lost_requests"] == 0
        assert record["recovery"]["recovered"]
        assert record["storm"]["completed"] == record["storm"]["total_requests"]
        assert record["final_health"]["status"] == "ok"  # healthy again post-storm
