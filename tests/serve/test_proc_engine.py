"""ProcessServingEngine: parity pinned bit-exact, update lane, resilience.

The whole file honours ``REPRO_PROC_START_METHOD`` (fork | spawn |
forkserver) so CI can run it once per start method.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    EngineClosed,
    ShapeError,
)
from repro.serve import (
    EngineConfig,
    ProcessServingEngine,
    ServingEngine,
    build_synthetic_tenants,
)


@pytest.fixture(scope="module")
def tenant_fixture():
    pool, windows, scenario = build_synthetic_tenants(
        num_tenants=2, num_nodes=10, num_days=4, seed=0, request_windows=8,
    )
    return pool, windows, scenario


def fast_config(**overrides):
    settings = dict(
        max_batch_size=4, max_delay_ms=2.0, num_workers=2,
        supervise_interval_s=0.02, retry_backoff_ms=5.0,
    )
    settings.update(overrides)
    return EngineConfig(**settings)


@pytest.fixture(scope="module")
def engine(tenant_fixture):
    pool, windows, _ = tenant_fixture
    with ProcessServingEngine(pool, fast_config(), sample_windows=windows[:1]) as eng:
        yield eng


class TestParity:
    """Acceptance (pinned): process-engine output == threaded engine ==
    direct predict, bit for bit, per tenant."""

    def test_bit_identical_to_direct_and_threaded(self, tenant_fixture, engine):
        pool, windows, _ = tenant_fixture
        for tenant in pool.resident:
            direct = pool.forecaster(tenant).predict(windows)
            with ServingEngine(pool, fast_config()) as threaded:
                futures = [threaded.submit(w, tenant=tenant) for w in windows]
                via_threads = np.stack([f.result(timeout=60) for f in futures])
            futures = [engine.submit(w, tenant=tenant) for w in windows]
            via_processes = np.stack([f.result(timeout=120) for f in futures])
            assert np.array_equal(via_processes, direct)
            assert np.array_equal(via_processes, via_threads)

    def test_interleaved_tenants_stay_isolated(self, tenant_fixture, engine):
        pool, windows, _ = tenant_fixture
        tenants = pool.resident
        direct = {t: pool.forecaster(t).predict(windows) for t in tenants}
        futures = [
            (i % len(tenants), i % len(windows),
             engine.submit(windows[i % len(windows)], tenant=tenants[i % len(tenants)]))
            for i in range(24)
        ]
        for tenant_idx, window_idx, future in futures:
            assert np.array_equal(
                future.result(timeout=120), direct[tenants[tenant_idx]][window_idx]
            )

    def test_predict_convenience(self, tenant_fixture, engine):
        pool, windows, _ = tenant_fixture
        tenant = pool.resident[0]
        got = engine.predict(windows[0], tenant=tenant, timeout=120)
        assert np.array_equal(got, pool.forecaster(tenant).predict(windows[:1])[0])


class TestSubmitValidation:
    def test_wrong_shape_rejected(self, engine):
        with pytest.raises(ShapeError):
            engine.submit(np.zeros((3, 4, 5)), tenant="tenant-0")

    def test_unknown_tenant_rejected(self, engine):
        pool_tenant = "tenant-not-published"
        with pytest.raises(ConfigurationError):
            engine.submit(np.zeros(engine.plane.spec["meta"]["window_shape"]),
                          tenant=pool_tenant)

    def test_non_array_rejected(self, engine):
        with pytest.raises((ShapeError, TypeError, ValueError)):
            engine.submit("not a window", tenant="tenant-0")


class TestDeadlinesAndClose:
    def test_expired_deadline_raises(self, tenant_fixture):
        pool, windows, _ = tenant_fixture
        config = fast_config(max_batch_size=8, max_delay_ms=100.0)
        with ProcessServingEngine(pool, config, sample_windows=windows[:1]) as eng:
            future = eng.submit(windows[0], tenant="tenant-0", deadline_ms=0.01)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=60)

    def test_submit_after_close_raises(self, tenant_fixture):
        pool, windows, _ = tenant_fixture
        eng = ProcessServingEngine(pool, fast_config(), sample_windows=windows[:1])
        eng.close()
        with pytest.raises(EngineClosed):
            eng.submit(windows[0], tenant="tenant-0")
        eng.close()  # idempotent

    def test_close_drains_inflight(self, tenant_fixture):
        pool, windows, _ = tenant_fixture
        eng = ProcessServingEngine(pool, fast_config(), sample_windows=windows[:1])
        futures = [eng.submit(w, tenant="tenant-1") for w in windows]
        eng.close(drain=True)
        direct = pool.forecaster("tenant-1").predict(windows)
        for index, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=1), direct[index])


class TestUpdateLane:
    @pytest.fixture
    def fresh_fixture(self):
        # The update mutates tenant weights: keep it off the shared pool.
        return build_synthetic_tenants(
            num_tenants=2, num_nodes=10, num_days=4, seed=3, request_windows=6,
        )

    def test_update_publishes_new_generation(self, fresh_fixture):
        pool, windows, scenario = fresh_fixture
        spec = scenario.spec
        series = scenario.raw_series
        inputs = np.stack([series[: spec.input_steps]])
        targets = np.stack(
            [series[spec.input_steps : spec.input_steps + spec.output_steps, :,
                    spec.target_channel : spec.target_channel + 1]]
        )
        with ProcessServingEngine(
            pool, fast_config(), sample_windows=windows[:1]
        ) as eng:
            before = eng.predict(windows[0], tenant="tenant-0", timeout=120)
            assert eng.weight_generation("tenant-0") == 0
            step = eng.update(inputs, targets, tenant="tenant-0")
            assert np.isfinite(step.task_loss)
            assert eng.weight_generation("tenant-0") == 1
            # Workers refresh from the seqlock segment: post-update output
            # must match the parent model bit-exactly (and differ from the
            # pre-update output, or the flip did nothing).
            direct = pool.forecaster("tenant-0").predict(windows[:1])[0]
            after = eng.predict(windows[0], tenant="tenant-0", timeout=120)
            assert np.array_equal(after, direct)
            assert not np.array_equal(after, before)

    def test_update_unknown_tenant(self, fresh_fixture):
        pool, windows, _ = fresh_fixture
        with ProcessServingEngine(
            pool, fast_config(), sample_windows=windows[:1]
        ) as eng:
            with pytest.raises(ConfigurationError):
                eng.update(windows[:1], windows[:1], tenant="nope")


class TestCrashRecovery:
    def test_worker_sigkill_is_recovered(self, tenant_fixture):
        pool, windows, _ = tenant_fixture
        with ProcessServingEngine(
            pool, fast_config(), sample_windows=windows[:1]
        ) as eng:
            direct = pool.forecaster("tenant-0").predict(windows)
            assert np.array_equal(
                eng.predict(windows[0], tenant="tenant-0", timeout=120), direct[0]
            )
            os.kill(eng._workers[0].process.pid, signal.SIGKILL)
            time.sleep(0.2)
            for index in range(len(windows)):
                got = eng.predict(windows[index], tenant="tenant-0", timeout=120)
                assert np.array_equal(got, direct[index])
            health = eng.health()
            assert health["workers"]["restarts"] >= 1
            assert health["workers"]["alive"] == eng.config.num_workers


class TestMetricsAndHealth:
    def test_metrics_merge_worker_shards(self, tenant_fixture):
        pool, windows, _ = tenant_fixture
        with ProcessServingEngine(
            pool, fast_config(), sample_windows=windows[:1]
        ) as eng:
            futures = [eng.submit(w, tenant="tenant-0") for w in windows]
            for future in futures:
                future.result(timeout=120)
            snapshot = eng.metrics()
            workers = snapshot["workers"]
            assert workers["requests"] >= len(windows)
            assert workers["batches"] >= 1
            assert snapshot["completed"] >= len(windows)
            health = eng.health()
            assert health["workers"]["alive"] == eng.config.num_workers
            assert len(health["workers"]["heartbeats"]) == eng.config.num_workers
            stats = eng.stats()
            assert stats["config"]["start_method"] == eng.start_method
            assert stats["plane"]["tenants"] == 2
        # After close the final merged counters stay readable.
        final = eng.metrics()
        assert final["workers"]["requests"] >= len(windows)
