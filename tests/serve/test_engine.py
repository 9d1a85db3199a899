"""ServingEngine: batching parity, backpressure, shutdown, update lane."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.exceptions import ConfigurationError, EngineClosed, QueueFull, ShapeError
from repro.graph.sparse import spatial_mode
from repro.serve import EngineConfig, Forecaster, ModelPool, ServingEngine, forecaster_nbytes


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


@pytest.fixture
def online_batch(tiny_scenario):
    spec = tiny_scenario.spec
    series = tiny_scenario.raw_series
    starts = (0, 3)
    inputs = np.stack([series[s : s + spec.input_steps] for s in starts])
    targets = np.stack(
        [
            series[
                s + spec.input_steps : s + spec.input_steps + spec.output_steps,
                :, spec.target_channel : spec.target_channel + 1,
            ]
            for s in starts
        ]
    )
    return inputs, targets


class TestBatchedParity:
    """Acceptance: batched + sharded engine output == direct predict, bitwise."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_engine_matches_direct_predict(self, forecaster, raw_windows, shards, mode):
        with spatial_mode(mode):
            direct = forecaster.predict(raw_windows)
            config = EngineConfig(max_batch_size=4, max_delay_ms=5.0, shards=shards)
            with ServingEngine(forecaster, config) as engine:
                futures = [engine.submit(window) for window in raw_windows]
                served = np.stack([future.result(timeout=60) for future in futures])
            assert np.array_equal(served, direct)

    def test_deadline_flush_serves_partial_batches(self, forecaster, raw_windows, gate):
        config = EngineConfig(max_batch_size=1000, max_delay_ms=5.0)
        with ServingEngine(forecaster, config, faults=gate) as engine:
            with gate.park(engine, raw_windows[0]):
                future = engine.submit(raw_windows[0])
                # Every worker is busy: only the deadline moves the bucket.
                patience = time.monotonic() + 30
                while not engine.metrics.deadline_flushes and time.monotonic() < patience:
                    time.sleep(0.005)
            result = future.result(timeout=60)
            assert result.shape == forecaster.predict(raw_windows[0]).shape
            snapshot = engine.metrics.snapshot()
            assert snapshot["deadline_flushes"] >= 1

    def test_size_flush_has_full_batches(self, forecaster, raw_windows, gate):
        config = EngineConfig(max_batch_size=4, max_delay_ms=10_000)
        with ServingEngine(forecaster, config, faults=gate) as engine:
            with gate.park(engine, raw_windows[0]):
                engine.metrics.reset()  # the parking batches are not under test
                futures = [engine.submit(window) for window in raw_windows]
            for future in futures:
                future.result(timeout=60)
            snapshot = engine.metrics.snapshot()
        assert snapshot["size_flushes"] == 2
        assert snapshot["mean_batch_size"] == 4.0

    def test_sync_predict_convenience(self, forecaster, raw_windows):
        with ServingEngine(forecaster) as engine:
            result = engine.predict(raw_windows[0], timeout=60)
        assert np.array_equal(result, forecaster.predict(raw_windows[0]))

    def test_multi_tenant_routing(self, tiny_scenario, tiny_urcl_config, raw_windows,
                                  tmp_path):
        pool = ModelPool()
        expectations = {}
        for seed in range(2):
            tenant = f"t{seed}"
            forecaster = Forecaster.from_scenario(
                tiny_scenario, config=tiny_urcl_config, seed=seed
            )
            path = forecaster.save(tmp_path / tenant)
            pool.register(tenant, path)
            expectations[tenant] = pool.forecaster(tenant).predict(raw_windows)
        with ServingEngine(pool, EngineConfig(max_batch_size=4, max_delay_ms=5.0)) as engine:
            futures = {
                tenant: [engine.submit(w, tenant=tenant) for w in raw_windows]
                for tenant in expectations
            }
            for tenant, tenant_futures in futures.items():
                served = np.stack([f.result(timeout=60) for f in tenant_futures])
                assert np.array_equal(served, expectations[tenant]), tenant


class TestValidation:
    def test_submit_rejects_bad_rank(self, forecaster):
        with ServingEngine(forecaster) as engine:
            with pytest.raises(ShapeError):
                engine.submit(np.zeros((3, 4)))

    def test_submit_rejects_unknown_tenant(self, forecaster):
        with ServingEngine(forecaster) as engine:
            with pytest.raises(ConfigurationError):
                engine.submit(np.zeros((4, 9, 2)), tenant="ghost")

    def test_engine_requires_forecaster_or_pool(self):
        with pytest.raises(ConfigurationError):
            ServingEngine(object())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(max_pending=0)

    @pytest.mark.parametrize("field, value", [
        ("max_batch_size", 0), ("max_delay_ms", -1.0), ("tenant_burst", 0.5),
    ])
    def test_config_rejects_bad_batching_and_burst(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            EngineConfig(tenant_rate_limit=5, **{field: value})


class TestBackpressure:
    def test_queue_full_beyond_max_pending(self, forecaster, raw_windows, gate):
        config = EngineConfig(max_batch_size=1000, max_delay_ms=10_000, max_pending=3)
        engine = ServingEngine(forecaster, config, faults=gate)
        try:
            # Held, so none of the three can complete and free a slot early.
            gate.park(engine, raw_windows[0])
            engine.metrics.reset()
            futures = [engine.submit(raw_windows[i]) for i in range(3)]
            with pytest.raises(QueueFull):
                engine.submit(raw_windows[3])
            with pytest.raises(QueueFull):
                engine.submit(raw_windows[4])
            # Rejections are surfaced in metrics (satellite requirement).
            assert engine.metrics.snapshot()["rejected"] == 2
            assert engine.metrics.snapshot()["submitted"] == 3
        finally:
            gate.release()
            engine.close()
        # Draining close still answered the accepted three.
        assert all(f.result(timeout=60) is not None for f in futures)

    def test_cancelled_futures_do_not_leak_pending_capacity(self, forecaster, raw_windows,
                                                            gate):
        # Two workers to park, two requests to cancel: four slots a round.
        config = EngineConfig(max_batch_size=1000, max_delay_ms=30.0, max_pending=4)
        with ServingEngine(forecaster, config, faults=gate) as engine:
            for _ in range(3):  # more cancellations than max_pending in total
                with gate.park(engine, raw_windows[0]):
                    first = engine.submit(raw_windows[0])
                    second = engine.submit(raw_windows[1])
                    assert first.cancel() and second.cancel()
                # Capacity must come back once the batch is swept; without
                # record_cancelled the 3rd round would wedge on QueueFull.
                deadline = time.monotonic() + 30
                while engine.metrics.pending and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert engine.metrics.pending == 0
            assert engine.metrics.snapshot()["cancelled"] == 6
            # And the engine still serves real traffic.
            assert engine.predict(raw_windows[0], timeout=60) is not None

    def test_capacity_recovers_after_completion(self, forecaster, raw_windows):
        config = EngineConfig(max_batch_size=1, max_delay_ms=0.0, max_pending=2)
        with ServingEngine(forecaster, config) as engine:
            for _ in range(3):  # far more total requests than max_pending
                engine.submit(raw_windows[0]).result(timeout=60)
            assert engine.metrics.snapshot()["completed"] == 3


class TestShutdown:
    """Satellite: engine shutdown semantics."""

    def test_close_drains_queued_requests(self, forecaster, raw_windows, gate):
        expected = forecaster.predict(raw_windows)
        config = EngineConfig(max_batch_size=1000, max_delay_ms=60_000)
        engine = ServingEngine(forecaster, config, faults=gate)
        gate.park(engine, raw_windows[0], until_closing=True)
        futures = [engine.submit(window) for window in raw_windows]
        # Nothing has been served yet: every worker is busy and the bucket
        # deadline is a minute out.
        assert engine.metrics.snapshot()["completed"] == 0
        engine.close(drain=True)
        served = np.stack([future.result(timeout=60) for future in futures])
        assert np.array_equal(served, expected)

    def test_close_without_drain_fails_pending_futures(self, forecaster, raw_windows,
                                                       gate):
        config = EngineConfig(max_batch_size=1000, max_delay_ms=60_000)
        engine = ServingEngine(forecaster, config, faults=gate)
        gate.park(engine, raw_windows[0], until_closing=True)
        futures = [engine.submit(window) for window in raw_windows[:3]]
        engine.close(drain=False)
        for future in futures:
            with pytest.raises(EngineClosed):
                future.result(timeout=5)
        assert engine.metrics.snapshot()["failed"] == 3

    def test_submit_after_close_raises(self, forecaster, raw_windows):
        engine = ServingEngine(forecaster)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(raw_windows[0])

    def test_close_is_idempotent(self, forecaster):
        engine = ServingEngine(forecaster)
        engine.close()
        engine.close()

    def test_worker_exception_resolves_futures_instead_of_hanging(
        self, forecaster, raw_windows
    ):
        with ServingEngine(forecaster, EngineConfig(max_batch_size=1, max_delay_ms=0.0)) as engine:
            # Wrong node count passes submit's rank check but explodes in
            # the model; the future must carry the error, not hang.
            bad = np.zeros((raw_windows.shape[1], 5, raw_windows.shape[3]))
            future = engine.submit(bad)
            with pytest.raises(ShapeError):
                future.result(timeout=60)
            snapshot = engine.metrics.snapshot()
            assert snapshot["failed"] == 1
            # The worker survived: the engine keeps serving good requests.
            good = engine.submit(raw_windows[0]).result(timeout=60)
            assert np.array_equal(good, forecaster.predict(raw_windows[0]))


class TestUpdateLane:
    def test_update_steps_model_and_predictions_move(self, forecaster, raw_windows,
                                                     online_batch):
        inputs, targets = online_batch
        with ServingEngine(forecaster) as engine:
            before = engine.predict(raw_windows[0], timeout=60)
            step = engine.update(inputs, targets)
            after = engine.predict(raw_windows[0], timeout=60)
        assert np.isfinite(step.task_loss)
        assert engine.metrics.snapshot()["updates"] == 1
        assert not np.array_equal(before, after)

    def test_model_stays_in_eval_after_update(self, forecaster, online_batch):
        inputs, targets = online_batch
        with ServingEngine(forecaster) as engine:
            engine.update(inputs, targets)
            assert forecaster.model.training is False
            # Eval-mode serving is deterministic (dropout stays off).
            window = inputs[0]
            assert np.array_equal(
                engine.predict(window, timeout=60), engine.predict(window, timeout=60)
            )

    def test_update_after_close_raises(self, forecaster, online_batch):
        inputs, targets = online_batch
        engine = ServingEngine(forecaster)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.update(inputs, targets)

    def test_concurrent_predicts_and_updates_stay_consistent(
        self, forecaster, raw_windows, online_batch
    ):
        """Readers never observe half-stepped parameters.

        Predictions sampled while updates run must each equal a prediction
        of *some* parameter version (before, between or after updates) —
        never a torn mix.  We pin versions by predicting inline around
        every update in the writer thread.
        """
        inputs, targets = online_batch
        probe = raw_windows[0]
        versions = []
        errors = []
        with ServingEngine(forecaster, EngineConfig(max_batch_size=2, max_delay_ms=1.0)) as engine:
            versions.append(engine.predict(probe, timeout=60))
            stop = threading.Event()
            observed = []

            def reader():
                try:
                    while not stop.is_set():
                        observed.append(engine.predict(probe, timeout=60))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            for _ in range(4):
                engine.update(inputs, targets)
                versions.append(engine.predict(probe, timeout=60))
                time.sleep(0.002)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        assert observed
        for sample in observed:
            assert any(np.array_equal(sample, version) for version in versions), (
                "a concurrent predict observed parameters matching no update boundary"
            )


class TestServingReplica:
    def test_engines_share_the_pools_replicas_and_hand_it_back(self, forecaster):
        pool = ModelPool()
        entry = pool.put("alpha", forecaster)
        bare = entry.nbytes
        with ServingEngine(pool):
            replica = entry.replica
            assert replica is not None and replica.model is not forecaster.model
            assert replica.network is forecaster.network
            assert replica.scaler is forecaster.scaler
            assert replica._optimizer is None
            assert entry.nbytes == bare + forecaster_nbytes(replica)
            with ServingEngine(pool):  # equal shards: the same replicas
                assert entry.replica is replica
            with pytest.raises(ConfigurationError):
                ServingEngine(pool, EngineConfig(shards=2))
            assert entry.replica is replica  # the first engine still serves it
        assert entry.served is forecaster and entry.nbytes == bare


class TestStats:
    def test_stats_are_json_serialisable(self, forecaster, raw_windows):
        import json

        with ServingEngine(forecaster) as engine:
            engine.predict(raw_windows[0], timeout=60)
            stats = engine.stats()
        json.dumps(stats)
        assert stats["metrics"]["completed"] == 1
        assert stats["pool"]["resident"] == 1
        assert np.isfinite(stats["metrics"]["latency_ms"]["p99"])
