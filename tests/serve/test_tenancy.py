"""Multi-tenant model pool: shared graph, byte-bounded LRU, lazy loads."""

import threading

import numpy as np
import pytest

from repro.core.config import TrainingConfig, URCLConfig
from repro.core.urcl import URCLModel
from repro.exceptions import ConfigurationError
from repro.graph.sparse import clear_support_cache, support_cache_stats
from repro.serve import Forecaster, ModelPool, forecaster_nbytes


def make_forecaster(scenario, urcl_config, seed):
    spec = scenario.spec
    model = URCLModel(
        scenario.network,
        in_channels=spec.num_channels,
        input_steps=spec.input_steps,
        output_steps=spec.output_steps,
        config=urcl_config,
        rng=seed,
    )
    return Forecaster(
        model, scaler=scenario.scaler, target_channel=spec.target_channel,
        training=TrainingConfig(batch_size=8),
    )


@pytest.fixture
def raw_windows(tiny_scenario, rng):
    series = tiny_scenario.raw_series
    spec = tiny_scenario.spec
    starts = rng.integers(0, series.shape[0] - spec.input_steps, size=3)
    return np.stack([series[s : s + spec.input_steps] for s in starts])


@pytest.fixture
def tenant_dirs(tmp_path, tiny_scenario, tiny_urcl_config):
    """Three tenant checkpoints over the same scenario, different seeds."""
    paths = {}
    for seed in range(3):
        tenant = f"tenant-{seed}"
        forecaster = make_forecaster(tiny_scenario, tiny_urcl_config, seed)
        paths[tenant] = forecaster.save(tmp_path / tenant)
    return paths


class TestSharedGraph:
    def test_tenants_share_one_graph_and_build_supports_once(
        self, tenant_dirs, raw_windows
    ):
        clear_support_cache()
        builds_before = support_cache_stats()["graph_support_builds"]
        pool = ModelPool()
        for tenant, path in tenant_dirs.items():
            pool.register(tenant, path)
        outputs = {
            tenant: pool.forecaster(tenant).predict(raw_windows)
            for tenant in tenant_dirs
        }
        # Every tenant is attached to the same Graph instance...
        graphs = {id(pool.forecaster(t).graph) for t in tenant_dirs}
        assert graphs == {id(pool.graph)}
        # ...so the diffusion supports were built exactly once for all of them.
        assert support_cache_stats()["graph_support_builds"] - builds_before == 1
        # Different parameters, genuinely different tenants.
        tenants = list(tenant_dirs)
        assert not np.array_equal(outputs[tenants[0]], outputs[tenants[1]])

    def test_mismatched_network_is_rejected(self, tmp_path, tiny_scenario,
                                            tiny_urcl_config, tenant_dirs):
        from repro.graph.generators import grid_network

        other = grid_network(4, 3, rng=11, name="other-grid")
        pool = ModelPool(network=other)
        tenant, path = next(iter(tenant_dirs.items()))
        pool.register(tenant, path)
        with pytest.raises(ConfigurationError):
            pool.get(tenant)

    def test_put_requires_the_shared_network(self, tiny_scenario, tiny_urcl_config):
        pool = ModelPool()
        first = make_forecaster(tiny_scenario, tiny_urcl_config, 0)
        pool.put("a", first)
        clone_scenario_network = tiny_scenario.network.copy()
        stranger = Forecaster(
            URCLModel(
                clone_scenario_network,
                in_channels=tiny_scenario.spec.num_channels,
                input_steps=tiny_scenario.spec.input_steps,
                output_steps=tiny_scenario.spec.output_steps,
                config=tiny_urcl_config,
                rng=1,
            )
        )
        with pytest.raises(ConfigurationError):
            pool.put("b", stranger)


class TestLRUEviction:
    def test_byte_bound_is_respected(self, tenant_dirs, raw_windows):
        pool = ModelPool()
        for tenant, path in tenant_dirs.items():
            pool.register(tenant, path)
        per_tenant = forecaster_nbytes(pool.forecaster("tenant-0"))
        bounded = ModelPool(max_bytes=int(per_tenant * 2.5))
        for tenant, path in tenant_dirs.items():
            bounded.register(tenant, path)
            bounded.get(tenant)
        assert bounded.resident_bytes <= bounded.max_bytes
        assert len(bounded) == 2
        assert bounded.stats()["evictions"] == 1
        # LRU order: tenant-0 was evicted, the two most recent stayed.
        assert bounded.resident == ["tenant-1", "tenant-2"]

    def test_evicted_tenant_reloads_transparently(self, tenant_dirs, raw_windows):
        pool = ModelPool()
        for tenant, path in tenant_dirs.items():
            pool.register(tenant, path)
        expected = pool.forecaster("tenant-0").predict(raw_windows)

        per_tenant = forecaster_nbytes(pool.forecaster("tenant-0"))
        bounded = ModelPool(max_bytes=int(per_tenant * 1.5))
        for tenant, path in tenant_dirs.items():
            bounded.register(tenant, path)
            bounded.get(tenant)
        assert "tenant-0" not in bounded.resident
        loads_before = bounded.stats()["loads"]
        reloaded = bounded.forecaster("tenant-0").predict(raw_windows)
        assert bounded.stats()["loads"] == loads_before + 1
        assert np.array_equal(reloaded, expected)

    def test_hit_refreshes_recency(self, tenant_dirs):
        pool = ModelPool()
        for tenant, path in tenant_dirs.items():
            pool.register(tenant, path)
            pool.get(tenant)
        pool.get("tenant-0")  # touch the oldest
        assert pool.resident == ["tenant-1", "tenant-2", "tenant-0"]
        assert pool.stats()["hits"] == 1

    def test_dirty_tenant_is_pinned_against_eviction(self, tenant_dirs, tiny_scenario):
        pool = ModelPool()
        for tenant, path in tenant_dirs.items():
            pool.register(tenant, path)
        per_tenant = forecaster_nbytes(pool.forecaster("tenant-0"))

        bounded = ModelPool(max_bytes=int(per_tenant * 1.5))
        for tenant, path in tenant_dirs.items():
            bounded.register(tenant, path)
        first = bounded.get("tenant-0")
        first.mark_dirty()  # un-persisted online update
        for tenant in ("tenant-1", "tenant-2"):
            bounded.get(tenant)
        # tenant-0 is LRU but dirty: the clean middle tenant went instead.
        assert "tenant-0" in bounded.resident
        assert "tenant-1" not in bounded.resident
        assert bounded.stats()["pinned"] == 1

    def test_in_flight_writer_pin_blocks_eviction(self, tenant_dirs):
        pool = ModelPool()
        for tenant, path in tenant_dirs.items():
            pool.register(tenant, path)
        per_tenant = forecaster_nbytes(pool.forecaster("tenant-0"))

        bounded = ModelPool(max_bytes=int(per_tenant * 1.5))
        for tenant, path in tenant_dirs.items():
            bounded.register(tenant, path)
        with bounded.updating("tenant-0", mark_dirty=False) as entry:
            assert entry.pins == 1
            assert bounded.stats()["write_pinned"] == 1
            for tenant in ("tenant-1", "tenant-2"):
                bounded.get(tenant)
            # tenant-0 is LRU and clean, but a writer is mid-step on it:
            # the clean middle tenant must go instead.
            assert "tenant-0" in bounded.resident
            assert "tenant-1" not in bounded.resident
        # Pin released with the step: the next pressure may evict it.
        assert entry.pins == 0
        assert bounded.stats()["write_pinned"] == 0
        bounded.get("tenant-1")
        assert "tenant-0" not in bounded.resident

    def test_writers_of_one_tenant_take_turns(self, tiny_scenario, tiny_urcl_config):
        # Engines sharing a pool share its entries: each engine serializes
        # its own updates, the entry serializes the engines.
        pool = ModelPool()
        pool.put("alpha", make_forecaster(tiny_scenario, tiny_urcl_config, 0))
        second_in = threading.Event()

        def second_writer():
            with pool.updating("alpha"):
                second_in.set()

        with pool.updating("alpha"):
            thread = threading.Thread(target=second_writer)
            thread.start()
            assert not second_in.wait(0.2)
        assert second_in.wait(30)
        thread.join(timeout=30)

    def test_put_only_tenant_is_never_evicted(self, tiny_scenario, tiny_urcl_config,
                                              tenant_dirs):
        anchor = make_forecaster(tiny_scenario, tiny_urcl_config, 9)
        pool = ModelPool(max_bytes=forecaster_nbytes(anchor) + 1)
        pool.put("memory-only", anchor)  # no checkpoint path: unreloadable
        tenant, path = next(iter(tenant_dirs.items()))
        pool.register(tenant, path)
        pool.get(tenant)
        # Over budget, but the put-only tenant must survive (it could never
        # come back); only registered clean tenants are evictable, and the
        # most recent one always stays.
        assert "memory-only" in pool.resident
        assert pool.stats()["pinned"] == 1

    def test_most_recent_tenant_is_never_evicted(self, tenant_dirs):
        pool = ModelPool(max_bytes=1)  # absurdly small bound
        tenant, path = next(iter(tenant_dirs.items()))
        pool.register(tenant, path)
        entry = pool.get(tenant)
        assert entry.nbytes > 1
        assert pool.resident == [tenant]


class TestPoolBasics:
    def test_unknown_tenant_raises(self):
        with pytest.raises(ConfigurationError):
            ModelPool().get("ghost")

    def test_contains_and_tenants(self, tenant_dirs):
        pool = ModelPool()
        tenant, path = next(iter(tenant_dirs.items()))
        pool.register(tenant, path)
        assert tenant in pool and "ghost" not in pool
        assert pool.tenants == [tenant]

    def test_invalid_max_bytes(self):
        with pytest.raises(ConfigurationError):
            ModelPool(max_bytes=0)

    def test_forecaster_nbytes_counts_optimizer_and_buffer(
        self, tiny_scenario, tiny_urcl_config, raw_windows
    ):
        forecaster = make_forecaster(tiny_scenario, tiny_urcl_config, 0)
        bare = forecaster_nbytes(forecaster)
        spec = tiny_scenario.spec
        series = tiny_scenario.raw_series
        targets = np.stack(
            [
                series[
                    s + spec.input_steps : s + spec.input_steps + spec.output_steps,
                    :, spec.target_channel : spec.target_channel + 1,
                ]
                for s in range(raw_windows.shape[0])
            ]
        )
        inputs = np.stack(
            [series[s : s + spec.input_steps] for s in range(raw_windows.shape[0])]
        )
        forecaster.update(inputs, targets)
        assert forecaster_nbytes(forecaster) > bare  # Adam slots + buffer windows
