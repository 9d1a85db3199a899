"""Shared model plane: publish/attach, seqlock weight lane, warmed buckets."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serve import ModelPlane, PlaneView, build_synthetic_tenants


@pytest.fixture(scope="module")
def tenant_fixture():
    pool, windows, scenario = build_synthetic_tenants(
        num_tenants=2, num_nodes=10, num_days=4, seed=0, request_windows=6,
    )
    return pool, windows, scenario


@pytest.fixture
def plane(tenant_fixture):
    pool, windows, _ = tenant_fixture
    plane = ModelPlane.publish(pool, sample_windows=windows[:1], max_batch_size=4)
    yield plane
    plane.close()


class TestBuckets:
    def test_publish_warms_the_buckets_of_the_shared_rule(self, tenant_fixture, plane):
        pool, windows, _ = tenant_fixture
        assert plane.spec["meta"]["buckets"] == (1, 2, 4)
        # A non-power-of-two limit pads full batches up to the next bucket.
        wider = ModelPlane.publish(pool, sample_windows=windows[:1], max_batch_size=5)
        try:
            assert wider.spec["meta"]["buckets"] == (1, 2, 4, 8)
        finally:
            wider.close()


class TestPublishAttach:
    def test_view_rebuilds_bit_identical_forecaster(self, tenant_fixture, plane):
        pool, windows, _ = tenant_fixture
        view = PlaneView(plane.spec)
        try:
            # In-process the publisher's captures already occupy the
            # registry (first capture wins), so nothing is *newly*
            # installed; workers in a fresh process install > 0.
            assert view.install_structures() >= 0
            assert plane.spec["meta"]["num_struct_arrays"] > 0
            network = view.build_network()
            for tenant in pool.resident:
                rebuilt, generation = view.build_forecaster(tenant, network)
                assert generation == 0
                direct = pool.forecaster(tenant).predict(windows)
                assert np.array_equal(rebuilt.predict(windows), direct)
        finally:
            view.close()

    def test_network_copies_are_writable(self, plane):
        # SensorNetwork.__post_init__ mutates the adjacency (fill_diagonal),
        # so the view must hand it private copies, not read-only shm views.
        view = PlaneView(plane.spec)
        try:
            network = view.build_network()
            assert network.adjacency.flags.writeable
        finally:
            view.close()

    def test_spec_is_plain_data(self, plane):
        import json

        meta = plane.spec["meta"]
        json.dumps({"tenants": meta["tenants"], "buckets": list(meta["buckets"])})
        assert plane.nbytes() > 0
        assert plane.segment_names


class TestWeightLane:
    def test_publish_weights_bumps_generation(self, tenant_fixture, plane):
        pool, _, _ = tenant_fixture
        tenant = pool.resident[0]
        assert plane.generation(tenant) == 0
        model = pool.forecaster(tenant).model
        assert plane.publish_weights(tenant, model) == 1
        assert plane.publish_weights(tenant, model) == 2
        assert plane.generation(tenant) == 2

    def test_reader_sees_flipped_weights(self, tenant_fixture, plane):
        pool, _, _ = tenant_fixture
        tenant = pool.resident[0]
        model = pool.forecaster(tenant).model
        params = dict(model.named_parameters())
        name, param = next(iter(params.items()))
        original = param.data.copy()
        try:
            param.data = original + 1.0
            plane.publish_weights(tenant, model)
            view = PlaneView(plane.spec)
            try:
                out = {key: np.empty_like(p.data) for key, p in params.items()}
                generation = view.read_weights(tenant, out)
                assert generation == 1
                assert np.array_equal(out[name], original + 1.0)
            finally:
                view.close()
        finally:
            param.data = original

    def test_bound_views_are_read_only(self, tenant_fixture, plane):
        pool, _, _ = tenant_fixture
        tenant = pool.resident[0]
        view = PlaneView(plane.spec)
        try:
            network = view.build_network()
            rebuilt, _ = view.build_forecaster(tenant, network)
            for _, param in rebuilt.model.named_parameters():
                assert not param.data.flags.writeable
        finally:
            view.close()


class TestValidation:
    def test_mismatched_window_dims_rejected(self, tenant_fixture):
        pool, windows, _ = tenant_fixture
        bad = np.zeros((1, 3, 4, 5), dtype=windows.dtype)
        with pytest.raises(ConfigurationError):
            ModelPlane.publish(pool, sample_windows=bad, max_batch_size=4)
