"""Shard planning and the node-sharded serving view."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, GraphError
from repro.graph import Graph
from repro.graph.sparse import spatial_mode
from repro.serve.sharding import ShardedForecaster, ShardPlanner


@pytest.fixture
def chain_graph():
    """A 12-node directed chain: exactly one edge crosses each boundary."""
    adjacency = np.zeros((12, 12))
    for i in range(11):
        adjacency[i, i + 1] = 1.0
    return Graph(adjacency, name="chain", directed=False)


class TestShardPlanner:
    def test_contiguous_balanced_partition(self, chain_graph):
        plan = ShardPlanner(3).plan(chain_graph)
        assert [(s.start, s.stop) for s in plan.shards] == [(0, 4), (4, 8), (8, 12)]
        assert plan.num_nodes == 12
        assert sum(s.num_nodes for s in plan.shards) == 12

    def test_edge_cut_counts_boundary_edges(self, chain_graph):
        plan = ShardPlanner(3).plan(chain_graph)
        # 11 chain edges, 2 cross a shard boundary (3->4 and 7->8).
        assert plan.total_edges == 11
        assert plan.cut_edges == 2
        assert plan.edge_cut == pytest.approx(2 / 11)
        assert ShardPlanner(1).plan(chain_graph).edge_cut == 0.0

    def test_row_block_matches_dense_slice(self, chain_graph):
        block = chain_graph.row_block(4, 8)
        assert block.shape == (4, 12)
        assert np.array_equal(block.toarray(), chain_graph.to_dense()[4:8])
        with pytest.raises(GraphError):
            chain_graph.row_block(8, 20)

    def test_node_mask(self, chain_graph):
        plan = ShardPlanner(3).plan(chain_graph)
        mask = plan.shards[1].node_mask(12)
        assert mask.sum() == 4 and mask[4:8].all()

    def test_too_many_shards_raises(self, chain_graph):
        with pytest.raises(GraphError):
            ShardPlanner(13).plan(chain_graph)
        with pytest.raises(ConfigurationError):
            ShardPlanner(0)

    def test_plan_needs_two_nodes_per_shard(self, chain_graph):
        assert ShardPlanner(6).plan(chain_graph).num_shards == 6
        with pytest.raises(GraphError):
            ShardPlanner(7).plan(chain_graph)

    def test_single_shard_plan_is_the_identity(self, chain_graph):
        plan = ShardPlanner(1).plan(chain_graph)
        assert np.array_equal(plan.permutation, np.arange(12))
        assert np.array_equal(plan.owned(0), np.arange(12))
        assert plan.cut_edge_pairs == 0

    def test_describe_is_json_friendly(self, chain_graph):
        import json

        description = ShardPlanner(2).plan(chain_graph).describe()
        assert json.loads(json.dumps(description)) == description


@pytest.fixture
def forecaster(tiny_scenario, tiny_urcl_config, tiny_training_config):
    from repro.serve import Forecaster

    return Forecaster.from_scenario(
        tiny_scenario, config=tiny_urcl_config, training=tiny_training_config, seed=0
    )


@pytest.fixture
def raw_windows(tiny_scenario, rng):
    series = tiny_scenario.raw_series
    spec = tiny_scenario.spec
    starts = rng.integers(0, series.shape[0] - spec.input_steps, size=6)
    return np.stack([series[s : s + spec.input_steps] for s in starts])


class TestShardedParity:
    """Acceptance: sharded output bit-identical to direct predict."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_bit_identical_across_shards_and_spatial_modes(
        self, forecaster, raw_windows, num_shards, mode
    ):
        with spatial_mode(mode):
            direct = forecaster.predict(raw_windows)
            with ShardedForecaster(forecaster, num_shards) as sharded:
                first = sharded.predict(raw_windows)   # capture pass
                second = sharded.predict(raw_windows)  # replay pass
            assert np.array_equal(first, direct)
            assert np.array_equal(second, direct)

    def test_single_window_keeps_shape(self, forecaster, raw_windows):
        with ShardedForecaster(forecaster, 2) as sharded:
            single = sharded.predict(raw_windows[0])
        assert np.array_equal(single, forecaster.predict(raw_windows[0]))

    def test_restores_training_mode(self, forecaster, raw_windows):
        forecaster.model.train(True)
        with ShardedForecaster(forecaster, 2) as sharded:
            sharded.predict(raw_windows)
        assert forecaster.model.training is True


class TestPartitionMode:
    def test_partition_exact_on_block_diagonal_graph_without_global_mixing(self):
        """With no cross-shard edges and no adaptive mixing, partition == full."""
        from repro.core.config import URCLConfig
        from repro.core.urcl import URCLModel
        from repro.graph.sensor_network import SensorNetwork
        from repro.models.stencoder import STEncoderConfig
        from repro.serve import Forecaster

        rng = np.random.default_rng(3)
        blocks = [rng.random((4, 4)) * (rng.random((4, 4)) < 0.6) for _ in range(2)]
        adjacency = np.zeros((8, 8))
        adjacency[:4, :4] = blocks[0]
        adjacency[4:, 4:] = blocks[1]
        np.fill_diagonal(adjacency, 0.0)
        network = SensorNetwork(adjacency=adjacency, name="block-diag")
        encoder = STEncoderConfig(
            residual_channels=4, dilation_channels=4, skip_channels=8,
            end_channels=8, dilations=(1, 2), use_adaptive=False,
        )
        model = URCLModel(
            network, in_channels=2, input_steps=8, output_steps=1,
            config=URCLConfig(encoder=encoder), rng=0,
        )
        facade = Forecaster(model)
        windows = rng.normal(size=(3, 8, 8, 2))
        with spatial_mode("sparse"):
            direct = facade.predict(windows)
            with ShardedForecaster(facade, 2) as sharded:
                assert sharded.plan.edge_cut == 0.0
                stitched = sharded.predict(windows)
        assert np.array_equal(stitched, direct)

    def test_partition_exact_when_edges_cross(self, forecaster, raw_windows):
        """Cross-shard edges go through the halo exchange: still bit-exact."""
        direct = forecaster.predict(raw_windows)
        with ShardedForecaster(forecaster, 2) as sharded:
            assert sharded.plan.edge_cut > 0.0
            stitched = sharded.predict(raw_windows)
        assert stitched.shape == direct.shape
        assert np.array_equal(stitched, direct)
