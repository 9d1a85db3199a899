"""Bit-parity of memory-sharded (partitioned) inference across the zoo.

The guarantee: a partitioned predict — each shard holding only its owned
node rows plus per-layer halo gathers, and the full-width gather at
node-global layers — returns bit-identical output to the unsharded
forecaster, for every registered model and any shard count.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro  # noqa: F401 - registers URCLModel via repro.core
from repro.exceptions import PartitionError
from repro.graph.sensor_network import SensorNetwork
from repro.graph.sparse import (
    clear_support_cache,
    partition_support_blocks,
    spatial_mode,
    support_cache_stats,
)
from repro.models.graphwavenet import GraphWaveNetBackbone
from repro.models.baselines.stgcn import STGCN
from repro.models.registry import available_models, build_model
from repro.models.stencoder import STEncoderConfig
from repro.nn import SpatialAttention
from repro.serve import Forecaster
from repro.serve.sharding import ShardedForecaster, ShardPlanner
from repro.tensor import HaloExchange, PartitionContext, Tensor, no_grad
from repro.tensor import tensor as tensor_kernels
from repro.tensor.partition import partition_scope


def _clustered_network(num_clusters=4, size=6, seed=0, name="clustered"):
    """Dense intra-cluster blocks, a few cross edges, node ids shuffled.

    The shuffle makes identity-order node ranges cut many edges while a
    min-cut planner can recover the clusters — the planner regression below
    relies on that gap.
    """
    rng = np.random.default_rng(seed)
    n = num_clusters * size
    adjacency = np.zeros((n, n))
    for c in range(num_clusters):
        lo = c * size
        block = rng.random((size, size)) * (rng.random((size, size)) < 0.7)
        adjacency[lo : lo + size, lo : lo + size] = block
    for _ in range(2 * num_clusters):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            adjacency[a, b] = 0.5 + 0.5 * rng.random()
    np.fill_diagonal(adjacency, 0.0)
    perm = rng.permutation(n)
    adjacency = adjacency[np.ix_(perm, perm)]
    return SensorNetwork(adjacency=adjacency, name=name)


def _tiny_encoder(**overrides):
    config = dict(
        residual_channels=4, dilation_channels=4, skip_channels=8,
        end_channels=8, dilations=(1, 2), adaptive_embedding_dim=3,
    )
    config.update(overrides)
    return STEncoderConfig(**config)


ZOO = {
    "graphwavenet": lambda net: GraphWaveNetBackbone(
        net, in_channels=2, input_steps=8, encoder_config=_tiny_encoder(),
        decoder_hidden=8, rng=0,
    ),
    "stgcn": lambda net: STGCN(
        net, in_channels=2, input_steps=8, hidden_dim=8, rng=0,
    ),
}

# Every registered model with a (batch, time, nodes, channels) forward: the
# classical forecasters (ARIMA, historical average) have none to partition.
REGISTRY = [
    name for name in available_models() if name not in ("arima", "historicalaverage")
]


def _registry_model(name, network):
    return build_model(name, {"in_channels": 2, "input_steps": 8}, network=network, rng=0)


class TestZooBitParity:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("name", REGISTRY)
    def test_partitioned_predict_is_bit_identical(self, name, num_shards):
        network = _clustered_network()
        rng = np.random.default_rng(11)
        with spatial_mode("sparse"):
            facade = Forecaster(_registry_model(name, network))
            with ShardedForecaster(facade, num_shards) as sharded:
                for batch in (1, 3):
                    windows = rng.normal(size=(batch, 8, network.num_nodes, 2))
                    direct = facade.predict(windows)
                    stitched = sharded.predict(windows)  # capture
                    repeat = sharded.predict(windows)  # replay
                    assert np.array_equal(stitched, direct), f"batch={batch}"
                    assert np.array_equal(repeat, direct), f"batch={batch} repeat"

    @pytest.mark.parametrize("name", REGISTRY)
    def test_dense_supports_are_bit_identical(self, name):
        """Under ``spatial_mode("dense")`` every support takes the whole-operand
        gather; three shards leave 24 nodes in unequal mincut parts."""
        network = _clustered_network(seed=7)
        rng = np.random.default_rng(29)
        windows = rng.normal(size=(2, 8, network.num_nodes, 2))
        with spatial_mode("dense"):
            facade = Forecaster(_registry_model(name, network))
            direct = facade.predict(windows)
            with ShardedForecaster(facade, 3) as sharded:
                stitched = sharded.predict(windows)
                repeat = sharded.predict(windows)
        assert np.array_equal(stitched, direct)
        assert np.array_equal(repeat, direct)


class TestWholeOperand:
    """``PartitionContext.whole_operand`` as node-global layers use it."""

    def test_spatial_attention_shards_keep_their_rows_of_the_full_result(self):
        network = _clustered_network(seed=21)
        nodes, num_shards = network.num_nodes, 3
        plan = ShardPlanner(num_shards).plan(network.graph)
        exchange = HaloExchange(num_shards)
        attention = SpatialAttention(4, rng=0)
        x = np.random.default_rng(31).normal(size=(2, 5, nodes, 4))

        def shard_attend(k):
            context = PartitionContext(plan, k, exchange)
            with no_grad(), partition_scope(context):
                return attention(Tensor(x[..., plan.owned(k), :])).data

        with ThreadPoolExecutor(num_shards) as pool:
            parts = list(pool.map(shard_attend, range(num_shards)))
        with no_grad():
            full = attention(Tensor(x)).data
        for k, part in enumerate(parts):
            assert part.shape == (2, 5, plan.shards[k].num_nodes, 4)
            assert np.array_equal(part, full[..., plan.owned(k), :])

    def test_strict_context_refuses_before_gathering(self):
        plan = ShardPlanner(2).plan(_clustered_network(seed=21).graph)
        context = PartitionContext(plan, 0, HaloExchange(2), strict=True)
        calls = []
        local = Tensor(np.zeros((1, 2, plan.shards[0].num_nodes, 4)))
        with no_grad(), pytest.raises(PartitionError):
            context.whole_operand(local, calls.append)
        assert calls == []


class TestStrictMode:
    def test_strict_rejects_dense_global_mixing(self):
        """Adaptive adjacency needs a full-N gather; strict mode refuses."""
        network = _clustered_network(seed=5)
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(2, 8, network.num_nodes, 2))
        with spatial_mode("sparse"):
            facade = Forecaster(ZOO["graphwavenet"](network))
            with ShardedForecaster(facade, 2, strict=True) as sharded:
                with pytest.raises(PartitionError):
                    sharded.predict(windows)

    def test_strict_rejects_spatial_attention(self):
        """GeoMAN attends over every node: a full-N gather strict refuses."""
        network = _clustered_network(seed=5)
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(2, 8, network.num_nodes, 2))
        with spatial_mode("sparse"):
            facade = Forecaster(_registry_model("geoman", network))
            with ShardedForecaster(facade, 2, strict=True) as sharded:
                with pytest.raises(PartitionError):
                    sharded.predict(windows)

    def test_strict_allows_pure_sparse_models(self):
        network = _clustered_network(seed=5)
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(2, 8, network.num_nodes, 2))
        with spatial_mode("sparse"):
            facade = Forecaster(ZOO["stgcn"](network))
            direct = facade.predict(windows)
            with ShardedForecaster(facade, 2, strict=True) as sharded:
                stitched = sharded.predict(windows)
        assert np.array_equal(stitched, direct)


class TestPartitionCache:
    def test_halo_blocks_cached_per_plan(self):
        graph = _clustered_network(seed=9).graph
        plan = ShardPlanner(2).plan(graph)
        with spatial_mode("sparse"):
            support = graph.conv_supports(2)[0]
            clear_support_cache()
            first = partition_support_blocks(support, plan)
            again = partition_support_blocks(support, plan)
            assert again is first
            stats = support_cache_stats()
            assert stats["partition_misses"] == 1
            assert stats["partition_hits"] == 1
            assert stats["partition_entries"] == 1
            assert stats["partition_bytes"] > 0

            # A fresh plan (new token) is a different key even if equal-shaped.
            other_plan = ShardPlanner(2).plan(graph)
            rebuilt = partition_support_blocks(support, other_plan)
            assert rebuilt is not first
            assert support_cache_stats()["partition_entries"] == 2

            clear_support_cache()
            stats = support_cache_stats()
            assert stats["partition_entries"] == 0
            assert stats["partition_hits"] == 0

    def test_halo_layout_references_only_csr_columns(self):
        """Each shard's halo is exactly the foreign columns its rows touch."""
        graph = _clustered_network(seed=9).graph
        plan = ShardPlanner(3).plan(graph)
        with spatial_mode("sparse"):
            support = graph.conv_supports(2)[0]
            clear_support_cache()
            partitioned = partition_support_blocks(support, plan)
        csr = support.tocsr()
        for k in range(3):
            owned = plan.owned(k)
            halo = partitioned.halos[k]
            assert np.array_equal(halo.owned, np.sort(owned))
            cols = np.unique(csr[owned].indices)
            expected = np.setdiff1d(cols, owned)
            assert np.array_equal(np.sort(halo.foreign), expected)
            block = partitioned.blocks[k]
            assert block.shape == (len(owned), len(owned) + len(halo.foreign))


class TestMinCutPlanner:
    def test_mincut_beats_contiguous_on_clustered_graph(self):
        graph = _clustered_network(num_clusters=4, size=8, seed=1).graph
        mincut = ShardPlanner(4).plan(graph)
        # Baseline: unordered edge pairs cut by balanced identity-order ranges.
        n = graph.num_nodes
        owner = np.repeat(np.arange(4), np.diff(np.linspace(0, n, 5).round().astype(int)))
        coo = graph.csr.tocoo()
        cross = owner[coo.row] != owner[coo.col]
        pairs = np.minimum(coo.row, coo.col)[cross] * n + np.maximum(coo.row, coo.col)[cross]
        assert mincut.cut_edge_pairs < len(np.unique(pairs))
        # Balanced: every part within one alignment unit of the target.
        sizes = [s.num_nodes for s in mincut.shards]
        assert max(sizes) - min(sizes) <= 1
        # The permutation is a bijection over the nodes.
        assert sorted(mincut.permutation.tolist()) == list(range(graph.num_nodes))

    def test_mincut_recovers_block_diagonal_clusters(self):
        rng = np.random.default_rng(4)
        n, half = 16, 8
        adjacency = np.zeros((n, n))
        for lo in (0, half):
            block = rng.random((half, half)) * (rng.random((half, half)) < 0.8)
            adjacency[lo : lo + half, lo : lo + half] = block
        np.fill_diagonal(adjacency, 0.0)
        perm = rng.permutation(n)
        graph = SensorNetwork(adjacency=adjacency[np.ix_(perm, perm)], name="bd").graph
        plan = ShardPlanner(2).plan(graph)
        assert plan.cut_edge_pairs == 0

    def test_describe_reports_strategy_and_cut(self):
        graph = _clustered_network(seed=1).graph
        description = ShardPlanner(2).plan(graph).describe()
        assert "cut_edge_pairs" in description
        import json

        assert json.loads(json.dumps(description)) == description


class TestHaloProfile:
    def test_halo_fractions_bounded(self):
        network = _clustered_network(num_clusters=4, size=8, seed=1)
        with spatial_mode("sparse"):
            facade = Forecaster(ZOO["stgcn"](network))
            with ShardedForecaster(facade, 4) as sharded:
                profile = sharded.halo_profile(2)
        assert profile["num_shards"] == 4
        assert len(profile["shards"]) == 4
        for entry in profile["shards"]:
            assert entry["owned"] > 0
            assert 0.0 <= entry["halo_fraction"] <= 1.0
        assert profile["max_halo_fraction"] == max(
            entry["halo_fraction"] for entry in profile["shards"]
        )


class TestDenseRouteParity:
    """The whole-operand dense mix (``PartitionContext._dense_mix``): every
    support under ``spatial_mode("dense")``, the adaptive adjacency under
    either mode.  Every shard issues the call the unsharded forward issues,
    so parity needs no canonical geometry — at N > 256 the left operand is
    row-blocked identically in both."""

    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    @pytest.mark.parametrize("cluster_size", [6, 66])  # N = 24 and N = 264
    def test_adaptive_graphwavenet_is_bit_identical(
        self, cluster_size, mode, num_shards
    ):
        network = _clustered_network(size=cluster_size, seed=13)
        rng = np.random.default_rng(17)
        with spatial_mode(mode):
            facade = Forecaster(ZOO["graphwavenet"](network))
            with ShardedForecaster(facade, num_shards) as sharded:
                for batch in (1, 5):
                    windows = rng.normal(size=(batch, 8, network.num_nodes, 2))
                    direct = facade.predict(windows)
                    stitched = sharded.predict(windows)
                    repeat = sharded.predict(windows)
                    assert np.array_equal(stitched, direct), f"batch={batch}"
                    assert np.array_equal(repeat, direct), f"batch={batch} repeat"

    def test_every_shard_multiplies_the_full_contiguous_operand(self, monkeypatch):
        network = _clustered_network(seed=19)
        nodes, num_shards = network.num_nodes, 3
        plan = ShardPlanner(num_shards).plan(network.graph)
        exchange = HaloExchange(num_shards)
        rng = np.random.default_rng(23)
        support = rng.normal(size=(nodes, nodes))
        x = rng.normal(size=(2, 5, nodes, 8))[..., ::2]  # strided local rows

        seen = []
        execute = tensor_kernels._matmul_execute

        def spy(a, b, out=None):
            seen.append((a.shape, b.shape, b.flags.c_contiguous))
            return execute(a, b, out)

        monkeypatch.setattr(tensor_kernels, "_matmul_execute", spy)

        def shard_mix(k):
            context = PartitionContext(plan, k, exchange)
            with no_grad():  # grad mode is per thread
                return context.mix(support, Tensor(x[..., plan.owned(k), :])).data

        with ThreadPoolExecutor(num_shards) as pool:
            parts = list(pool.map(shard_mix, range(num_shards)))
        assert seen == [((nodes, nodes), (2, 5, nodes, 4), True)] * num_shards
        with no_grad():
            full = (Tensor(support) @ Tensor(x)).data
        for k, part in enumerate(parts):
            assert np.array_equal(part, full[..., plan.owned(k), :])
