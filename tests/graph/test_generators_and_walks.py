"""Tests for synthetic network generators and random-walk sampling."""

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.exceptions import GraphError
from repro.graph import generators
from repro.graph import (
    community_network,
    corridor_network,
    grid_network,
    random_geometric_network,
    random_walk,
    random_walk_subgraph_nodes,
)


class TestGenerators:
    def test_grid_network_shape(self):
        network = grid_network(3, 4, rng=0)
        assert network.num_nodes == 12
        assert network.coordinates.shape == (12, 2)
        assert network.num_edges >= 3 * 4 - 1

    def test_grid_network_symmetric(self):
        network = grid_network(3, 3, rng=1)
        np.testing.assert_allclose(network.adjacency, network.adjacency.T)

    def test_grid_rejects_bad_size(self):
        with pytest.raises(ValueError):
            grid_network(0, 3)

    def test_corridor_network_is_connected_chain(self):
        nx = pytest.importorskip("networkx")
        network = corridor_network(15, rng=0)
        assert nx.is_connected(network.to_networkx())

    def test_corridor_rejects_single_node(self):
        with pytest.raises(ValueError):
            corridor_network(1)

    def test_community_network_nodes(self):
        network = community_network(20, num_communities=4, rng=0)
        assert network.num_nodes == 20
        assert (network.adjacency >= 0).all()

    def test_community_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            community_network(2, num_communities=4)

    def test_community_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            community_network(8, num_communities=2, intra_prob=1.5)

    def test_random_geometric_network(self):
        network = random_geometric_network(15, rng=0)
        assert network.num_nodes == 15
        np.testing.assert_allclose(network.adjacency, network.adjacency.T)

    def test_generators_are_seeded(self):
        a = grid_network(3, 3, rng=42)
        b = grid_network(3, 3, rng=42)
        np.testing.assert_allclose(a.adjacency, b.adjacency)


def _networkx_block_model_edges(sizes, p, seed):
    nx = pytest.importorskip("networkx")
    graph = nx.stochastic_block_model(sizes, p, seed=seed)
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


class TestBlockModelOracle:
    """``_block_model_edges`` replays ``networkx.stochastic_block_model``'s draws."""

    @pytest.mark.parametrize(
        "sizes, p",
        [
            # set(range(28, 42)) iterates 32..41 before 28..31.
            ([14, 14, 14, 14], [[0.3 if i == j else 0.02 for j in range(4)] for i in range(4)]),
            ([5, 5, 5, 8], [[0.3 if i == j else 0.02 for j in range(4)] for i in range(4)]),
            ([20], [[0.3]]),
            ([6, 7, 8], [[1.0, 0.0, 0.3], [0.0, 0.5, 1.0], [0.3, 1.0, 0.0]]),
        ],
        ids=["unsorted-block", "uneven-last-block", "single-community", "zero-one-entries"],
    )
    def test_edges_match_networkx(self, sizes, p):
        for seed in range(20):
            assert generators._block_model_edges(sizes, p, seed) == _networkx_block_model_edges(
                sizes, p, seed
            ), seed

    @pytest.mark.parametrize("name, num_nodes", [("pems08", None), ("pems08", 56),
                                                 ("pems08", 96), ("pems04", None)])
    def test_datasets_match_networkx_path(self, monkeypatch, name, num_nodes):
        pytest.importorskip("networkx")
        ours = load_dataset(name, num_days=1, num_nodes=num_nodes).network.adjacency
        monkeypatch.setattr(generators, "_block_model_edges", _networkx_block_model_edges)
        theirs = load_dataset(name, num_days=1, num_nodes=num_nodes).network.adjacency
        np.testing.assert_array_equal(ours, theirs)


class TestRandomWalks:
    def test_walk_length(self):
        network = grid_network(3, 3, rng=0)
        walk = random_walk(network, start=0, length=10, rng=1)
        assert len(walk) == 10
        assert walk[0] == 0

    def test_walk_visits_neighbors(self):
        network = corridor_network(10, ramp_every=0, rng=0)
        walk = random_walk(network, start=5, length=5, rng=2)
        for a, b in zip(walk[:-1], walk[1:]):
            assert network.adjacency[a, b] > 0 or network.adjacency[a].sum() == 0

    def test_walk_invalid_start(self):
        network = grid_network(2, 2, rng=0)
        with pytest.raises(GraphError):
            random_walk(network, start=10, length=3)

    def test_walk_invalid_length(self):
        network = grid_network(2, 2, rng=0)
        with pytest.raises(ValueError):
            random_walk(network, start=0, length=0)

    def test_subgraph_nodes_size_and_uniqueness(self):
        network = grid_network(4, 4, rng=0)
        nodes = random_walk_subgraph_nodes(network, target_size=6, rng=3)
        assert len(nodes) == 6
        assert len(set(nodes.tolist())) == 6

    def test_subgraph_nodes_capped_at_network_size(self):
        network = grid_network(2, 2, rng=0)
        nodes = random_walk_subgraph_nodes(network, target_size=100, rng=4)
        assert len(nodes) == 4

    def test_subgraph_invalid_target(self):
        network = grid_network(2, 2, rng=0)
        with pytest.raises(ValueError):
            random_walk_subgraph_nodes(network, target_size=0)
