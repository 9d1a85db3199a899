"""Tests for the SensorNetwork structure."""

import sys

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import SensorNetwork


@pytest.fixture
def triangle():
    adjacency = np.array(
        [
            [0.0, 1.0, 0.5],
            [1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
        ]
    )
    coordinates = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    return SensorNetwork(adjacency=adjacency, coordinates=coordinates, name="triangle")


class TestConstruction:
    def test_basic_properties(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 2
        assert triangle.name == "triangle"

    def test_diagonal_cleared(self):
        network = SensorNetwork(adjacency=np.eye(3))
        assert network.adjacency.diagonal().sum() == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            SensorNetwork(adjacency=np.zeros((2, 3)))

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError):
            SensorNetwork(adjacency=np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_bad_coordinates(self):
        with pytest.raises(GraphError):
            SensorNetwork(adjacency=np.zeros((3, 3)), coordinates=np.zeros((2, 2)))

    def test_from_coordinates_inverse_distance(self):
        coordinates = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        network = SensorNetwork.from_coordinates(coordinates, radius=3.0)
        assert network.adjacency[0, 1] == pytest.approx(0.5)
        assert network.adjacency[0, 2] == 0.0

    def test_from_coordinates_max_neighbors(self):
        rng = np.random.default_rng(0)
        coordinates = rng.uniform(0, 1, size=(10, 2))
        network = SensorNetwork.from_coordinates(coordinates, radius=5.0, max_neighbors=2)
        # Every node keeps at most 2 outgoing strongest edges (symmetrised).
        assert network.num_nodes == 10
        assert (network.adjacency > 0).sum(axis=1).max() <= 10

    def test_networkx_roundtrip(self, triangle):
        nx = pytest.importorskip("networkx")
        graph = triangle.to_networkx()
        assert isinstance(graph, nx.Graph)
        back = SensorNetwork.from_networkx(graph)
        np.testing.assert_allclose(back.adjacency, triangle.adjacency)

    def test_to_networkx_names_the_extra_when_missing(self, triangle, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"repro\[networkx\]"):
            triangle.to_networkx()


class TestQueries:
    def test_degrees_and_neighbors(self, triangle):
        np.testing.assert_allclose(triangle.degrees(), [1.5, 1.0, 0.5])
        np.testing.assert_array_equal(triangle.neighbors(0), [1, 2])

    def test_edge_list_undirected_unique(self, triangle):
        edges = triangle.edge_list
        assert len(edges) == 2
        assert all(i < j for i, j, _ in edges)

    def test_hop_matrix(self, triangle):
        hops = triangle.hop_matrix()
        assert hops[1, 2] == 2
        assert hops[0, 0] == 0

    def test_distant_pairs(self):
        # A path graph 0-1-2-3-4: nodes 0 and 4 are 4 hops apart.
        adjacency = np.zeros((5, 5))
        for i in range(4):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
        network = SensorNetwork(adjacency=adjacency)
        pairs = network.distant_pairs(min_hops=3)
        assert (0, 4) in pairs
        assert (0, 1) not in pairs

    def test_copy_is_deep(self, triangle):
        clone = triangle.copy()
        clone.adjacency[0, 1] = 9.0
        assert triangle.adjacency[0, 1] == 1.0


class TestDerivedGraphs:
    def test_subgraph(self, triangle):
        sub = triangle.subgraph([0, 2])
        assert sub.num_nodes == 2
        assert sub.adjacency[0, 1] == pytest.approx(0.5)

    def test_subgraph_empty_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph([])

    def test_masked_keeps_node_count(self, triangle):
        masked = triangle.masked([1])
        assert masked.num_nodes == 3
        assert masked.adjacency[0, 1] == 0.0
        assert masked.adjacency[0, 2] == pytest.approx(0.5)
