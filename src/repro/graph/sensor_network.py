"""Sensor networks (Definition 1 in the paper).

A :class:`SensorNetwork` is a weighted graph over traffic sensors.  Edge
weights encode spatial proximity (``1 / distance``, Eq. 20) and drive the
diffusion graph convolutions of the STEncoder as well as the spatially
oriented data augmentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import GraphError
from .graph import Graph

__all__ = ["SensorNetwork"]


@dataclass(eq=False)
class SensorNetwork:
    """Weighted sensor graph.

    Attributes
    ----------
    adjacency:
        Dense ``(num_nodes, num_nodes)`` non-negative weight matrix.  A zero
        entry means "no edge".  The diagonal is zero by convention.
    coordinates:
        Optional ``(num_nodes, 2)`` planar sensor coordinates, used to build
        distance-based weights and by the synthetic data generator.
    name:
        Human-readable identifier (e.g. ``"metr-la-synthetic"``).
    directed:
        Whether the adjacency should be interpreted as directed.  Traffic
        graphs derived from road segments are directed; purely
        distance-based graphs are symmetric.
    """

    adjacency: np.ndarray
    coordinates: np.ndarray | None = None
    name: str = "sensor-network"
    directed: bool = False
    _graph: "Graph | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacency = np.asarray(self.adjacency, dtype=float)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {adjacency.shape}")
        if (adjacency < 0).any():
            raise GraphError("adjacency weights must be non-negative")
        np.fill_diagonal(adjacency, 0.0)
        self.adjacency = adjacency
        if self.coordinates is not None:
            coordinates = np.asarray(self.coordinates, dtype=float)
            if coordinates.shape != (adjacency.shape[0], 2):
                raise GraphError(
                    f"coordinates must have shape ({adjacency.shape[0]}, 2), "
                    f"got {coordinates.shape}"
                )
            self.coordinates = coordinates

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def graph(self) -> Graph:
        """The CSR-backed :class:`repro.graph.Graph` view of this network.

        Built lazily and cached: diffusion supports derived from it are
        shared by every consumer (models, augmentations, serving).  The
        network's adjacency is treated as immutable after construction —
        code that mutates it in place must call
        :func:`repro.graph.sparse.clear_support_cache` afterwards (which
        also drops this cached view's derived state).
        """
        if self._graph is None:
            self._graph = Graph(
                self.adjacency,
                coordinates=self.coordinates,
                name=self.name,
                directed=self.directed,
            )
        return self._graph

    @property
    def num_edges(self) -> int:
        mask = self.adjacency > 0
        count = int(mask.sum())
        return count if self.directed else count // 2

    @property
    def edge_list(self) -> list[tuple[int, int, float]]:
        """Return ``(source, target, weight)`` triples for all edges."""
        rows, cols = np.nonzero(self.adjacency)
        edges = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            if not self.directed and j < i:
                continue
            edges.append((i, j, float(self.adjacency[i, j])))
        return edges

    def degrees(self) -> np.ndarray:
        """Weighted out-degrees."""
        return self.adjacency.sum(axis=1)

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of nodes adjacent to ``node``."""
        return np.nonzero(self.adjacency[node])[0]

    def copy(self) -> "SensorNetwork":
        return SensorNetwork(
            adjacency=self.adjacency.copy(),
            coordinates=None if self.coordinates is None else self.coordinates.copy(),
            name=self.name,
            directed=self.directed,
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coordinates(
        cls,
        coordinates: np.ndarray,
        radius: float,
        name: str = "sensor-network",
        max_neighbors: int | None = None,
    ) -> "SensorNetwork":
        """Build a distance-weighted graph (Eq. 20) from planar coordinates.

        Nodes within ``radius`` of each other are connected with weight
        ``1 / distance``.  ``max_neighbors`` optionally sparsifies the graph
        by keeping only the nearest neighbours of every node.
        """
        coordinates = np.asarray(coordinates, dtype=float)
        if coordinates.ndim != 2 or coordinates.shape[1] != 2:
            raise GraphError(f"coordinates must be (num_nodes, 2), got {coordinates.shape}")
        deltas = coordinates[:, None, :] - coordinates[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=-1))
        with np.errstate(divide="ignore"):
            weights = np.where(
                (distances > 0) & (distances <= radius), 1.0 / distances, 0.0
            )
        if max_neighbors is not None and max_neighbors > 0:
            pruned = np.zeros_like(weights)
            for node in range(weights.shape[0]):
                order = np.argsort(-weights[node])
                keep = [idx for idx in order[: max_neighbors] if weights[node, idx] > 0]
                pruned[node, keep] = weights[node, keep]
            weights = np.maximum(pruned, pruned.T)
        return cls(adjacency=weights, coordinates=coordinates, name=name)

    @classmethod
    def from_networkx(cls, graph, name: str = "sensor-network") -> "SensorNetwork":
        """Convert a NetworkX graph (edge attribute ``weight`` optional).

        Only the graph's own methods are called, so this imports nothing.
        """
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        adjacency = np.zeros((len(nodes), len(nodes)))
        for u, v, data in graph.edges(data=True):
            weight = float(data.get("weight", 1.0))
            adjacency[index[u], index[v]] = weight
            if not graph.is_directed():
                adjacency[index[v], index[u]] = weight
        coordinates = None
        if all("pos" in graph.nodes[node] for node in nodes):
            coordinates = np.asarray([graph.nodes[node]["pos"] for node in nodes], dtype=float)
        return cls(
            adjacency=adjacency,
            coordinates=coordinates,
            name=name,
            directed=graph.is_directed(),
        )

    def to_networkx(self):
        """Return a NetworkX ``Graph`` (``DiGraph`` when directed) of this network.

        networkx is an optional extra (``pip install 'repro[networkx]'``),
        imported here rather than with the package.
        """
        try:
            import networkx as nx
        except ImportError as error:
            raise ImportError(
                "SensorNetwork.to_networkx needs networkx, an optional extra: "
                "pip install 'repro[networkx]'"
            ) from error
        graph = nx.DiGraph() if self.directed else nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        for i, j, weight in self.edge_list:
            graph.add_edge(i, j, weight=weight)
        return graph

    # ------------------------------------------------------------------ #
    # Hop distances (used by the AddEdge augmentation: "distant node pairs")
    # ------------------------------------------------------------------ #
    def hop_matrix(self) -> np.ndarray:
        """Pairwise unweighted hop counts (``inf`` when unreachable; cached).

        See :meth:`repro.graph.Graph.hop_matrix`.
        """
        return self.graph.hop_matrix()

    def distant_pairs(self, min_hops: int = 3) -> list[tuple[int, int]]:
        """Node pairs more than ``min_hops`` apart (including unreachable)."""
        return self.graph.distant_pairs(min_hops)

    # ------------------------------------------------------------------ #
    # Sub-graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: np.ndarray | list[int]) -> "SensorNetwork":
        """Return the induced sub-network on ``nodes`` (order preserved)."""
        nodes = np.asarray(nodes, dtype=int)
        if nodes.size == 0:
            raise GraphError("cannot build an empty subgraph")
        adjacency = self.adjacency[np.ix_(nodes, nodes)]
        coordinates = None if self.coordinates is None else self.coordinates[nodes]
        return SensorNetwork(
            adjacency=adjacency,
            coordinates=coordinates,
            name=f"{self.name}-subgraph",
            directed=self.directed,
        )

    def masked(self, dropped_nodes: np.ndarray | list[int]) -> "SensorNetwork":
        """Return a copy where all edges touching ``dropped_nodes`` are removed.

        This keeps the node set (and therefore observation shapes) intact,
        which is what the DropNodes augmentation requires (Eq. 6).
        """
        dropped = np.asarray(dropped_nodes, dtype=int)
        adjacency = self.adjacency.copy()
        adjacency[dropped, :] = 0.0
        adjacency[:, dropped] = 0.0
        return SensorNetwork(
            adjacency=adjacency,
            coordinates=self.coordinates,
            name=f"{self.name}-masked",
            directed=self.directed,
        )
