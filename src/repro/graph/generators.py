"""Synthetic sensor-network topologies.

The real datasets' sensor graphs (in-road loop detectors along Los Angeles
and Bay Area highways) are not available offline, so these generators build
road-like graphs with matching node counts: grid-shaped arterial networks,
corridor (chain) networks resembling a highway with on/off ramps, and
small-world community graphs.  All generators return a
:class:`~repro.graph.sensor_network.SensorNetwork` with planar coordinates
and ``1/distance`` edge weights (Eq. 20).
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from ..utils.random import get_rng
from .sensor_network import SensorNetwork

__all__ = ["grid_network", "corridor_network", "community_network", "random_geometric_network"]


def grid_network(rows: int, cols: int, spacing: float = 1.0, jitter: float = 0.1, rng=None,
                 name: str = "grid") -> SensorNetwork:
    """Arterial-grid network of ``rows x cols`` sensors.

    Each sensor connects to its 4-neighbourhood; coordinates get a small
    jitter so distances (and therefore weights) are not all identical.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    rng = get_rng(rng)
    coordinates = np.zeros((rows * cols, 2))
    for r in range(rows):
        for c in range(cols):
            coordinates[r * cols + c] = (
                c * spacing + rng.normal(0, jitter * spacing),
                r * spacing + rng.normal(0, jitter * spacing),
            )
    adjacency = np.zeros((rows * cols, rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr < rows and cc < cols:
                    other = rr * cols + cc
                    distance = np.linalg.norm(coordinates[node] - coordinates[other])
                    weight = 1.0 / max(distance, 1e-6)
                    adjacency[node, other] = weight
                    adjacency[other, node] = weight
    return SensorNetwork(adjacency=adjacency, coordinates=coordinates, name=name)


def corridor_network(num_nodes: int, spacing: float = 1.0, ramp_every: int = 5,
                     rng=None, name: str = "corridor") -> SensorNetwork:
    """Highway-corridor network: a long chain with periodic ramp shortcuts.

    Mimics the PEMS highway detector layout where most sensors sit along a
    single corridor with occasional interchanges connecting distant points.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    rng = get_rng(rng)
    coordinates = np.zeros((num_nodes, 2))
    coordinates[:, 0] = np.arange(num_nodes) * spacing
    coordinates[:, 1] = rng.normal(0, 0.2 * spacing, size=num_nodes)
    adjacency = np.zeros((num_nodes, num_nodes))
    for node in range(num_nodes - 1):
        distance = np.linalg.norm(coordinates[node] - coordinates[node + 1])
        weight = 1.0 / max(distance, 1e-6)
        adjacency[node, node + 1] = weight
        adjacency[node + 1, node] = weight
    # Ramp shortcuts between every ``ramp_every``-th sensor and a random target.
    if ramp_every > 0:
        for node in range(0, num_nodes, ramp_every):
            target = int(rng.integers(0, num_nodes))
            if target == node:
                continue
            distance = np.linalg.norm(coordinates[node] - coordinates[target])
            weight = 0.5 / max(distance, 1e-6)
            adjacency[node, target] = max(adjacency[node, target], weight)
            adjacency[target, node] = max(adjacency[target, node], weight)
    return SensorNetwork(adjacency=adjacency, coordinates=coordinates, name=name)


def _block_model_edges(sizes, p, seed) -> set[tuple[int, int]]:
    """Edge set of ``networkx.stochastic_block_model(sizes, p, seed=seed)``.

    Undirected, no self-loops, each edge as a sorted ``(u, v)`` pair.  The
    draws replay networkx's sparse path one for one, so a seed gives the
    same graph with or without networkx installed: a ``random.Random(seed)``
    stream; blocks as ``set(range(a, b))`` (whose iteration order is not
    sorted once the block straddles a hash-table boundary); one draw per
    pair inside a block, plus the one networkx spends on the exhausted pair
    iterator when ``0 < p < 1``; and a geometric skip between blocks.
    """
    draw = random.Random(seed).random
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [set(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    edges: set[tuple[int, int]] = set()
    for i, j in itertools.combinations_with_replacement(range(len(sizes)), 2):
        prob = p[i][j]
        if i == j:
            edges.update((min(e), max(e)) for e in itertools.combinations(parts[i], 2)
                         if draw() < prob)
            if 0 < prob < 1:
                draw()
        elif prob == 1:
            edges.update(itertools.product(parts[i], parts[j]))
        elif prob > 0:
            pairs = itertools.product(parts[i], parts[j])
            while True:
                skip = math.floor(math.log(draw()) / math.log(1 - prob))
                edge = next(itertools.islice(pairs, skip, None), None)
                if edge is None:
                    break
                edges.add(edge)
    return edges


def community_network(num_nodes: int, num_communities: int = 4, intra_prob: float = 0.3,
                      inter_prob: float = 0.02, rng=None, name: str = "community") -> SensorNetwork:
    """Districts-of-a-city network: dense communities, sparse bridges."""
    if num_nodes < num_communities:
        raise ValueError("num_nodes must be >= num_communities")
    if not (0 <= intra_prob <= 1 and 0 <= inter_prob <= 1):
        raise ValueError("intra_prob and inter_prob must lie in [0, 1]")
    rng = get_rng(rng)
    sizes = [num_nodes // num_communities] * num_communities
    sizes[-1] += num_nodes - sum(sizes)
    probabilities = np.full((num_communities, num_communities), inter_prob)
    np.fill_diagonal(probabilities, intra_prob)
    edges = _block_model_edges(sizes, probabilities.tolist(), seed=int(rng.integers(0, 2**31)))
    # Assign community-clustered coordinates.
    centers = rng.uniform(0, 10, size=(num_communities, 2))
    coordinates = np.zeros((num_nodes, 2))
    node = 0
    for community, size in enumerate(sizes):
        coordinates[node : node + size] = centers[community] + rng.normal(0, 0.8, size=(size, 2))
        node += size
    adjacency = np.zeros((num_nodes, num_nodes))
    for u, v in edges:
        distance = np.linalg.norm(coordinates[u] - coordinates[v])
        weight = 1.0 / max(distance, 1e-6)
        adjacency[u, v] = weight
        adjacency[v, u] = weight
    # Guarantee connectivity by chaining consecutive nodes lightly.
    for node in range(num_nodes - 1):
        if adjacency[node, node + 1] == 0:
            distance = np.linalg.norm(coordinates[node] - coordinates[node + 1])
            weight = 0.2 / max(distance, 1e-6)
            adjacency[node, node + 1] = weight
            adjacency[node + 1, node] = weight
    return SensorNetwork(adjacency=adjacency, coordinates=coordinates, name=name)


def random_geometric_network(num_nodes: int, radius: float = 1.5, box: float = 10.0,
                             rng=None, name: str = "geometric") -> SensorNetwork:
    """Random geometric graph: sensors scattered in a box, linked within ``radius``."""
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    rng = get_rng(rng)
    coordinates = rng.uniform(0, box, size=(num_nodes, 2))
    network = SensorNetwork.from_coordinates(coordinates, radius=radius, name=name)
    # Chain nodes lightly to avoid isolated sensors.
    adjacency = network.adjacency.copy()
    order = np.argsort(coordinates[:, 0])
    for a, b in zip(order[:-1], order[1:]):
        if adjacency[a, b] == 0:
            distance = np.linalg.norm(coordinates[a] - coordinates[b])
            weight = 0.2 / max(distance, 1e-6)
            adjacency[a, b] = weight
            adjacency[b, a] = weight
    return SensorNetwork(adjacency=adjacency, coordinates=coordinates, name=name)
