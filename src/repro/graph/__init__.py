"""Sensor-network substrate: graph structures, adjacency algebra, generators.

The first-class CSR-backed :class:`Graph` (adjacency + metadata + the one
cache of its diffusion supports, their transposes and fused stacks) and its
:class:`GraphDelta` perturbations live in :mod:`repro.graph.graph`.  Dense
adjacency algebra lives in :mod:`repro.graph.adjacency`; the CSR-native
counterpart with auto-densify, the transpose and fused-stack builders and
the support LRU's counters live in :mod:`repro.graph.sparse`.
"""

from . import sparse
from .adjacency import (
    add_self_loops,
    backward_transition,
    diffusion_supports,
    forward_transition,
    power_series,
    row_normalize,
    symmetric_normalize,
)
from .graph import Graph, GraphDelta
from .sparse import (
    clear_support_cache,
    fuse_supports,
    set_spatial_mode,
    spatial_mode,
    support_cache_stats,
    transpose_csr,
)
from .generators import (
    community_network,
    corridor_network,
    grid_network,
    random_geometric_network,
)
from .random_walk import random_walk, random_walk_subgraph_nodes
from .sensor_network import SensorNetwork

__all__ = [
    "SensorNetwork",
    "Graph",
    "GraphDelta",
    "sparse",
    "clear_support_cache",
    "fuse_supports",
    "set_spatial_mode",
    "spatial_mode",
    "support_cache_stats",
    "transpose_csr",
    "add_self_loops",
    "backward_transition",
    "diffusion_supports",
    "forward_transition",
    "power_series",
    "row_normalize",
    "symmetric_normalize",
    "community_network",
    "corridor_network",
    "grid_network",
    "random_geometric_network",
    "random_walk",
    "random_walk_subgraph_nodes",
]
