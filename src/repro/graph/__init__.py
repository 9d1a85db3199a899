"""Sensor-network substrate: graph structures, adjacency algebra, generators.

The first-class CSR-backed :class:`Graph` (adjacency + metadata + cached
diffusion supports/transposes) and its :class:`GraphDelta` perturbations
live in :mod:`repro.graph.graph`.  Dense adjacency algebra lives in
:mod:`repro.graph.adjacency`; the CSR-native counterpart with auto-densify,
the content-keyed support cache, cached transposes and the fused
multi-support stacks lives in :mod:`repro.graph.sparse`.
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
    cached_diffusion_supports,
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
    "cached_diffusion_supports",
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
