"""Graph convolution layers (Eq. 19–24).

Two spatial mixing mechanisms are combined, exactly as in GraphWaveNet:

* **diffusion convolution** over the pre-defined distance graph, with
  forward/backward transition matrices and a truncated K-step power series
  (Eq. 21–22);
* a **self-adaptive adjacency matrix** built from two learnable node
  embeddings, ``softmax(relu(E1 E2^T))`` (Eq. 23), capturing global
  correlations the distance graph misses.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..tensor import Tensor, concatenate
from ..tensor import functional as F
from ..utils.random import get_rng
from ..nn import init
from ..nn.module import Module, Parameter

__all__ = ["AdaptiveAdjacency", "DiffusionGraphConv"]


class AdaptiveAdjacency(Module):
    """Self-adaptive adjacency matrix ``softmax(relu(E1 E2^T))`` (Eq. 23)."""

    def __init__(self, num_nodes: int, embedding_dim: int = 10, rng=None):
        super().__init__()
        if num_nodes < 1 or embedding_dim < 1:
            raise ValueError("num_nodes and embedding_dim must be >= 1")
        rng = get_rng(rng)
        self.num_nodes = num_nodes
        self.embedding_dim = embedding_dim
        self.source_embedding = Parameter(init.normal((num_nodes, embedding_dim), std=0.1, rng=rng))
        self.target_embedding = Parameter(init.normal((num_nodes, embedding_dim), std=0.1, rng=rng))

    def forward(self) -> Tensor:
        scores = F.relu(self.source_embedding @ self.target_embedding.transpose(1, 0))
        return F.softmax(scores, axis=-1)


class DiffusionGraphConv(Module):
    """K-step diffusion graph convolution with optional adaptive adjacency (Eq. 24).

    Input and output follow the ``(batch, time, nodes, channels)`` layout;
    spatial mixing happens on the ``nodes`` axis.

    Parameters
    ----------
    in_channels, out_channels:
        Feature sizes.
    adjacency:
        Pre-defined sensor graph: a :class:`repro.graph.Graph` (its cached
        supports, transposes and fused stack are shared across layers) or an
        adjacency array, wrapped once into a ``Graph``.  ``None`` when the
        graph is unknown, in which case only the adaptive matrix is used.
    diffusion_order:
        ``K`` in Eq. 21.
    adaptive:
        Shared :class:`AdaptiveAdjacency` module or ``None``.
    directed:
        Whether to use forward+backward transition matrices.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        adjacency: "Graph | np.ndarray | None",
        diffusion_order: int = 2,
        adaptive: AdaptiveAdjacency | None = None,
        directed: bool = False,
        rng=None,
    ):
        super().__init__()
        rng = get_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.diffusion_order = diffusion_order
        self.adaptive = adaptive
        self.directed = directed
        if adjacency is not None and not isinstance(adjacency, Graph):
            adjacency = Graph(adjacency)
        self.graph = adjacency
        num_supports = 0 if adjacency is None else len(
            adjacency.conv_supports(diffusion_order, directed)
        )
        num_supports += 1 if adaptive is not None else 0
        if num_supports == 0:
            raise ValueError("DiffusionGraphConv needs a graph or an adaptive adjacency")
        self.weight = Parameter(
            init.xavier_uniform((num_supports, in_channels, out_channels), rng=rng)
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor, adjacency=None) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4:
            raise ValueError(f"DiffusionGraphConv expects 4-d input, got {x.shape}")
        if adjacency is not None and not isinstance(adjacency, Graph):
            raise TypeError(
                "DiffusionGraphConv adjacency override must be a repro.graph.Graph "
                f"or None, got {type(adjacency).__name__}"
            )
        graph = self.graph if adjacency is None else adjacency
        mixed = []
        if graph is not None:
            # Resolved per call: mode/dtype switches select another support set.
            order, directed = self.diffusion_order, self.directed
            fused = graph.fused_conv_supports(order, directed)
            if fused is not None:
                # One CSR traversal mixes all S supports at once; the result is
                # already the channel-axis concatenation of the per-support mixes.
                mixed.append(F.spatial_mix_multi(fused, x))
            else:
                mixed.extend(
                    F.spatial_mix(support, x, transpose=transpose)
                    for support, transpose in zip(
                        graph.conv_supports(order, directed),
                        graph.support_transposes(order, directed),
                    )
                )
        if self.adaptive is not None:
            mixed.append(F.spatial_mix(self.adaptive(), x))
        # Fused per-support weights: concatenating the S mixed features along
        # the channel axis and applying one (S*C_in, C_out) matmul is the sum
        # of the per-support products, without S autograd slices + matmuls.
        stacked = mixed[0] if len(mixed) == 1 else concatenate(mixed, axis=-1)
        fused_weight = self.weight.reshape(-1, self.out_channels)
        return stacked @ fused_weight + self.bias
