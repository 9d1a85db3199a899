"""STGCN baseline [Yu et al., IJCAI 2018] — ChebNet GCN + 1-D temporal convolution."""

from __future__ import annotations

import numpy as np

from scipy import sparse as sp

from ...graph.graph import Graph
from ...graph.sparse import (
    as_support,
    fuse_supports,
    get_spatial_mode,
    symmetric_normalize,
    transpose_csr,
)
from ...graph.sensor_network import SensorNetwork
from ...nn.conv import GatedTemporalConv
from ...nn.linear import Linear
from ...nn.module import Module, Parameter
from ...nn import init
from ...tensor import Tensor, concatenate
from ...tensor import functional as F
from ...utils.random import get_rng
from ..base import STModel
from ..registry import register

__all__ = ["ChebGraphConv", "STGCN"]


class ChebGraphConv(Module):
    """Chebyshev-polynomial graph convolution of order ``K`` (ChebNet)."""

    def __init__(self, in_channels: int, out_channels: int, adjacency,
                 order: int = 2, rng=None):
        super().__init__()
        if order < 1:
            raise ValueError("order must be >= 1")
        rng = get_rng(rng)
        self.order = order
        self.out_channels = out_channels
        if isinstance(adjacency, Graph):
            # Dense mode runs the seed dense algebra end to end (the
            # explicit fallback); otherwise stay on the CSR view.
            adjacency = adjacency.to_dense() if get_spatial_mode() == "dense" else adjacency.csr
        normalized = symmetric_normalize(as_support(adjacency))
        # Scaled Laplacian approximation: L~ = I - D^-1/2 A D^-1/2.
        size = adjacency.shape[0]
        if sp.issparse(normalized):
            laplacian = (
                sp.eye_array(size, dtype=normalized.dtype, format="csr") - normalized
            ).tocsr()
        else:
            laplacian = np.eye(size, dtype=normalized.dtype) - normalized
        self._chebyshev = self._chebyshev_basis(as_support(laplacian), order)
        self._fused = fuse_supports(self._chebyshev)
        self._cheb_transposes = tuple(
            transpose_csr(member) if sp.issparse(member) else None
            for member in self._chebyshev
        )
        self.weight = Parameter(init.xavier_uniform((order, in_channels, out_channels), rng=rng))
        self.bias = Parameter(init.zeros((out_channels,)))

    @staticmethod
    def _chebyshev_basis(laplacian, order: int) -> list:
        eye = sp.eye_array(laplacian.shape[0], dtype=laplacian.dtype, format="csr")
        # T_0 = I is applied implicitly (the mix is x itself), so only
        # T_1..T_{order-1} are stored.  Storage is re-examined every step of
        # the recurrence so the chain switches to dense BLAS the moment a
        # member crosses the density threshold.
        basis = [as_support(eye), laplacian]
        for _ in range(2, order):
            basis.append(as_support(2.0 * (laplacian @ basis[-1]) - basis[-2]))
        return basis[1:order]

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        # T_0 mixes with the identity, i.e. passes x through unchanged.
        if self._fused is not None:
            # All basis members CSR: one traversal mixes T_1..T_{K-1} at once.
            mixed = [x, F.spatial_mix_multi(self._fused, x)]
        else:
            mixed = [x] + [
                F.spatial_mix(member, x, transpose=transpose)
                for member, transpose in zip(self._chebyshev, self._cheb_transposes)
            ]
        stacked = mixed[0] if len(mixed) == 1 else concatenate(mixed, axis=-1)
        fused_weight = self.weight.reshape(-1, self.out_channels)
        return stacked @ fused_weight + self.bias


@register("stgcn")
class STGCN(STModel):
    """Sandwich blocks of temporal convolution - graph convolution - temporal convolution."""

    def __init__(
        self,
        network: SensorNetwork,
        in_channels: int,
        input_steps: int = 12,
        output_steps: int = 1,
        out_channels: int = 1,
        hidden_dim: int = 16,
        cheb_order: int = 2,
        rng=None,
    ):
        super().__init__(network, in_channels, input_steps, output_steps, out_channels)
        rng = get_rng(rng)
        self.hidden_dim = hidden_dim
        self.cheb_order = cheb_order
        self.temporal_in = GatedTemporalConv(in_channels, hidden_dim, kernel_size=2,
                                             dilation=1, causal_padding=True, rng=rng)
        self.graph_conv = ChebGraphConv(hidden_dim, hidden_dim, network.graph,
                                        order=cheb_order, rng=rng)
        self.temporal_out = GatedTemporalConv(hidden_dim, hidden_dim, kernel_size=2,
                                              dilation=2, causal_padding=True, rng=rng)
        self.head = Linear(hidden_dim, output_steps * out_channels, rng=rng)

    def extra_config(self) -> dict:
        return {"hidden_dim": self.hidden_dim, "cheb_order": self.cheb_order}

    def forward(self, x: Tensor) -> Tensor:
        x = self.check_input(x)
        hidden = self.temporal_in(x)
        hidden = F.relu(self.graph_conv(hidden))
        hidden = self.temporal_out(hidden)
        latest = hidden[:, -1, :, :]
        flat = self.head(latest)
        batch, nodes, _ = flat.shape
        return flat.reshape(batch, nodes, self.output_steps, self.out_channels).transpose(0, 2, 1, 3)
