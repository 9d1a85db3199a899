"""STEncoder — the GraphWaveNet-style spatio-temporal encoder (Sec. IV-D.1, Fig. 3).

Stacked layers of Gated TCN (dilated causal convolutions, Eq. 25–26)
followed by diffusion graph convolution (Eq. 24) with residual and skip
connections; an input MLP lifts raw channels into the residual space and an
output MLP produces the latent node representation ``h_theta`` consumed by
the STDecoder and by the STSimSiam projection heads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..graph.sensor_network import SensorNetwork
from ..nn.conv import GatedTemporalConv
from ..nn.dropout import Dropout
from ..nn.linear import Linear
from ..nn.module import Module, ModuleList
from ..tensor import Tensor
from ..tensor import functional as F
from ..utils.random import get_rng
from .gcn import AdaptiveAdjacency, DiffusionGraphConv

__all__ = ["STEncoderConfig", "STEncoder"]


@dataclass(frozen=True)
class STEncoderConfig:
    """Hyper-parameters of the STEncoder.

    The defaults are a width-reduced version of the paper's configuration
    (five layers with hidden sizes 32/32/32/32/256) so that CPU training
    stays fast; pass ``paper_scale()`` for the full-width variant.
    """

    residual_channels: int = 16
    dilation_channels: int = 16
    skip_channels: int = 32
    end_channels: int = 32
    dilations: tuple[int, ...] = (1, 2, 4)
    kernel_size: int = 2
    diffusion_order: int = 2
    adaptive_embedding_dim: int = 8
    use_adaptive: bool = True
    use_graph: bool = True
    directed: bool = False
    dropout: float = 0.1

    @staticmethod
    def paper_scale() -> "STEncoderConfig":
        """The paper's layer widths (32, 32, 32, 32, 256)."""
        return STEncoderConfig(
            residual_channels=32,
            dilation_channels=32,
            skip_channels=32,
            end_channels=256,
            dilations=(1, 2, 4, 8),
        )

    def receptive_field(self) -> int:
        """Input steps consumed by the dilated stack."""
        return 1 + sum(dilation * (self.kernel_size - 1) for dilation in self.dilations)

    def to_dict(self) -> dict:
        """JSON-serialisable form (``dilations`` becomes a list)."""
        config = asdict(self)
        config["dilations"] = list(self.dilations)
        return config

    @classmethod
    def from_dict(cls, config: "dict | STEncoderConfig") -> "STEncoderConfig":
        """Rebuild from :meth:`to_dict` output (tuples restored)."""
        if isinstance(config, cls):
            return config
        config = dict(config)
        if "dilations" in config:
            config["dilations"] = tuple(int(d) for d in config["dilations"])
        return cls(**config)


class STEncoder(Module):
    """Spatio-temporal encoder producing latent node features.

    Parameters
    ----------
    network:
        Sensor network whose adjacency defines the diffusion supports.
    in_channels:
        Number of observation channels.
    input_steps:
        Window length ``M``; must be at least the receptive field of the
        dilated stack.
    config:
        Architecture hyper-parameters.
    """

    def __init__(
        self,
        network: SensorNetwork,
        in_channels: int,
        input_steps: int,
        config: STEncoderConfig | None = None,
        rng=None,
    ):
        super().__init__()
        self.config = config or STEncoderConfig()
        if input_steps < self.config.receptive_field():
            raise ValueError(
                f"input_steps={input_steps} is shorter than the encoder receptive field "
                f"{self.config.receptive_field()}"
            )
        rng = get_rng(rng)
        self.network = network
        self.in_channels = in_channels
        self.input_steps = input_steps
        cfg = self.config
        self.latent_dim = cfg.end_channels

        self.input_proj = Linear(in_channels, cfg.residual_channels, rng=rng)
        self.adaptive = (
            AdaptiveAdjacency(network.num_nodes, cfg.adaptive_embedding_dim, rng=rng)
            if cfg.use_adaptive
            else None
        )
        # Thread the first-class CSR-backed graph through: supports, their
        # transposes and the fused multi-support stack are cached on it and
        # shared by every layer of the stack.
        adjacency = network.graph if cfg.use_graph else None

        temporal_layers = []
        graph_layers = []
        skip_layers = []
        for dilation in cfg.dilations:
            temporal_layers.append(
                GatedTemporalConv(
                    cfg.residual_channels,
                    cfg.dilation_channels,
                    kernel_size=cfg.kernel_size,
                    dilation=dilation,
                    rng=rng,
                )
            )
            graph_layers.append(
                DiffusionGraphConv(
                    cfg.dilation_channels,
                    cfg.residual_channels,
                    adjacency=adjacency,
                    diffusion_order=cfg.diffusion_order,
                    adaptive=self.adaptive,
                    directed=cfg.directed,
                    rng=rng,
                )
            )
            skip_layers.append(Linear(cfg.dilation_channels, cfg.skip_channels, rng=rng))
        self.temporal_layers = ModuleList(temporal_layers)
        self.graph_layers = ModuleList(graph_layers)
        self.skip_layers = ModuleList(skip_layers)
        self.dropout = Dropout(cfg.dropout, rng=rng)
        self.output_proj1 = Linear(cfg.skip_channels, cfg.end_channels, rng=rng)
        self.output_proj2 = Linear(cfg.end_channels, cfg.end_channels, rng=rng)

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor, adjacency=None) -> Tensor:
        """Encode ``(batch, time, nodes, channels)`` into ``(batch, nodes, latent_dim)``.

        ``adjacency`` optionally overrides the sensor graph for this call
        (augmented graph views): a :class:`repro.graph.Graph` or ``None``.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4:
            raise ValueError(f"STEncoder expects 4-d input, got {x.shape}")
        if x.shape[3] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {x.shape[3]}")
        hidden = self.input_proj(x)
        skip_total: Tensor | None = None
        for temporal, graph, skip in zip(self.temporal_layers, self.graph_layers, self.skip_layers):
            residual = hidden
            gated = temporal(hidden)
            # Skip connection: summarise this layer's gated features at the
            # most recent time step.
            skip_term = skip(gated[:, -1, :, :])
            skip_total = skip_term if skip_total is None else skip_total + skip_term
            spatial = graph(gated, adjacency=adjacency)
            spatial = self.dropout(spatial)
            # Residual: align the time axis (the gated conv shrinks it).
            offset = residual.shape[1] - spatial.shape[1]
            hidden = spatial + residual[:, offset:, :, :]
        out = F.relu(skip_total)
        out = F.relu(self.output_proj1(out))
        return self.output_proj2(out)

    def encode(self, x: Tensor, adjacency=None) -> Tensor:
        """Alias of :meth:`forward` for API symmetry with the backbones."""
        return self.forward(x, adjacency=adjacency)
