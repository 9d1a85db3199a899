"""Model interfaces shared by the URCL backbone and the baselines."""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..graph.sensor_network import SensorNetwork
from ..nn.module import Module
from ..tensor import Tensor, get_default_dtype, no_grad, run_compiled
from ..tensor import partition

__all__ = ["STModel", "AutoencoderBackbone"]


class STModel(Module):
    """Base class for spatio-temporal predictors.

    A predictor consumes a window of ``input_steps`` observations over a
    fixed sensor network ``(batch, input_steps, nodes, in_channels)`` and
    produces ``(batch, output_steps, nodes, out_channels)`` predictions.
    """

    def __init__(
        self,
        network: SensorNetwork,
        in_channels: int,
        input_steps: int,
        output_steps: int = 1,
        out_channels: int = 1,
    ):
        super().__init__()
        self.network = network
        self.in_channels = in_channels
        self.input_steps = input_steps
        self.output_steps = output_steps
        self.out_channels = out_channels

    # ------------------------------------------------------------------ #
    def check_input(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4:
            raise ShapeError(f"expected (batch, time, nodes, channels), got {x.shape}")
        if x.shape[2] != self.network.num_nodes:
            # Under memory-sharded inference each shard feeds only its owned
            # node rows; the node check relaxes to the shard's local width.
            ctx = partition.active_context()
            if (
                ctx is None
                or not ctx.matches(self.network.num_nodes)
                or x.shape[2] != ctx.local_nodes
            ):
                raise ShapeError(
                    f"expected {self.network.num_nodes} nodes, got {x.shape[2]}"
                )
        if x.shape[3] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} channels, got {x.shape[3]}")
        return x

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Declarative construction (model registry)
    # ------------------------------------------------------------------ #
    def extra_config(self) -> dict:
        """Sub-class hook: architecture hyper-parameters beyond the shapes.

        Keys must match the constructor keyword arguments so the default
        :meth:`from_config` can rebuild the model with ``cls(network,
        **config)``.
        """
        return {}

    def to_config(self) -> dict:
        """Declarative architecture description (JSON-serialisable).

        ``build_model(name, model.to_config(), network)`` reconstructs an
        identical architecture; the config deliberately excludes parameter
        values (those travel via ``state_dict``) and the network (graphs
        are shared, heavyweight objects passed explicitly).
        """
        config = {
            "in_channels": self.in_channels,
            "input_steps": self.input_steps,
            "output_steps": self.output_steps,
            "out_channels": self.out_channels,
        }
        config.update(self.extra_config())
        return config

    @classmethod
    def from_config(cls, config: dict, network: SensorNetwork | None = None, rng=None) -> "STModel":
        """Build a model from a :meth:`to_config` dict and a sensor network."""
        if network is None:
            raise ConfigurationError(f"{cls.__name__}.from_config requires a sensor network")
        return cls(network, rng=rng, **config)

    def predict(self, inputs: np.ndarray, graph=None) -> np.ndarray:
        """Numpy-in / numpy-out inference.

        Runs in evaluation mode (dropout disabled) without building an
        autograd graph; the previous training/evaluation mode is restored
        afterwards.  ``graph`` optionally overrides the sensor graph for
        this call (a :class:`repro.graph.Graph`); models whose ``forward``
        does not take a graph override reject it.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                x = Tensor(np.asarray(inputs, dtype=get_default_dtype()))
                if graph is None:
                    outputs = run_compiled(self, self.forward, x, kind="predict")
                else:
                    outputs = run_compiled(
                        self,
                        lambda t: self.forward(t, graph=graph),
                        x,
                        graph=graph,
                        kind="predict",
                    )
        finally:
            if was_training:
                self.train(True)
        return outputs.data


class AutoencoderBackbone(STModel):
    """A predictor structured as STEncoder + STDecoder (Sec. IV-D).

    Sub-classes implement :meth:`encode` (returning latent node features of
    shape ``(batch, nodes, latent_dim)``) and :meth:`decode`.  The URCL
    framework plugs any such backbone in: the encoder is shared with the
    STSimSiam branches, the decoder produces predictions, and the latent
    dimension is exposed for the projection heads.
    """

    latent_dim: int

    def encode(self, x: Tensor, adjacency=None) -> Tensor:
        """Map observations to latent node features ``(batch, nodes, latent_dim)``.

        ``adjacency`` optionally overrides the network graph — a
        :class:`repro.graph.Graph` (preferred) or dense array — required
        because the spatial augmentations perturb the graph per view.
        """
        raise NotImplementedError

    def decode(self, latent: Tensor) -> Tensor:
        """Map latent node features to predictions."""
        raise NotImplementedError

    def forward(self, x: Tensor, graph=None) -> Tensor:
        x = self.check_input(x)
        return self.decode(self.encode(x, adjacency=graph))

    def readout(self, latent: Tensor) -> Tensor:
        """Pool latent node features into one vector per sample.

        Used by the STSimSiam branches, whose contrastive loss operates on a
        single representation per augmented observation (Eq. 12–16).
        """
        return latent.mean(axis=1)
