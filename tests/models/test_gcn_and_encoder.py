"""Tests for graph convolutions, the STEncoder and the STDecoder."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.models.gcn import AdaptiveAdjacency, DiffusionGraphConv
from repro.models.stdecoder import STDecoder
from repro.models.stencoder import STEncoder, STEncoderConfig
from repro.nn.losses import mae_loss
from repro.tensor import Tensor


class TestAdaptiveAdjacency:
    def test_output_is_row_stochastic(self):
        adaptive = AdaptiveAdjacency(num_nodes=7, embedding_dim=4, rng=0)
        matrix = adaptive()
        assert matrix.shape == (7, 7)
        np.testing.assert_allclose(matrix.data.sum(axis=1), np.ones(7), rtol=1e-6)
        assert (matrix.data >= 0).all()

    def test_is_learnable(self):
        adaptive = AdaptiveAdjacency(num_nodes=5, embedding_dim=3, rng=0)
        loss = adaptive().sum()
        loss.backward()
        assert adaptive.source_embedding.grad is not None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            AdaptiveAdjacency(0, 4)


class TestDiffusionGraphConv:
    def test_output_shape(self, small_network, rng):
        conv = DiffusionGraphConv(3, 5, adjacency=small_network.adjacency, rng=0)
        x = Tensor(rng.normal(size=(2, 6, small_network.num_nodes, 3)))
        assert conv(x).shape == (2, 6, small_network.num_nodes, 5)

    def test_adaptive_only_graph(self, small_network, rng):
        adaptive = AdaptiveAdjacency(small_network.num_nodes, 4, rng=0)
        conv = DiffusionGraphConv(3, 5, adjacency=None, adaptive=adaptive, rng=0)
        x = Tensor(rng.normal(size=(2, 6, small_network.num_nodes, 3)))
        assert conv(x).shape == (2, 6, small_network.num_nodes, 5)

    def test_requires_graph_or_adaptive(self):
        with pytest.raises(ValueError):
            DiffusionGraphConv(3, 5, adjacency=None, adaptive=None)

    def test_adjacency_override_changes_output(self, small_network, rng):
        conv = DiffusionGraphConv(2, 2, adjacency=small_network.adjacency, rng=0)
        x = Tensor(rng.normal(size=(1, 4, small_network.num_nodes, 2)))
        default = conv(x).data
        override = conv(x, adjacency=Graph(np.zeros_like(small_network.adjacency))).data
        assert not np.allclose(default, override)

    def test_array_override_is_rejected(self, small_network, rng):
        conv = DiffusionGraphConv(2, 2, adjacency=small_network.graph, rng=0)
        x = Tensor(rng.normal(size=(1, 4, small_network.num_nodes, 2)))
        with pytest.raises(TypeError, match="repro.graph.Graph"):
            conv(x, adjacency=small_network.adjacency)

    def test_sparse_matrix_override_is_rejected(self, small_network, rng):
        conv = DiffusionGraphConv(2, 2, adjacency=small_network.graph, rng=0)
        x = Tensor(rng.normal(size=(1, 4, small_network.num_nodes, 2)))
        with pytest.raises(TypeError, match="repro.graph.Graph"):
            conv(x, adjacency=small_network.graph.csr)

    def test_array_is_wrapped_into_a_graph(self, small_network, rng):
        # An array-built layer takes the same route as a Graph-built one, so
        # the two agree bit for bit.
        from_array = DiffusionGraphConv(2, 3, adjacency=small_network.adjacency, rng=0)
        from_graph = DiffusionGraphConv(
            2, 3, adjacency=Graph(small_network.adjacency), rng=0
        )
        assert isinstance(from_array.graph, Graph)
        x = Tensor(rng.normal(size=(2, 4, small_network.num_nodes, 2)))
        np.testing.assert_array_equal(from_array(x).data, from_graph(x).data)

    def test_graph_override_builds_supports_once(self, small_network, rng):
        from repro.graph import sparse as gs

        conv = DiffusionGraphConv(2, 2, adjacency=small_network.graph, rng=0)
        override = Graph(np.zeros_like(small_network.adjacency))
        x = Tensor(rng.normal(size=(1, 4, small_network.num_nodes, 2)))
        before = gs.support_cache_stats()["graph_support_builds"]
        first = conv(x, adjacency=override).data
        second = conv(x, adjacency=override).data
        assert gs.support_cache_stats()["graph_support_builds"] == before + 1
        np.testing.assert_array_equal(first, second)

    def test_spatial_mixing_uses_neighbours(self, rng):
        # Two disconnected components: perturbing component A must not change
        # outputs of component B.
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[2, 3] = adjacency[3, 2] = 1.0
        conv = DiffusionGraphConv(1, 1, adjacency=adjacency, rng=0)
        x = rng.normal(size=(1, 3, 4, 1))
        base = conv(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[:, :, 0, :] += 5.0
        out = conv(Tensor(perturbed)).data
        np.testing.assert_allclose(out[:, :, 2:, :], base[:, :, 2:, :])

    def test_rejects_bad_rank(self, small_network):
        conv = DiffusionGraphConv(2, 2, adjacency=small_network.adjacency, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((3, small_network.num_nodes, 2))))


class TestSTEncoderConfig:
    def test_receptive_field(self):
        config = STEncoderConfig(dilations=(1, 2, 4), kernel_size=2)
        assert config.receptive_field() == 8

    def test_paper_scale_dimensions(self):
        config = STEncoderConfig.paper_scale()
        assert config.end_channels == 256
        assert config.residual_channels == 32


class TestSTEncoder:
    def test_output_shape(self, small_network, tiny_encoder_config, rng):
        encoder = STEncoder(small_network, in_channels=2, input_steps=12,
                            config=tiny_encoder_config, rng=0)
        x = Tensor(rng.normal(size=(3, 12, small_network.num_nodes, 2)))
        out = encoder(x)
        assert out.shape == (3, small_network.num_nodes, tiny_encoder_config.end_channels)
        assert encoder.latent_dim == tiny_encoder_config.end_channels

    def test_rejects_window_shorter_than_receptive_field(self, small_network, tiny_encoder_config):
        with pytest.raises(ValueError):
            STEncoder(small_network, in_channels=2, input_steps=2, config=tiny_encoder_config)

    def test_rejects_wrong_channels(self, small_network, tiny_encoder_config, rng):
        encoder = STEncoder(small_network, in_channels=2, input_steps=12,
                            config=tiny_encoder_config, rng=0)
        with pytest.raises(ValueError):
            encoder(Tensor(rng.normal(size=(2, 12, small_network.num_nodes, 3))))

    def test_adjacency_override(self, small_network, tiny_encoder_config, rng):
        encoder = STEncoder(small_network, in_channels=2, input_steps=12,
                            config=tiny_encoder_config, rng=0)
        encoder.eval()
        x = Tensor(rng.normal(size=(1, 12, small_network.num_nodes, 2)))
        default = encoder(x).data
        perturbed = encoder(x, adjacency=Graph(np.zeros_like(small_network.adjacency))).data
        assert not np.allclose(default, perturbed)

    def test_backward_reaches_all_parameters(self, small_network, tiny_encoder_config, rng):
        encoder = STEncoder(small_network, in_channels=2, input_steps=12,
                            config=tiny_encoder_config, rng=0)
        encoder.eval()  # disable dropout so every path is active
        x = Tensor(rng.normal(size=(2, 12, small_network.num_nodes, 2)))
        encoder(x).sum().backward()
        grads = [p.grad is not None for p in encoder.parameters()]
        # All parameters receive gradients except the last block's graph
        # convolution (its output only feeds the residual path of a
        # non-existent next layer -- the same quirk exists in GraphWaveNet).
        assert sum(grads) >= len(grads) - 2

    def test_without_graph_or_adaptive_supports(self, small_network, rng):
        config = STEncoderConfig(residual_channels=4, dilation_channels=4, skip_channels=4,
                                 end_channels=4, dilations=(1, 2), use_graph=False,
                                 use_adaptive=True, adaptive_embedding_dim=3)
        encoder = STEncoder(small_network, in_channels=2, input_steps=12, config=config, rng=0)
        x = Tensor(rng.normal(size=(1, 12, small_network.num_nodes, 2)))
        assert encoder(x).shape == (1, small_network.num_nodes, 4)


class TestSTDecoder:
    def test_output_shape(self, rng):
        decoder = STDecoder(latent_dim=8, output_steps=3, out_channels=2, rng=0)
        latent = Tensor(rng.normal(size=(4, 6, 8)))
        assert decoder(latent).shape == (4, 3, 6, 2)

    def test_single_step_output(self, rng):
        decoder = STDecoder(latent_dim=8, rng=0)
        assert decoder(Tensor(rng.normal(size=(2, 5, 8)))).shape == (2, 1, 5, 1)

    def test_rejects_wrong_latent_dim(self, rng):
        decoder = STDecoder(latent_dim=8, rng=0)
        with pytest.raises(ValueError):
            decoder(Tensor(rng.normal(size=(2, 5, 4))))

    def test_rejects_wrong_rank(self, rng):
        decoder = STDecoder(latent_dim=8, rng=0)
        with pytest.raises(ValueError):
            decoder(Tensor(rng.normal(size=(2, 5, 3, 8))))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            STDecoder(latent_dim=8, output_steps=0)

    def test_trainable_end_to_end(self, small_network, tiny_encoder_config, rng):
        encoder = STEncoder(small_network, in_channels=2, input_steps=12,
                            config=tiny_encoder_config, rng=0)
        decoder = STDecoder(latent_dim=encoder.latent_dim, rng=0)
        x = Tensor(rng.normal(size=(2, 12, small_network.num_nodes, 2)))
        y = Tensor(rng.normal(size=(2, 1, small_network.num_nodes, 1)))
        loss = mae_loss(decoder(encoder(x)), y)
        loss.backward()
        assert decoder.output.weight.grad is not None
