"""Dense-vs-sparse equivalence for every model migrated to the CSR kernel.

Each model is built twice from the same seed — once with supports forced
dense (the seed behaviour) and once with supports forced CSR — and must
produce identical outputs and parameter gradients to float32 tolerance.
"""

import numpy as np
import pytest

from repro.graph import sparse as gs
from repro.models.baselines.agcrn import AGCRN
from repro.models.baselines.mtgnn import MTGNN
from repro.models.baselines.stgcn import STGCN
from repro.models.baselines.stgode import STGODE
from repro.models.dcrnn import DCRNNBackbone
from repro.models.gcn import DiffusionGraphConv
from repro.models.graphwavenet import GraphWaveNetBackbone
from repro.models.stencoder import STEncoderConfig
from repro.tensor import Tensor, default_dtype

TOLERANCE = dict(rtol=1e-5, atol=1e-6)


@pytest.fixture(autouse=True)
def fresh_cache():
    gs.clear_support_cache()
    yield
    gs.clear_support_cache()


def _build(factory, mode):
    with gs.spatial_mode(mode):
        model = factory()
    model.eval()
    return model


def _forward_and_grads(model, mode, x_data):
    with gs.spatial_mode(mode):
        x = Tensor(x_data)
        out = model(x)
        model.zero_grad()
        (out * out).sum().backward()
    grads = {name: p.grad for name, p in model.named_parameters() if p.grad is not None}
    return out.data, grads


def _assert_equivalent(factory, x_data):
    dense_model = _build(factory, "dense")
    sparse_model = _build(factory, "sparse")
    dense_out, dense_grads = _forward_and_grads(dense_model, "dense", x_data)
    sparse_out, sparse_grads = _forward_and_grads(sparse_model, "sparse", x_data)
    np.testing.assert_allclose(sparse_out, dense_out, **TOLERANCE)
    assert set(dense_grads) == set(sparse_grads)
    for name, dense_grad in dense_grads.items():
        np.testing.assert_allclose(
            sparse_grads[name], dense_grad, err_msg=name, **TOLERANCE
        )


def _batch(rng, network, channels=2, steps=12, batch=2):
    return rng.normal(size=(batch, steps, network.num_nodes, channels))


def test_diffusion_graph_conv(small_network, rng):
    x = rng.normal(size=(2, 4, small_network.num_nodes, 3))
    _assert_equivalent(
        lambda: DiffusionGraphConv(3, 5, adjacency=small_network.adjacency, rng=0), x
    )


def test_diffusion_graph_conv_directed(small_network, rng):
    x = rng.normal(size=(2, 4, small_network.num_nodes, 3))
    _assert_equivalent(
        lambda: DiffusionGraphConv(
            3, 4, adjacency=small_network.adjacency, directed=True, rng=0
        ),
        x,
    )


def test_graphwavenet(small_network, tiny_encoder_config, rng):
    x = _batch(rng, small_network)
    _assert_equivalent(
        lambda: GraphWaveNetBackbone(
            small_network, in_channels=2, encoder_config=tiny_encoder_config, rng=0
        ),
        x,
    )


def test_dcrnn(small_network, rng):
    x = _batch(rng, small_network)
    _assert_equivalent(
        lambda: DCRNNBackbone(
            small_network, in_channels=2, hidden_dim=8, latent_dim=8,
            decoder_hidden=8, rng=0,
        ),
        x,
    )


def test_stgcn(small_network, rng):
    x = _batch(rng, small_network)
    _assert_equivalent(
        lambda: STGCN(small_network, in_channels=2, hidden_dim=8, cheb_order=3, rng=0), x
    )


def test_chebyshev_auto_mode_matches_dense(rng):
    # A graph sparse enough that auto mode mixes CSR and dense basis members
    # (the recurrence densifies mid-chain).
    from repro.models.baselines.stgcn import ChebGraphConv

    num_nodes = 120
    adjacency = np.where(rng.random((num_nodes, num_nodes)) < 0.03,
                         rng.random((num_nodes, num_nodes)), 0.0)
    adjacency = np.maximum(adjacency, adjacency.T)
    x_data = rng.normal(size=(2, 3, num_nodes, 4))
    with gs.spatial_mode("dense"):
        dense_conv = ChebGraphConv(4, 5, adjacency, order=4, rng=0)
        dense_out = dense_conv(Tensor(x_data)).data
    with gs.spatial_mode("auto"):
        auto_conv = ChebGraphConv(4, 5, adjacency, order=4, rng=0)
        auto_out = auto_conv(Tensor(x_data)).data
    np.testing.assert_allclose(auto_out, dense_out, **TOLERANCE)


def test_stgode(small_network, rng):
    x = _batch(rng, small_network)
    _assert_equivalent(
        lambda: STGODE(small_network, in_channels=2, hidden_dim=8, rng=0), x
    )


def test_mtgnn(small_network, rng):
    x = _batch(rng, small_network)
    _assert_equivalent(
        lambda: MTGNN(small_network, in_channels=2, hidden_dim=8, rng=0), x
    )


def test_agcrn(small_network, rng):
    x = _batch(rng, small_network)
    _assert_equivalent(
        lambda: AGCRN(small_network, in_channels=2, hidden_dim=8, rng=0), x
    )


def test_equivalence_holds_at_float32(small_network, rng):
    with default_dtype("float32"):
        x = rng.normal(size=(2, 4, small_network.num_nodes, 3)).astype(np.float32)
        _assert_equivalent(
            lambda: DiffusionGraphConv(3, 5, adjacency=small_network.adjacency, rng=0),
            x,
        )


class TestFloat32Purity:
    """Satellite regression: support construction must not upcast f32 runs."""

    def test_no_float64_activations_or_grads(self, small_network, rng):
        with default_dtype("float32"):
            conv = DiffusionGraphConv(2, 3, adjacency=small_network.adjacency, rng=0)
            assert all(
                s.dtype == np.float32 for s in conv.graph.conv_supports(2)
            )
            x = Tensor(rng.normal(size=(2, 4, small_network.num_nodes, 2)),
                       requires_grad=True)
            out = conv(x)
            assert out.dtype == np.float32
            out.sum().backward()
            assert x.grad.dtype == np.float32
            assert all(p.grad.dtype == np.float32 for p in conv.parameters())

    def test_encoder_forward_stays_float32(self, small_network, tiny_encoder_config, rng):
        with default_dtype("float32"):
            backbone = GraphWaveNetBackbone(
                small_network, in_channels=2, encoder_config=tiny_encoder_config, rng=0
            )
            backbone.eval()
            out = backbone(Tensor(rng.normal(size=(2, 12, small_network.num_nodes, 2))))
            assert out.dtype == np.float32
