"""Tests for the autoencoder backbones (GraphWaveNet, DCRNN, GeoMAN) and STSimSiam."""

import numpy as np
import pytest

from repro.augmentation import AugmentationPipeline
from repro.augmentation.base import AugmentedSample
from repro.exceptions import ShapeError
from repro.models import (
    DCRNNBackbone,
    GeoMANBackbone,
    GraphWaveNetBackbone,
    STSimSiam,
)
from repro.nn.losses import mae_loss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.tensor import Tensor


@pytest.fixture
def backbone_kwargs(small_network):
    return {"network": small_network, "in_channels": 2, "input_steps": 12,
            "output_steps": 1, "out_channels": 1}


BACKBONE_CLASSES = [GraphWaveNetBackbone, DCRNNBackbone, GeoMANBackbone]


@pytest.mark.parametrize("backbone_cls", BACKBONE_CLASSES)
class TestBackboneContract:
    def test_forward_shape(self, backbone_cls, backbone_kwargs, tiny_encoder_config, rng):
        kwargs = dict(backbone_kwargs)
        if backbone_cls is GraphWaveNetBackbone:
            kwargs["encoder_config"] = tiny_encoder_config
        else:
            kwargs.update(hidden_dim=8, latent_dim=8, decoder_hidden=8)
        model = backbone_cls(rng=0, **kwargs)
        x = Tensor(rng.normal(size=(3, 12, backbone_kwargs["network"].num_nodes, 2)))
        out = model(x)
        assert out.shape == (3, 1, backbone_kwargs["network"].num_nodes, 1)

    def test_encode_shape_and_latent_dim(self, backbone_cls, backbone_kwargs, tiny_encoder_config, rng):
        kwargs = dict(backbone_kwargs)
        if backbone_cls is GraphWaveNetBackbone:
            kwargs["encoder_config"] = tiny_encoder_config
        else:
            kwargs.update(hidden_dim=8, latent_dim=8, decoder_hidden=8)
        model = backbone_cls(rng=0, **kwargs)
        x = Tensor(rng.normal(size=(2, 12, backbone_kwargs["network"].num_nodes, 2)))
        latent = model.encode(x)
        assert latent.shape == (2, backbone_kwargs["network"].num_nodes, model.latent_dim)

    def test_predict_is_numpy(self, backbone_cls, backbone_kwargs, tiny_encoder_config, rng):
        kwargs = dict(backbone_kwargs)
        if backbone_cls is GraphWaveNetBackbone:
            kwargs["encoder_config"] = tiny_encoder_config
        else:
            kwargs.update(hidden_dim=8, latent_dim=8, decoder_hidden=8)
        model = backbone_cls(rng=0, **kwargs)
        out = model.predict(rng.normal(size=(2, 12, backbone_kwargs["network"].num_nodes, 2)))
        assert isinstance(out, np.ndarray)

    def test_predict_walks_modes_only_for_a_training_model(
        self, backbone_cls, backbone_kwargs, tiny_encoder_config, rng, monkeypatch
    ):
        kwargs = dict(backbone_kwargs)
        if backbone_cls is GraphWaveNetBackbone:
            kwargs["encoder_config"] = tiny_encoder_config
        else:
            kwargs.update(hidden_dim=8, latent_dim=8, decoder_hidden=8)
        model = backbone_cls(rng=0, **kwargs)
        x = rng.normal(size=(2, 12, backbone_kwargs["network"].num_nodes, 2))
        calls = []
        train = Module.train

        def spy(self, mode=True):
            calls.append(mode)
            return train(self, mode)

        monkeypatch.setattr(Module, "train", spy)
        model.eval()
        calls.clear()
        served = model.predict(x)
        assert calls == [] and not model.training
        model.train()
        assert np.array_equal(model.predict(x), served)
        assert model.training
        assert all(module.training for module in model.modules())
        assert False in calls  # the eval walk ran, then the restore

    def test_rejects_wrong_node_count(self, backbone_cls, backbone_kwargs, tiny_encoder_config, rng):
        kwargs = dict(backbone_kwargs)
        if backbone_cls is GraphWaveNetBackbone:
            kwargs["encoder_config"] = tiny_encoder_config
        else:
            kwargs.update(hidden_dim=8, latent_dim=8, decoder_hidden=8)
        model = backbone_cls(rng=0, **kwargs)
        with pytest.raises(ShapeError):
            model(Tensor(rng.normal(size=(2, 12, 3, 2))))


class TestTrainingStep:
    def test_one_gradient_step_reduces_loss(self, small_network, tiny_encoder_config, rng):
        model = GraphWaveNetBackbone(
            small_network, in_channels=2, input_steps=12,
            encoder_config=tiny_encoder_config, rng=0,
        )
        model.eval()  # deterministic (no dropout) for a clean comparison
        x = Tensor(rng.normal(size=(8, 12, small_network.num_nodes, 2)))
        y = Tensor(rng.normal(size=(8, 1, small_network.num_nodes, 1)))
        optimizer = Adam(model.parameters(), lr=1e-2)
        first = mae_loss(model(x), y)
        model.zero_grad()
        first.backward()
        optimizer.step()
        second = mae_loss(model(x), y)
        assert second.item() < first.item()

    def test_readout_shape(self, small_network, tiny_encoder_config, rng):
        model = GraphWaveNetBackbone(
            small_network, in_channels=2, input_steps=12,
            encoder_config=tiny_encoder_config, rng=0,
        )
        latent = model.encode(Tensor(rng.normal(size=(4, 12, small_network.num_nodes, 2))))
        assert model.readout(latent).shape == (4, model.latent_dim)


class TestSTSimSiam:
    @pytest.fixture
    def simsiam(self, small_network, tiny_encoder_config):
        backbone = GraphWaveNetBackbone(
            small_network, in_channels=2, input_steps=12,
            encoder_config=tiny_encoder_config, rng=0,
        )
        return backbone, STSimSiam(backbone.encoder, latent_dim=backbone.latent_dim,
                                   projection_hidden=8, rng=1)

    def _views(self, observations, network, rng):
        pipeline = AugmentationPipeline(rng=rng)
        return pipeline(observations, network)

    def test_forward_outputs(self, simsiam, small_network, rng):
        _, model = simsiam
        observations = rng.normal(size=(4, 12, small_network.num_nodes, 2))
        first, second = self._views(observations, small_network, rng=2)
        outputs = model(first, second)
        assert outputs.p_first.shape == (4, model.latent_dim)
        assert outputs.z_first.shape == (4, model.latent_dim)

    def test_loss_is_finite_scalar(self, simsiam, small_network, rng):
        _, model = simsiam
        observations = rng.normal(size=(4, 12, small_network.num_nodes, 2))
        first, second = self._views(observations, small_network, rng=3)
        loss = model.loss(first, second)
        assert loss.size == 1 and np.isfinite(loss.item())

    def test_encoder_is_shared_with_backbone(self, simsiam):
        backbone, model = simsiam
        assert model.encoder is backbone.encoder
        # Shared parameters are not duplicated when both modules are traversed.
        combined = set(id(p) for p in backbone.parameters()) & set(
            id(p) for p in model.parameters()
        )
        assert combined  # the encoder parameters appear in both

    def test_loss_backward_updates_encoder(self, simsiam, small_network, rng):
        backbone, model = simsiam
        observations = rng.normal(size=(4, 12, small_network.num_nodes, 2))
        first, second = self._views(observations, small_network, rng=4)
        model.zero_grad()
        model.loss(first, second).backward()
        encoder_grads = [p.grad for p in backbone.encoder.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in encoder_grads)

    def test_loss_is_deterministic_in_eval_mode(self, simsiam, small_network, rng):
        backbone, model = simsiam
        backbone.eval()
        model.eval()
        observations = rng.normal(size=(6, 12, small_network.num_nodes, 2))
        view = AugmentedSample(observations.copy(), small_network.adjacency.copy(), "id")
        first = model.loss(view, view).item()
        second = model.loss(view, view).item()
        assert first == pytest.approx(second)

    def test_invalid_temperature(self, small_network, tiny_encoder_config):
        backbone = GraphWaveNetBackbone(
            small_network, in_channels=2, input_steps=12,
            encoder_config=tiny_encoder_config, rng=0,
        )
        with pytest.raises(ValueError):
            STSimSiam(backbone.encoder, latent_dim=backbone.latent_dim, temperature=0.0)
