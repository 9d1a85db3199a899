"""Tests for STMixup and the RMIR / random replay samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BufferError_, ShapeError
from repro.graph import grid_network
from repro.models.graphwavenet import GraphWaveNetBackbone
from repro.models.stencoder import STEncoderConfig
from repro.nn.losses import mae_loss
from repro.replay import RandomSampler, ReplayBuffer, RMIRSampler, STMixup, pearson_similarity
from repro.tensor import Tensor, no_grad


@pytest.fixture
def batch(rng, small_network):
    inputs = rng.normal(size=(6, 12, small_network.num_nodes, 2))
    targets = rng.normal(size=(6, 1, small_network.num_nodes, 1))
    return inputs, targets


@pytest.fixture
def filled_buffer(rng, small_network):
    buffer = ReplayBuffer(capacity=32, rng=rng)
    inputs = rng.normal(size=(20, 12, small_network.num_nodes, 2))
    targets = rng.normal(size=(20, 1, small_network.num_nodes, 1))
    buffer.add_batch(inputs, targets, set_name="Bset")
    return buffer


@pytest.fixture
def tiny_backbone(small_network, tiny_encoder_config):
    return GraphWaveNetBackbone(
        small_network, in_channels=2, input_steps=12, encoder_config=tiny_encoder_config, rng=0
    )


class TestSTMixup:
    def test_lambda_from_beta(self):
        mixup = STMixup(alpha=0.4, rng=0)
        lams = [mixup.sample_lambda() for _ in range(100)]
        assert all(0.0 <= lam <= 1.0 for lam in lams)

    def test_interpolation_formula(self, batch):
        inputs, targets = batch
        replay_inputs = np.zeros_like(inputs[:2])
        replay_targets = np.zeros_like(targets[:2])
        mixup = STMixup(alpha=0.4, rng=0)
        result = mixup(inputs, targets, replay_inputs, replay_targets, lam=0.25)
        np.testing.assert_allclose(result.inputs, 0.25 * inputs)
        np.testing.assert_allclose(result.targets, 0.25 * targets)
        assert result.lam == 0.25

    def test_no_replay_returns_current(self, batch):
        inputs, targets = batch
        result = STMixup(rng=0)(inputs, targets, None, None)
        np.testing.assert_allclose(result.inputs, inputs)
        assert result.lam == 1.0

    def test_output_shape_matches_current_batch(self, batch, filled_buffer):
        inputs, targets = batch
        replay_inputs, replay_targets = filled_buffer.sample_random(3)
        result = STMixup(rng=0)(inputs, targets, replay_inputs, replay_targets)
        assert result.inputs.shape == inputs.shape
        assert result.targets.shape == targets.shape

    def test_shape_mismatch_raises(self, batch):
        inputs, targets = batch
        with pytest.raises(ShapeError):
            STMixup(rng=0)(inputs, targets, np.zeros((2, 12, 3, 2)), np.zeros((2, 1, 3, 1)))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            STMixup(alpha=0.0)

    def test_mixup_is_convex_combination(self, batch, filled_buffer):
        inputs, targets = batch
        replay_inputs, replay_targets = filled_buffer.sample_random(6)
        result = STMixup(rng=1)(inputs, targets, replay_inputs, replay_targets)
        upper = np.maximum(inputs.max(), replay_inputs.max())
        lower = np.minimum(inputs.min(), replay_inputs.min())
        assert result.inputs.max() <= upper + 1e-9
        assert result.inputs.min() >= lower - 1e-9


class TestPearsonSimilarity:
    def test_identical_window_scores_one(self, rng):
        window = rng.normal(size=(12, 4, 2))
        scores = pearson_similarity(window[None], window)
        assert scores[0] == pytest.approx(1.0)

    def test_anti_correlated_scores_minus_one(self, rng):
        window = rng.normal(size=(12, 4, 2))
        scores = pearson_similarity((-window)[None], window)
        assert scores[0] == pytest.approx(-1.0)

    def test_shape(self, rng):
        scores = pearson_similarity(rng.normal(size=(7, 12, 4, 2)), rng.normal(size=(12, 4, 2)))
        assert scores.shape == (7,)


class TestRandomSampler:
    def test_sample_size(self, batch, filled_buffer):
        inputs, targets = batch
        sampled_inputs, sampled_targets = RandomSampler(rng=0).sample(
            filled_buffer, inputs, targets, sample_size=4
        )
        assert sampled_inputs.shape[0] == 4
        assert sampled_targets.shape[0] == 4

    def test_empty_buffer_raises(self, batch):
        inputs, targets = batch
        with pytest.raises(BufferError_):
            RandomSampler(rng=0).sample(ReplayBuffer(capacity=4), inputs, targets, 2)


class TestRMIRSampler:
    def test_sample_shapes(self, batch, filled_buffer, tiny_backbone):
        inputs, targets = batch
        sampler = RMIRSampler(candidate_pool=8, rng=0)
        sampled_inputs, sampled_targets = sampler.sample(
            filled_buffer, inputs, targets, sample_size=3,
            model=tiny_backbone, loss_fn=mae_loss,
        )
        assert sampled_inputs.shape[0] == 3
        assert sampled_targets.shape[0] == 3

    def test_parameters_restored_after_virtual_step(self, batch, filled_buffer, tiny_backbone):
        inputs, targets = batch
        before = {name: value.copy() for name, value in tiny_backbone.state_dict().items()}
        RMIRSampler(candidate_pool=8, rng=0).sample(
            filled_buffer, inputs, targets, 3, model=tiny_backbone, loss_fn=mae_loss
        )
        after = tiny_backbone.state_dict()
        for name in before:
            np.testing.assert_allclose(before[name], after[name])

    def test_no_model_falls_back_to_random(self, batch, filled_buffer):
        inputs, targets = batch
        sampled_inputs, _ = RMIRSampler(rng=0).sample(filled_buffer, inputs, targets, 2)
        assert sampled_inputs.shape[0] == 2

    def test_sample_size_capped_by_buffer(self, batch, tiny_backbone, rng, small_network):
        buffer = ReplayBuffer(capacity=4, rng=rng)
        buffer.add_batch(
            rng.normal(size=(2, 12, small_network.num_nodes, 2)),
            rng.normal(size=(2, 1, small_network.num_nodes, 1)),
        )
        inputs, targets = (
            rng.normal(size=(3, 12, small_network.num_nodes, 2)),
            rng.normal(size=(3, 1, small_network.num_nodes, 1)),
        )
        sampled_inputs, _ = RMIRSampler(candidate_pool=8, rng=0).sample(
            buffer, inputs, targets, 5, model=tiny_backbone, loss_fn=mae_loss
        )
        assert sampled_inputs.shape[0] == 2

    def test_empty_buffer_raises(self, batch, tiny_backbone):
        inputs, targets = batch
        with pytest.raises(BufferError_):
            RMIRSampler(rng=0).sample(
                ReplayBuffer(capacity=4), inputs, targets, 2,
                model=tiny_backbone, loss_fn=mae_loss,
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RMIRSampler(virtual_lr=0.0)
        with pytest.raises(ValueError):
            RMIRSampler(candidate_pool=0)

    def test_prefers_similar_interfered_windows(self, rng, small_network, tiny_backbone):
        # Build a buffer where half the windows equal the current batch mean
        # (maximally similar) and half are pure noise; the sampler should
        # prefer the similar ones among equally interfered candidates.
        nodes = small_network.num_nodes
        current = np.tile(np.linspace(0, 1, 12)[:, None, None], (1, nodes, 2))[None]
        current_targets = np.ones((1, 1, nodes, 1))
        buffer = ReplayBuffer(capacity=16, rng=rng)
        for _ in range(8):
            buffer.add(current[0] + rng.normal(0, 0.01, size=current[0].shape), current_targets[0])
        for _ in range(8):
            buffer.add(rng.normal(size=current[0].shape), current_targets[0])
        sampler = RMIRSampler(candidate_pool=16, interfered_pool=16, rng=0)
        sampled_inputs, _ = sampler.sample(
            buffer, current, current_targets, 4, model=tiny_backbone, loss_fn=mae_loss
        )
        similarities = pearson_similarity(sampled_inputs, current[0])
        assert (similarities > 0.5).all()

    @staticmethod
    def _reference_sample(sampler, buffer, inputs, targets, sample_size, model, loss_fn):
        """The sampler as it stood before the snapshot-buffer rewrite (fresh
        ``parameter.data.copy()`` per step, update outside the ``try``), kept
        as the oracle for RNG stream, chosen windows and parameter bits."""
        def per_sample_loss(batch_inputs, batch_targets):
            with no_grad():
                predictions = model.forward(Tensor(batch_inputs))
                errors = np.abs(predictions.data - batch_targets)
                return errors.reshape(errors.shape[0], -1).mean(axis=1)

        sample_size = min(sample_size, len(buffer))
        pool_size = min(sampler.candidate_pool, len(buffer))
        candidate_indices = sampler._rng.choice(len(buffer), size=pool_size, replace=False)
        candidate_inputs, candidate_targets = buffer.get(candidate_indices)
        losses_before = per_sample_loss(candidate_inputs, candidate_targets)
        model.zero_grad()
        predictions = model.forward(Tensor(inputs))
        loss_fn(predictions, Tensor(targets)).backward()
        saved = []
        for parameter in model.parameters():
            saved.append(parameter.data.copy())
            if parameter.grad is not None:
                parameter.data -= sampler.virtual_lr * parameter.grad
        model.zero_grad()
        losses_after = per_sample_loss(candidate_inputs, candidate_targets)
        for parameter, original in zip(model.parameters(), saved):
            parameter.data[...] = original
        interference = losses_after - losses_before
        interfered_pool = sampler.interfered_pool or max(2 * sample_size, sample_size)
        most_interfered = np.argsort(-interference)[: min(interfered_pool, pool_size)]
        similarity = pearson_similarity(
            candidate_inputs[most_interfered], inputs.mean(axis=0)
        )
        ranked = most_interfered[np.argsort(-similarity)][:sample_size]
        return buffer.get(candidate_indices[ranked])

    def test_bit_identical_to_reference_sampler(
        self, batch, filled_buffer, small_network, tiny_encoder_config
    ):
        inputs, targets = batch

        def drive(sample):
            model = GraphWaveNetBackbone(
                small_network, in_channels=2, input_steps=12,
                encoder_config=tiny_encoder_config, rng=0,
            )
            sampler = RMIRSampler(candidate_pool=12, rng=7)
            picks = [
                sample(sampler, filled_buffer, inputs + shift, targets, 3, model, mae_loss)
                for shift in (0.0, 0.5, -0.25)  # reuses the snapshot buffers
            ]
            return picks, model.state_dict(), sampler._rng.random()

        reference = drive(self._reference_sample)
        current = drive(
            lambda sampler, buffer, x, y, size, model, loss_fn: sampler.sample(
                buffer, x, y, size, model=model, loss_fn=loss_fn
            )
        )
        for (ref_x, ref_y), (new_x, new_y) in zip(reference[0], current[0]):
            assert np.array_equal(ref_x, new_x) and np.array_equal(ref_y, new_y)
        for name, value in reference[1].items():
            assert np.array_equal(value, current[1][name]), name
        assert reference[2] == current[2]  # same RNG stream position

    def test_parameters_restored_when_virtual_step_fails(
        self, batch, filled_buffer, tiny_backbone
    ):
        """A failure after the in-place update must not leave the model stepped."""
        inputs, targets = batch
        before = {name: value.copy() for name, value in tiny_backbone.state_dict().items()}
        real_zero_grad, calls = tiny_backbone.zero_grad, []

        def failing_zero_grad():
            calls.append(None)
            if len(calls) == 2:  # the call that follows the parameter update
                raise RuntimeError("boom")
            real_zero_grad()

        tiny_backbone.zero_grad = failing_zero_grad
        try:
            with pytest.raises(RuntimeError, match="boom"):
                RMIRSampler(candidate_pool=8, rng=0).sample(
                    filled_buffer, inputs, targets, 3, model=tiny_backbone, loss_fn=mae_loss
                )
        finally:
            del tiny_backbone.zero_grad
        for name, value in tiny_backbone.state_dict().items():
            assert np.array_equal(before[name], value), name


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1.0))
def test_mixup_endpoints_property(lam):
    current = np.ones((2, 4, 3, 1))
    replay = np.zeros((2, 4, 3, 1))
    result = STMixup(rng=0)(current, current[:, :1], replay, replay[:, :1], lam=lam)
    np.testing.assert_allclose(result.inputs, lam * current)
