"""Shared fixtures for the test suite.

Everything is deliberately tiny (a handful of sensors, a few days of
observations, one or two epochs) so the full suite stays fast on CPU while
still exercising every code path of the library.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import TrainingConfig, URCLConfig
from repro.data.datasets import load_dataset
from repro.data.streaming import build_streaming_scenario
from repro.graph.generators import grid_network
from repro.models.stencoder import STEncoderConfig


# Per-test wall-time cap: a test whose call phase runs longer fails, so a
# hang or a slowdown shows up as a named failure rather than a stalled job.
# The slowest test takes about 11 s on a 2-core box.
CALL_SECONDS_CAP = 60.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    result = yield
    elapsed = time.perf_counter() - start
    if elapsed > CALL_SECONDS_CAP:
        pytest.fail(
            f"call took {elapsed:.1f} s; the per-test cap is {CALL_SECONDS_CAP:g} s",
            pytrace=False,
        )
    return result


@pytest.fixture
def rng():
    """Deterministic generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_network():
    """A 3x3 grid sensor network (9 nodes)."""
    return grid_network(3, 3, rng=7, name="test-grid")


@pytest.fixture
def small_series(rng, small_network):
    """A short (time, nodes, channels) series with mild structure."""
    time_steps, nodes, channels = 80, small_network.num_nodes, 2
    base = 50 + 10 * np.sin(np.linspace(0, 8 * np.pi, time_steps))[:, None]
    series = np.stack(
        [base + rng.normal(0, 1, size=(time_steps, nodes)),
         0.5 * base + rng.normal(0, 1, size=(time_steps, nodes))],
        axis=-1,
    )
    return series


@pytest.fixture
def small_observation_batch(rng, small_network):
    """A (batch, time, nodes, channels) observation batch."""
    return rng.normal(size=(4, 12, small_network.num_nodes, 2))


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tiny registered-dataset analogue (12 nodes, 4 days)."""
    return load_dataset("pems08", num_days=4, num_nodes=12, seed=3)


@pytest.fixture(scope="session")
def tiny_scenario(tiny_dataset):
    """Streaming scenario (Bset + 4 incremental sets) over the tiny dataset."""
    return build_streaming_scenario(tiny_dataset)


@pytest.fixture
def tiny_encoder_config():
    """A very small STEncoder configuration."""
    return STEncoderConfig(
        residual_channels=4,
        dilation_channels=4,
        skip_channels=8,
        end_channels=8,
        dilations=(1, 2),
        adaptive_embedding_dim=3,
    )


@pytest.fixture
def tiny_urcl_config(tiny_encoder_config):
    """URCL configuration sized for unit tests."""
    return URCLConfig(
        encoder=tiny_encoder_config,
        buffer_capacity=32,
        replay_sample_size=4,
        rmir_candidate_pool=8,
    )


@pytest.fixture
def tiny_training_config():
    """One-epoch training configuration for unit tests."""
    return TrainingConfig(
        epochs_base=1,
        epochs_incremental=1,
        batch_size=8,
        max_batches_per_epoch=2,
        eval_max_windows=16,
    )
