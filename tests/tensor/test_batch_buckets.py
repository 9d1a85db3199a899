"""The batch-bucket rule of ``run_compiled``.

A compiled (eval-mode ``no_grad``) forward runs at its batch bucket, the
next power of two: the batch is padded by repeating its last row, the
bucket's program replays, and the first rows come back.  That is invisible
only if every row's bits depend on that row alone, so the guard below runs
every zoo model and URCL at both precisions over every batch size from 1 to
17 and holds each compiled predict to the eager forward bit for bit.
"""

import numpy as np
import pytest

import repro  # noqa: F401 - registers the model zoo
from repro.core.urcl import URCLModel
from repro.models.registry import build_model
from repro.nn.module import Module, Parameter
from repro.tensor import (
    Tensor,
    batch_bucket,
    clear_program_cache,
    default_dtype,
    no_grad,
    program_cache_stats,
    run_compiled,
    traced_execution,
)
from repro.tensor import trace

ZOO = ("graphwavenet", "dcrnn", "geoman", "stgcn", "mtgnn", "agcrn", "stgode")
SHAPES = {"in_channels": 2, "input_steps": 12, "output_steps": 3, "out_channels": 1}
MAX_BATCH = 17


@pytest.fixture(autouse=True)
def fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


def _build(name, network):
    if name == "urcl":
        return URCLModel(network, rng=1, **SHAPES)
    return build_model(name, dict(SHAPES), network, rng=1)


class TestBucketRule:
    def test_next_power_of_two(self):
        assert [batch_bucket(rows) for rows in range(10)] == [0, 1, 2, 4, 4, 8, 8, 8, 8, 16]
        assert (batch_bucket(16), batch_bucket(17), batch_bucket(32)) == (16, 32, 32)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ZOO + ("urcl",))
def test_every_batch_size_replays_eager_bits(small_network, name, dtype):
    """Compiled predict == eager forward for B in 1..17, one capture per bucket."""
    with default_dtype(dtype):
        model = _build(name, small_network)
        windows = np.random.default_rng(3).standard_normal(
            (MAX_BATCH, SHAPES["input_steps"], small_network.num_nodes, SHAPES["in_channels"])
        )
        for rows in range(1, MAX_BATCH + 1):
            x = windows[:rows]
            with traced_execution(False):
                eager = model.predict(x)
            compiled = model.predict(x)
            assert compiled.shape == eager.shape
            assert np.array_equal(compiled, eager), f"{name} {dtype} B={rows}"
    buckets = {batch_bucket(rows) for rows in range(1, MAX_BATCH + 1)}
    stats = program_cache_stats()
    assert stats["untraceable"] == 0
    assert stats["captures"] == len(buckets)
    assert stats["replays"] == MAX_BATCH - len(buckets)


class _Scale(Module):
    """``x * weight`` that keeps the tensor each call was handed."""

    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.array([1.5, -2.0]))
        self.seen = []

    def forward(self, x):
        self.seen.append(x)
        return x * self.weight


def _run(model, x):
    with no_grad():
        return run_compiled(model, model.forward, Tensor(x), kind="predict").data


class TestPadding:
    def test_capture_sees_the_last_row_repeated_and_returns_the_real_rows(self):
        model = _Scale().eval()
        x = np.arange(6.0).reshape(3, 2)
        out = _run(model, x)
        (seen,) = model.seen
        assert seen.shape == (4, 2)
        assert np.array_equal(seen.data[:3], x) and np.array_equal(seen.data[3], x[2])
        assert np.array_equal(out, x * model.weight.data)

    def test_replay_pads_straight_into_the_input_slot(self):
        model = _Scale().eval()
        _run(model, np.zeros((3, 2)))
        x = np.arange(6.0).reshape(3, 2) + 1.0
        out = _run(model, x)
        assert program_cache_stats()["replays"] == 1 and len(model.seen) == 1
        (entry,) = trace._MODEL_CACHE[model].values()
        (instance,) = entry.instances
        slot = instance.env[instance.structure.input_slot]
        assert np.array_equal(slot, np.concatenate([x, x[2:]]))
        assert out.shape == (3, 2) and np.array_equal(out, x * model.weight.data)

    def test_exact_fit_runs_the_callers_tensor(self):
        model = _Scale().eval()
        x = Tensor(np.ones((4, 2)))
        with no_grad():
            run_compiled(model, model.forward, x, kind="predict")
        assert model.seen[0] is x

    def test_calls_that_do_not_compile_are_not_padded(self):
        model = _Scale()
        x = Tensor(np.ones((3, 2)))
        run_compiled(model, model.forward, x, kind="train")  # grad mode
        with no_grad():
            run_compiled(model, model.forward, x, kind="rmir")  # training mode
            model.eval()
            with traced_execution(False):
                run_compiled(model, model.forward, x, kind="predict")
        assert [seen.shape[0] for seen in model.seen] == [3, 3, 3]
        assert program_cache_stats()["captures"] == 0
