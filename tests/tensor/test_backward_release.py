"""The autograd graph keeps only what backward reads, and frees it as it goes.

A forward leaves nodes plus the arrays their VJPs saved, so an intermediate
no VJP reads dies with its tensor.  Each interior node drops its gradient,
VJPs and parent links once they have run, so a second backward through the
freed graph must fail loudly instead of returning partial leaf gradients,
and one URCL step's backward must never hold the forward tape and a second
tape of interior gradients at the same time.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.urcl import URCLModel
from repro.graph.generators import grid_network
from repro.tensor import Tensor, default_dtype, track_activations


class TestSecondBackward:
    def test_second_backward_through_freed_graph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = (x * 3.0).exp()
        loss = hidden.sum()
        loss.backward()
        assert hidden.grad is None  # interior: freed once consumed
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="second time"):
            loss.backward()
        assert np.array_equal(x.grad, first)  # nothing partial leaked in

    def test_new_root_over_freed_subgraph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        shared = x * 2.0
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="second time"):
            (shared * shared).sum().backward()


class TestSavedArrays:
    """The graph holds autograd nodes and the arrays their VJPs read, never an
    intermediate's ``.data``: what no backward reads dies with its tensor."""

    def _leaves(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        return x, w, b

    def test_matmul_output_read_only_by_add_dies(self):
        x, w, b = self._leaves()
        product = x @ w
        unread = weakref.ref(product.data)
        hidden = (product + b).tanh()
        saved = weakref.ref(hidden.data)  # tanh's VJP reads its output
        loss = hidden.sum()
        del product, hidden
        assert unread() is None
        assert saved() is not None
        loss.backward()
        assert saved() is None

    def test_mul_keeps_no_array_for_a_constant_operand(self):
        x, w, _ = self._leaves()
        product = x @ w
        unread = weakref.ref(product.data)
        mask = Tensor(np.random.default_rng(1).random((4, 5)) < 0.5)
        loss = (product * mask).sum()  # the dropout pattern
        del product
        assert unread() is None
        loss.backward()
        assert np.array_equal(w.grad, x.data.T @ mask.data)


def _urcl_step_tape_bytes() -> int:
    """Traced bytes one URCL step's forward leaves for its backward."""
    with default_dtype("float32"):
        network = grid_network(7, 8, rng=3)
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((16, 12, network.num_nodes, 2))
        targets = rng.standard_normal((16, 1, network.num_nodes, 1))
        model = URCLModel(network, in_channels=2, input_steps=12, rng=1)
        model.buffer.add_batch(inputs, targets)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            loss = model.training_step(inputs + 0.5, targets).total_loss
            tape = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
    assert loss.requires_grad
    return tape


def test_urcl_step_tape_keeps_only_saved_arrays():
    """A graph whose nodes hold their parent tensors keeps every intermediate
    of the step's forwards alive until backward: 122.8 MiB for this fixture.
    Keeping only what the VJPs read must at least halve that."""
    assert _urcl_step_tape_bytes() <= 0.5 * 122.8 * 2**20


def test_urcl_step_backward_peak_memory_is_bounded():
    """Peak traced memory of one URCL step's backward (GraphWaveNet, N=56,
    B=16, float32) stays below forward-tape bytes + parameter bytes + the
    largest single temporary.  A backward that keeps every interior gradient
    until it returns peaks near twice the tape."""
    with default_dtype("float32"):
        network = grid_network(7, 8, rng=3)
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((16, 12, network.num_nodes, 2))
        targets = rng.standard_normal((16, 1, network.num_nodes, 1))
        model = URCLModel(network, in_channels=2, input_steps=12, rng=1)
        model.buffer.add_batch(inputs, targets)  # replay on: all three forwards
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            with track_activations() as activations:
                loss = model.training_step(inputs + 0.5, targets).total_loss
            tape = tracemalloc.get_traced_memory()[0] - start
            largest = activations.largest_bytes
            parameters = sum(p.data.nbytes for p in model.parameters())
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    bound = tape + parameters + largest
    assert peak <= bound, (
        f"backward peaked at {peak / 2**20:.1f} MiB; tape {tape / 2**20:.1f} + "
        f"parameters {parameters / 2**20:.2f} + largest {largest / 2**20:.2f} MiB"
    )
