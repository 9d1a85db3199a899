"""``Tensor.backward`` frees the graph as it goes.

Each interior node drops its gradient, closure and parent links once its
closure has run, so a second backward through the freed graph must fail
loudly instead of returning partial leaf gradients, and one URCL step's
backward must never hold the forward tape and a second tape of interior
gradients at the same time.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.urcl import URCLModel
from repro.graph.generators import grid_network
from repro.tensor import Tensor, default_dtype


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


def _graph_arrays(root):
    """Yield the data array of every tensor in ``root``'s graph once."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node.data
        stack.extend(node._parents)


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
            loss = model.training_step(inputs + 0.5, targets).total_loss
            tape = tracemalloc.get_traced_memory()[0] - start
            largest = max(array.nbytes for array in _graph_arrays(loss))
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
