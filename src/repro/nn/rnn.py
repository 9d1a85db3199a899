"""Recurrent cells (used by the DCRNN backbone and baseline)."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, concatenate, declare_const, stack
from ..tensor import functional as F
from ..utils.random import get_rng
from .linear import Linear
from .module import Module

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """Gated recurrent unit cell.

    Operates on inputs of shape ``(..., input_size)`` with hidden state of
    shape ``(..., hidden_size)``; leading dimensions (batch, nodes) are
    carried through untouched, which is how the recurrent traffic models
    treat every sensor as an independent sequence sharing weights.
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.update_gate = Linear(input_size + hidden_size, hidden_size, rng=rng)
        self.reset_gate = Linear(input_size + hidden_size, hidden_size, rng=rng)
        self.candidate = Linear(input_size + hidden_size, hidden_size, rng=rng)

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        combined = concatenate([x, hidden], axis=-1)
        update = F.sigmoid(self.update_gate(combined))
        reset = F.sigmoid(self.reset_gate(combined))
        candidate_input = concatenate([x, reset * hidden], axis=-1)
        candidate = F.tanh(self.candidate(candidate_input))
        return update * hidden + candidate * (1.0 - update)


class GRU(Module):
    """Unrolled GRU over the time axis of ``(batch, time, nodes, channels)``.

    Returns the full sequence of hidden states stacked on the time axis and
    the final hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, hidden: Tensor | None = None):
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4:
            raise ValueError(f"GRU expects (batch, time, nodes, channels), got {x.shape}")
        batch, time, nodes, _ = x.shape
        if hidden is None:
            hidden = declare_const(Tensor(np.zeros((batch, nodes, self.hidden_size))))
        outputs = []
        for step in range(time):
            hidden = self.cell(x[:, step, :, :], hidden)
            outputs.append(hidden)
        return stack(outputs, axis=1), hidden
