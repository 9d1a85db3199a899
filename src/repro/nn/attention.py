"""Attention primitives (used by the GeoMAN-style backbone)."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from ..tensor import partition
from ..utils.random import get_rng
from .linear import Linear
from .module import Module

__all__ = ["ScaledDotProductAttention", "TemporalAttention", "SpatialAttention"]


class ScaledDotProductAttention(Module):
    """Standard ``softmax(QK^T / sqrt(d)) V`` attention over the -2 axis."""

    def forward(self, query: Tensor, key: Tensor, value: Tensor) -> Tensor:
        d_k = query.shape[-1]
        scores = (query @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_k))
        weights = F.softmax(scores, axis=-1)
        return weights @ value


class TemporalAttention(Module):
    """Attention over the time axis of ``(batch, time, nodes, channels)``.

    Each node attends over its own history; queries, keys and values are
    linear projections of the inputs, following the multi-level attention of
    GeoMAN in a simplified single-head form.
    """

    def __init__(self, channels: int, attention_dim: int | None = None, rng=None):
        super().__init__()
        rng = get_rng(rng)
        attention_dim = attention_dim or channels
        self.query_proj = Linear(channels, attention_dim, rng=rng)
        self.key_proj = Linear(channels, attention_dim, rng=rng)
        self.value_proj = Linear(channels, channels, rng=rng)
        self.attention = ScaledDotProductAttention()

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4:
            raise ValueError(f"TemporalAttention expects 4-d input, got {x.shape}")
        # Move nodes before time so attention mixes the time axis per node:
        # (batch, nodes, time, channels)
        per_node = x.transpose(0, 2, 1, 3)
        query = self.query_proj(per_node)
        key = self.key_proj(per_node)
        value = self.value_proj(per_node)
        attended = self.attention(query, key, value)
        return attended.transpose(0, 2, 1, 3)


class SpatialAttention(Module):
    """Attention over the node axis of ``(batch, time, nodes, channels)``.

    Captures global (non-local) spatial correlations, analogous to the
    global spatial attention stream of GeoMAN.  Every node attends over every
    node, so under memory-sharded inference the shard attends over the
    full-width gather of its input and keeps its own rows.
    """

    def __init__(self, channels: int, attention_dim: int | None = None, rng=None):
        super().__init__()
        rng = get_rng(rng)
        attention_dim = attention_dim or channels
        self.query_proj = Linear(channels, attention_dim, rng=rng)
        self.key_proj = Linear(channels, attention_dim, rng=rng)
        self.value_proj = Linear(channels, channels, rng=rng)
        self.attention = ScaledDotProductAttention()

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4:
            raise ValueError(f"SpatialAttention expects 4-d input, got {x.shape}")
        ctx = partition.active_context()
        if ctx is not None:
            return ctx.whole_operand(x, self._attend)
        return self._attend(x)

    def _attend(self, x: Tensor) -> Tensor:
        query = self.query_proj(x)
        key = self.key_proj(x)
        value = self.value_proj(x)
        return self.attention(query, key, value)
