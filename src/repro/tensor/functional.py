"""Functional interface over :class:`repro.tensor.Tensor`.

Higher-level differentiable functions used throughout the neural-network
layers: activations, softmax/log-softmax, normalisation helpers, dropout and
cosine similarity (the building block of the GraphCL / STSimSiam losses).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _scipy_sparse

from . import partition as _partition
from .tensor import (
    _TAPE,
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    spmm,
    spmm_multi,
    stack,
    where,
)

__all__ = [
    "spmm",
    "spmm_multi",
    "spatial_mix",
    "spatial_mix_multi",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softplus",
    "elu",
    "gelu",
    "softmax",
    "log_softmax",
    "dropout",
    "cosine_similarity",
    "l2_normalize",
    "one_hot",
    "linear_interpolate",
]


def spatial_mix(support, x: Tensor, transpose=None) -> Tensor:
    """Mix node features with a support held in whatever storage it arrived in.

    CSR supports go through the fused :func:`spmm` kernel (``transpose``
    optionally supplies the cached CSR transpose for the backward pass);
    dense supports (plain arrays or differentiable tensors such as the
    adaptive adjacency) use the batched dense matmul.  ``x`` is
    ``(..., nodes, channels)``.

    Under an active :mod:`~repro.tensor.partition` context the mix is
    rerouted through the shard's halo-exchange path: ``x`` then carries only
    the shard's owned rows and the result does too.
    """
    ctx = _partition.active_context()
    if ctx is not None:
        return ctx.mix(support, x, transpose)
    if _scipy_sparse.issparse(support):
        return spmm(support, x, transpose=transpose)
    support = as_tensor(support)
    tape = _TAPE.tape
    if tape is not None and not support.requires_grad:
        # Dense supports come from the per-graph cache and are value-stable
        # for the graph identity the compiled program is keyed on.
        tape.declared.add(id(support))
        tape.keep.append(support)
    return support @ as_tensor(x)


def spatial_mix_multi(fused, x: Tensor) -> Tensor:
    """Mix node features with a fused multi-support stack in one pass.

    ``fused`` is a :class:`repro.graph.sparse.FusedSupports`; the result is
    ``(..., nodes, count * channels)`` with the per-support blocks laid out
    exactly like the concatenation of the individual mixes.  Under an active
    partition context the stack is rerouted through the shard's rectangular
    row blocks and the halo exchange.
    """
    ctx = _partition.active_context()
    if ctx is not None:
        return ctx.mix_multi(fused, x)
    return spmm_multi(fused.stacked, x, fused.count, transpose=fused.transpose)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    x = as_tensor(x)
    return where(Tensor._make("greater", x, 0), x, x * negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softplus(x: Tensor) -> Tensor:
    """Numerically benign softplus ``log(1 + exp(x))``."""
    x = as_tensor(x)
    # log(1 + exp(x)) = max(x, 0) + log(1 + exp(-|x|))
    positive = x.relu()
    return positive + ((-x.abs()).exp() + 1.0).log()


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    x = as_tensor(x)
    return where(Tensor._make("greater", x, 0), x, (x.exp() - 1.0) * alpha)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = as_tensor(x)
    inner = (x + x**3 * 0.044715) * np.sqrt(2.0 / np.pi)
    return x * 0.5 * (inner.tanh() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    with no_grad():
        shift = x.max(axis=axis, keepdims=True)
    shifted = x - shift
    exponentials = shifted.exp()
    return exponentials / exponentials.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    x = as_tensor(x)
    with no_grad():
        shift = x.max(axis=axis, keepdims=True)
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when not training or ``rate`` is zero."""
    if not training or rate <= 0.0:
        return as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    rng = rng if rng is not None else np.random.default_rng()
    x = as_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise ``x`` to unit L2 norm along ``axis``."""
    x = as_tensor(x)
    return x / x.norm(axis=axis, keepdims=True, eps=eps)


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis`` (Eq. 13)."""
    a = l2_normalize(as_tensor(a), axis=axis, eps=eps)
    b = l2_normalize(as_tensor(b), axis=axis, eps=eps)
    return (a * b).sum(axis=axis)


def one_hot(indices: np.ndarray, num_classes: int) -> Tensor:
    """Return a one-hot (non-differentiable) encoding of integer indices."""
    indices = np.asarray(indices, dtype=int)
    encoding = np.zeros(indices.shape + (num_classes,), dtype=float)
    np.put_along_axis(encoding, indices[..., None], 1.0, axis=-1)
    return Tensor(encoding)


def linear_interpolate(a: Tensor, b: Tensor, weight: float) -> Tensor:
    """Return ``weight * a + (1 - weight) * b`` (the mixup primitive, Eq. 5)."""
    a = as_tensor(a)
    b = as_tensor(b)
    return a * float(weight) + b * (1.0 - float(weight))
