"""Reverse-mode autodiff tensor engine (NumPy-backed).

This subpackage replaces the PyTorch dependency of the original URCL
implementation.  It exposes:

* :class:`Tensor` — the differentiable array type,
* :mod:`repro.tensor.functional` — activations, softmax, dropout, cosine
  similarity and other differentiable helpers,
* :mod:`repro.tensor.grad_check` — numerical gradient checking used by the
  test suite,
* :mod:`repro.tensor.trace` / :mod:`repro.tensor.program` — tape capture and
  compiled replay of eval-mode ``no_grad`` forwards (see
  :func:`set_traced_execution` and :func:`run_compiled`).
"""

from . import functional, partition
from .grad_check import check_gradients, numerical_gradient
from .partition import HaloExchange, PartitionContext, partition_scope
from .trace import (
    batch_bucket,
    clear_program_cache,
    declare_const,
    export_structures,
    forget_model,
    get_traced_execution,
    install_structures,
    program_cache_stats,
    run_compiled,
    scan,
    set_traced_execution,
    traced_execution,
)
from .tensor import (
    MATMUL_BLOCK_ROWS,
    Tensor,
    as_tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    get_spmm_threads,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    set_default_dtype,
    set_spmm_threads,
    spmm,
    spmm_multi,
    stack,
    track_activations,
    where,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "spmm",
    "spmm_multi",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "functional",
    "check_gradients",
    "numerical_gradient",
    "set_traced_execution",
    "get_traced_execution",
    "traced_execution",
    "run_compiled",
    "batch_bucket",
    "scan",
    "declare_const",
    "program_cache_stats",
    "clear_program_cache",
    "export_structures",
    "install_structures",
    "forget_model",
    "partition",
    "HaloExchange",
    "PartitionContext",
    "partition_scope",
    "set_spmm_threads",
    "get_spmm_threads",
    "track_activations",
    "MATMUL_BLOCK_ROWS",
]
