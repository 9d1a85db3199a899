"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the lowest-level substrate of the reproduction: the paper's
implementation relies on PyTorch autograd, which is unavailable offline, so
we provide a small but complete tensor engine with the operations required
by the URCL framework (dense layers, temporal convolutions expressed as
gathers + matmuls, graph convolutions, contrastive losses).

The public entry point is :class:`Tensor`.  Gradients are accumulated into
``Tensor.grad`` by calling :meth:`Tensor.backward` on a scalar output.
"""

from __future__ import annotations

import contextlib
import math
import threading
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse as _sparse

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "spmm",
    "spmm_multi",
    "set_spmm_threads",
    "get_spmm_threads",
    "track_activations",
    "MATMUL_BLOCK_ROWS",
]

# ---------------------------------------------------------------------- #
# Row-blocked dense matmul
# ---------------------------------------------------------------------- #
# Dense matmuls with a matrix RHS are computed in fixed row blocks along the
# -2 axis.  BLAS gemm picks different kernels/blockings for different row
# counts, so a row-sliced product is NOT bit-identical to the same rows of
# the full product in general (measurably so once the contraction dim
# reaches a few hundred).  A fixed absolute block grid makes the computation
# row-slice invariant at block granularity: any consumer that computes on a
# block-aligned subset of rows (the memory-sharded forward) issues byte-for-
# byte the same gemm calls as the full computation.  Sized so typical
# training graphs (a few hundred nodes) stay a single gemm.
MATMUL_BLOCK_ROWS = 256

# BLAS picks its gemm kernel from the *call* geometry: the row count selects
# gemv-like paths for narrow operands and different panel blockings for wide
# ones, so the same row computed inside a 12-row call and a 6-row call can
# disagree in the last ulp.  Inference therefore issues every 2-D-``b`` gemm
# (channel mixes, projections: the ops a shard runs on its own node rows) at
# one canonical geometry — exactly MATMUL_BLOCK_ROWS rows (tail zero-padded)
# by at most MATMUL_BLOCK_COLS output columns — which pins the kernel and
# makes a row's bits a function of (row, operand) only, so any partition of
# the node rows reproduces the unsharded bits.  The envelope in which that
# holds (and its one measured hole) is pinned by the property tests in
# tests/tensor/test_partition_kernels.py.  Row-slice invariance is a property
# of this 2-D-``b`` panel alone: a batched ``b`` (the dense spatial mix
# ``(N, N) @ (B, T, N, C)``) and every training product are plain BLAS calls
# (row-blocked above MATMUL_BLOCK_ROWS), whose exactness rests on all callers
# issuing the *same* call — ``PartitionContext._dense_mix`` multiplies the
# whole gathered operand and slices afterwards — and on numpy running one
# gemm per leading matrix of ``b`` whatever the batch size.
MATMUL_BLOCK_COLS = 256


def _matmul_canonical(a: np.ndarray, b: np.ndarray, out: np.ndarray | None):
    """Canonical ``a @ b`` for a 2-D ``b``: every row of ``a`` meets the same
    operand, so all leading axes collapse into one contiguous row panel that
    is cut into MATMUL_BLOCK_ROWS-row gemms; only the panel's last block is
    zero-padded (strided ``a`` / ``out`` cost one copy, not another path)."""
    inner, cols = b.shape
    if out is None:
        out = np.empty(a.shape[:-1] + (cols,), dtype=np.result_type(a, b))
    total = math.prod(a.shape[:-1])
    panel = np.ascontiguousarray(a).reshape(total, inner)
    direct = out.flags.c_contiguous
    flat = out.reshape(total, cols) if direct else np.empty((total, cols), out.dtype)
    count, tail = divmod(total, MATMUL_BLOCK_ROWS)
    full = count * MATMUL_BLOCK_ROWS
    blocks = panel[:full].reshape(count, MATMUL_BLOCK_ROWS, inner)
    targets = flat[:full].reshape(count, MATMUL_BLOCK_ROWS, cols)
    if tail:
        padded = np.zeros((MATMUL_BLOCK_ROWS, inner), dtype=a.dtype)
        padded[:tail] = panel[full:]
    for col_start in range(0, cols, MATMUL_BLOCK_COLS):
        col_stop = min(col_start + MATMUL_BLOCK_COLS, cols)
        b_block = b[:, col_start:col_stop]
        if full:
            np.matmul(blocks, b_block, out=targets[..., col_start:col_stop])
        if tail:
            flat[full:, col_start:col_stop] = np.matmul(padded, b_block)[:tail]
    if not direct:
        out[...] = flat.reshape(out.shape)
    return out


def _matmul_execute(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """``a @ b`` — the canonical row panel for a 2-D ``b`` under ``no_grad``,
    otherwise plain BLAS (row-blocked past MATMUL_BLOCK_ROWS)."""
    if a.ndim >= 2 and b.ndim == 2 and not _GRAD_MODE.enabled:
        return _matmul_canonical(a, b, out)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2] <= MATMUL_BLOCK_ROWS:
        return np.matmul(a, b, out=out)
    rows = a.shape[-2]
    if out is None:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (rows, b.shape[-1])
        out = np.empty(shape, dtype=np.result_type(a, b))
    for start in range(0, rows, MATMUL_BLOCK_ROWS):
        stop = min(start + MATMUL_BLOCK_ROWS, rows)
        np.matmul(a[..., start:stop, :], b, out=out[..., start:stop, :])
    return out


# ---------------------------------------------------------------------- #
# Threaded CSR kernels
# ---------------------------------------------------------------------- #
_SPMM_THREADS = 1
_SPMM_THREAD_MIN_NNZ = 200_000
_SPMM_POOL = None
_SPMM_POOL_LOCK = threading.Lock()


def set_spmm_threads(threads: int, min_nnz: int | None = None) -> int:
    """Set the worker count for chunked CSR products (1 disables).

    With ``threads > 1``, ``spmm``/``spmm_multi`` forward products whose
    matrix carries at least ``min_nnz`` stored entries are split into
    contiguous row chunks dispatched to a shared thread pool.  Row chunks of
    a CSR product are computed row-independently, so the result is
    bit-identical to the single-threaded product.  Returns the previous
    thread count.
    """
    global _SPMM_THREADS, _SPMM_THREAD_MIN_NNZ, _SPMM_POOL
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"spmm threads must be >= 1, got {threads}")
    with _SPMM_POOL_LOCK:
        previous = _SPMM_THREADS
        _SPMM_THREADS = threads
        if min_nnz is not None:
            _SPMM_THREAD_MIN_NNZ = int(min_nnz)
        if _SPMM_POOL is not None:
            _SPMM_POOL.shutdown(wait=False)
            _SPMM_POOL = None
    return previous


def get_spmm_threads() -> int:
    return _SPMM_THREADS


def _spmm_pool():
    global _SPMM_POOL
    pool = _SPMM_POOL
    if pool is None:
        with _SPMM_POOL_LOCK:
            if _SPMM_POOL is None:
                from concurrent.futures import ThreadPoolExecutor

                _SPMM_POOL = ThreadPoolExecutor(
                    max_workers=_SPMM_THREADS, thread_name_prefix="repro-spmm"
                )
            pool = _SPMM_POOL
    return pool


def _spmm_product(matrix, flat: np.ndarray) -> np.ndarray:
    """``matrix @ flat`` with optional row-chunked threading (bit-identical)."""
    threads = _SPMM_THREADS
    if (
        threads <= 1
        or getattr(matrix, "format", None) != "csr"
        or matrix.nnz < _SPMM_THREAD_MIN_NNZ
        or flat.ndim != 2
        or matrix.shape[0] < 2 * threads
    ):
        return matrix @ flat
    rows = matrix.shape[0]
    out = np.empty(
        (rows, flat.shape[1]), dtype=np.result_type(matrix.dtype, flat.dtype)
    )
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    bounds = np.linspace(0, rows, threads + 1).round().astype(int)

    def run_chunk(start: int, stop: int) -> None:
        base = indptr[start]
        block = _sparse.csr_array(
            (
                data[base : indptr[stop]],
                indices[base : indptr[stop]],
                indptr[start : stop + 1] - base,
            ),
            shape=(stop - start, matrix.shape[1]),
        )
        out[start:stop] = block @ flat

    futures = [
        _spmm_pool().submit(run_chunk, int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    for future in futures:
        future.result()
    return out


# ---------------------------------------------------------------------- #
# Activation tracking
# ---------------------------------------------------------------------- #
class _ActivationHolder(threading.local):
    def __init__(self):
        self.stats = None


_ACTIVATIONS = _ActivationHolder()


class ActivationStats:
    """Live/peak byte accounting of tensor-owned arrays in one thread.

    Counts only *owning* arrays (``base is None``) and each distinct buffer
    once; bytes are released when the last wrapping tensor is collected.
    Used by the sharding benchmarks to measure per-shard activation memory.
    """

    __slots__ = ("live_bytes", "peak_bytes", "_counts")

    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0
        self._counts: dict[int, list] = {}

    def _note(self, tensor: "Tensor", array: np.ndarray) -> None:
        if array.base is not None:
            return
        entry = self._counts.get(id(array))
        if entry is None:
            self._counts[id(array)] = [1, array.nbytes]
            self.live_bytes += array.nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
        else:
            entry[0] += 1
        weakref.finalize(tensor, self._drop, id(array))

    def _drop(self, key: int) -> None:
        entry = self._counts.get(key)
        if entry is None:
            return
        entry[0] -= 1
        if entry[0] <= 0:
            del self._counts[key]
            self.live_bytes -= entry[1]


@contextlib.contextmanager
def track_activations():
    """Track tensor allocation bytes in this thread; yields the stats."""
    previous = _ACTIVATIONS.stats
    stats = ActivationStats()
    _ACTIVATIONS.stats = stats
    try:
        yield stats
    finally:
        _ACTIVATIONS.stats = previous

class _GradMode(threading.local):
    """Per-thread gradient-recording flag.

    Thread-local so a serving worker running ``no_grad`` inference never
    flips recording off (or back on) under a training step in another
    thread — the exact interleaving the serving engine's concurrent
    predict/update lanes produce.
    """

    def __init__(self):
        self.enabled = True


_GRAD_MODE = _GradMode()


class _TapeHolder(threading.local):
    """Per-thread active :class:`repro.tensor.trace.Tape` (or ``None``).

    Thread-local for the same reason as the grad switch: a serving worker
    capturing a program must never observe ops recorded by a concurrent
    training thread.
    """

    def __init__(self):
        self.tape = None


_TAPE = _TapeHolder()

DEFAULT_DTYPE = np.float64

_ALLOWED_DTYPES = (np.float32, np.float64)


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors are created with (float64 by default)."""
    return np.dtype(DEFAULT_DTYPE)


def set_default_dtype(dtype) -> np.dtype:
    """Set the library-wide tensor dtype to ``float32`` or ``float64``.

    Accepts a dtype object or a string name (``"float32"``/``"float64"``).
    Every tensor created afterwards — parameters, activations, gradients and
    optimizer state — uses the new dtype, which is the single switch that
    moves the whole training hot path to single precision.
    """
    global DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in [np.dtype(d) for d in _ALLOWED_DTYPES]:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype!r}")
    DEFAULT_DTYPE = resolved.type
    return resolved


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager that temporarily switches the default dtype."""
    previous = DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield np.dtype(DEFAULT_DTYPE)
    finally:
        set_default_dtype(previous)


def is_grad_enabled() -> bool:
    """Return whether gradient recording is enabled in this thread."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Mirrors ``torch.no_grad``: operations executed inside the block produce
    tensors detached from the autograd graph, which keeps evaluation and
    replay-buffer bookkeeping cheap.  The flag is per-thread (like torch's):
    entering the block in one thread leaves recording untouched everywhere
    else.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _released_backward(grad: np.ndarray) -> None:
    """Closure of an interior node that a finished backward pass freed."""
    raise RuntimeError(
        "trying to backward through the graph a second time: backward() frees "
        "interior nodes as it consumes them; run the forward again"
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    NumPy broadcasting may have expanded leading dimensions or stretched
    size-1 axes; the corresponding gradient must be summed back.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes (size 1 in the original shape).
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Return True when ``index`` only uses basic (non-duplicating) indexing.

    Basic indexing — ints, slices, ``Ellipsis`` and ``None`` — addresses each
    element of the source at most once, so the gradient scatter can use plain
    assignment instead of ``np.add.at``.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, (int, np.integer, slice))
        for item in items
    )


def as_tensor(value, requires_grad: bool = False, dtype=None) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad, dtype=dtype)


class Tensor:
    """A NumPy-backed array that records operations for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Integer/bool inputs with an explicit non-float
        ``dtype`` are kept as-is only when ``requires_grad`` is ``False``;
        differentiable tensors and floats created without an explicit dtype
        are stored at the library default dtype (see
        :func:`set_default_dtype`).
    requires_grad:
        Whether gradients should be accumulated for this tensor.  A leaf
        tensor keeps this flag even when constructed inside a
        :func:`no_grad` block; only *recorded operations* respect the grad
        switch (mirroring PyTorch, where ``no_grad`` does not strip
        ``requires_grad`` from freshly created parameters).
    """

    __slots__ = (
        "data",
        "requires_grad",
        "grad",
        "_backward",
        "_parents",
        "name",
        "__weakref__",
    )

    __array_priority__ = 100  # ensure ndarray.__mul__ defers to Tensor

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data, dtype=dtype if dtype is not None else None)
        if array.dtype.kind not in "fc":
            if requires_grad or dtype is None:
                array = array.astype(DEFAULT_DTYPE)
        elif dtype is None and array.dtype.kind == "f" and array.dtype != np.dtype(DEFAULT_DTYPE):
            array = array.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.requires_grad: bool = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        stats = _ACTIVATIONS.stats
        if stats is not None:
            stats._note(self, array)
        tape = _TAPE.tape
        if tape is not None:
            # Tensors born during capture may depend on the input, so the
            # tape refuses to bake them in as constants unless registered.
            tape.fresh.add(id(self))

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})\n{self.data!r}"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str | None = None,
        ctx: dict | None = None,
    ) -> "Tensor":
        """Create a result tensor wired into the autograd graph.

        The computed dtype is preserved (only *leaf* creation consults the
        default dtype), so a model keeps its precision even when the global
        default changes afterwards.  ``op``/``ctx`` describe the operation to
        an active capture tape; a ``_make`` without metadata poisons the tape
        (eager fallback) instead of replaying an op it cannot reproduce.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=False, dtype=data.dtype)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        tape = _TAPE.tape
        if tape is not None:
            tape.record(out, parents, op, ctx)
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` in place (allocating on first use).

        ``fresh=True`` asserts that the caller freshly allocated ``grad`` and
        holds no other reference to it, which lets the first accumulation
        steal the buffer instead of copying.  All subsequent accumulations
        add into ``self.grad`` in place (``np.add(..., out=...)``), so the
        stored array must never alias another tensor's data or gradient —
        hence the defensive copy whenever freshness cannot be proven.
        """
        if not self.requires_grad:
            return
        g = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            if g.base is None and (fresh or g is not grad) and g is not self.data:
                # Either the caller vouched for ownership or the dtype cast
                # above already produced a private array.
                self.grad = g
            else:
                self.grad = g.copy()
        else:
            np.add(self.grad, g, out=self.grad)

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        The pass frees the graph as it goes (PyTorch semantics): once an
        interior node's closure has run, its ``grad``, closure and parent
        links are dropped, so saved activations die as soon as nothing
        downstream needs them.  Afterwards only leaves and ``self`` hold a
        ``.grad``, and a second ``backward()`` through a freed node raises
        ``RuntimeError`` — re-run the forward instead.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1.0, which requires ``self`` to
            be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.shape:
            grad = np.broadcast_to(grad, self.shape).astype(self.data.dtype)

        # Topological order over the graph reachable from ``self``.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while order:
            node = order.pop()  # reverse topological order, root first
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            if node is not self:
                node.grad = None
                node._backward = _released_backward
                node._parents = ()

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward, op="add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(-grad, other.shape), fresh=True)

        return Tensor._make(data, (self, other), backward, op="sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape), fresh=True)
            other._accumulate(_unbroadcast(grad * self.data, other.shape), fresh=True)

        return Tensor._make(data, (self, other), backward, op="mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape), fresh=True)
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape), fresh=True
            )

        return Tensor._make(data, (self, other), backward, op="div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, fresh=True)

        return Tensor._make(data, (self,), backward, op="neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(data, (self,), backward, op="pow", ctx={"exponent": exponent})

    # ------------------------------------------------------------------ #
    # Comparisons (non-differentiable, return plain arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, fresh=True)

        return Tensor._make(data, (self,), backward, op="exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, fresh=True)

        return Tensor._make(data, (self,), backward, op="log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12), fresh=True)

        return Tensor._make(data, (self,), backward, op="sqrt")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data), fresh=True)

        return Tensor._make(data, (self,), backward, op="abs")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2), fresh=True)

        return Tensor._make(data, (self,), backward, op="tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), fresh=True)

        return Tensor._make(data, (self,), backward, op="sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, fresh=True)

        return Tensor._make(data, (self,), backward, op="relu")

    def clip(self, minimum: float | None = None, maximum: float | None = None) -> "Tensor":
        data = np.clip(self.data, minimum, maximum)
        mask = np.ones_like(self.data)
        if minimum is not None:
            mask = mask * (self.data >= minimum)
        if maximum is not None:
            mask = mask * (self.data <= maximum)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, fresh=True)

        return Tensor._make(
            data,
            (self,),
            backward,
            op="clip",
            ctx={"minimum": minimum, "maximum": maximum},
        )

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy(), fresh=True)

        return Tensor._make(
            data, (self,), backward, op="sum", ctx={"axis": axis, "keepdims": keepdims}
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        result = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return result

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded_data = data
            expanded_grad = grad
            if axis is not None and not keepdims:
                expanded_data = np.expand_dims(data, axis)
                expanded_grad = np.expand_dims(grad, axis)
            mask = self.data == expanded_data
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(expanded_grad * mask / counts, fresh=True)

        return Tensor._make(
            data, (self,), backward, op="max", ctx={"axis": axis, "keepdims": keepdims}
        )

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm along ``axis`` (with an epsilon floor for stable grads)."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + eps).sqrt()

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(data, (self,), backward, op="reshape", ctx={"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(
            data, (self,), backward, op="transpose", ctx={"axes": axes}
        )

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(data, (self,), backward, op="expand_dims", ctx={"axis": axis})

    def squeeze(self, axis: int | None = None) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(data, (self,), backward, op="squeeze", ctx={"axis": axis})

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` follows ``np.pad`` conventions."""
        data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim) for (before, _), dim in zip(pad_width, self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return Tensor._make(data, (self,), backward, op="pad", ctx={"slices": slices})

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        original_shape = self.shape
        dtype = self.data.dtype
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(original_shape, dtype=dtype)
            if basic:
                # Basic (slice/int) indexing never selects the same element
                # twice, so a plain assignment matches ``np.add.at`` while
                # skipping its slow scatter machinery.
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full, fresh=True)

        return Tensor._make(
            data, (self,), backward, op="getitem", ctx={"index": index, "basic": basic}
        )

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = _matmul_execute(self.data, other.data)
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            # Skip the (potentially huge) product for operands that do not
            # require grad — mixing against a constant dense support would
            # otherwise burn a batched (..., n, m) matmul per backward just
            # to throw the result away.
            a_data, b_data = a.data, b.data
            if a_data.ndim == 1 and b_data.ndim == 1:
                if a.requires_grad:
                    a._accumulate(grad * b_data, fresh=True)
                if b.requires_grad:
                    b._accumulate(grad * a_data, fresh=True)
                return
            if a_data.ndim == 1:
                # (m,) @ (..., m, p) -> (..., p)
                if a.requires_grad:
                    grad_a = (grad[..., None, :] * b_data).sum(axis=-1)
                    a._accumulate(_unbroadcast(grad_a, a.shape), fresh=True)
                if b.requires_grad:
                    grad_b = a_data[..., :, None] * grad[..., None, :]
                    b._accumulate(_unbroadcast(grad_b, b.shape), fresh=True)
                return
            if b_data.ndim == 1:
                # (..., n, m) @ (m,) -> (..., n)
                if a.requires_grad:
                    grad_a = grad[..., :, None] * b_data
                    a._accumulate(_unbroadcast(grad_a, a.shape), fresh=True)
                if b.requires_grad:
                    grad_b = (a_data * grad[..., :, None]).sum(
                        axis=tuple(range(a_data.ndim - 1))
                    )
                    b._accumulate(_unbroadcast(grad_b, b.shape), fresh=True)
                return
            if a.requires_grad:
                grad_a = grad @ np.swapaxes(b_data, -1, -2)
                a._accumulate(_unbroadcast(grad_a, a.shape), fresh=True)
            if b.requires_grad:
                grad_b = np.swapaxes(a_data, -1, -2) @ grad
                b._accumulate(_unbroadcast(grad_b, b.shape), fresh=True)

        return Tensor._make(data, (self, other), backward, op="matmul")

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).__matmul__(self)

    def dot(self, other) -> "Tensor":
        return self.__matmul__(other)


# ---------------------------------------------------------------------- #
# Free functions over tensors
# ---------------------------------------------------------------------- #
def _spmm_leading(matrix, array: np.ndarray) -> np.ndarray:
    """Apply a sparse ``(N, N)`` matrix to the ``-2`` axis of ``array``.

    ``array`` has shape ``(..., N, C)``; all leading axes are flattened into
    the column dimension so the whole batch goes through a single CSR x
    dense product, then restored.
    """
    if array.ndim == 1:
        return matrix @ array
    if array.ndim == 2:
        return _spmm_product(matrix, array)
    moved = np.moveaxis(array, -2, 0)  # (N, ..., C), a view
    flat = moved.reshape(moved.shape[0], -1)  # copies iff non-contiguous
    product = _spmm_product(matrix, flat)
    # Rectangular matrices (partitioned row blocks) change the node extent.
    out = np.moveaxis(product.reshape((matrix.shape[0],) + moved.shape[1:]), 0, -2)
    # Materialise an owned, contiguous buffer so callers may treat the
    # result as fresh (the in-place gradient-accumulation protocol).
    return np.ascontiguousarray(out)


def spmm(matrix, x, transpose=None) -> Tensor:
    """Differentiable CSR-matrix x dense-Tensor product over the node axis.

    ``matrix`` is a constant ``scipy.sparse`` matrix of shape ``(N, N)``
    (no gradient is computed for it); ``x`` is a tensor whose second-to-last
    axis has size ``N`` — leading axes are batched.  The backward pass
    multiplies by the transposed matrix; callers that apply the same support
    every step should pass a precomputed CSR ``transpose``
    (:func:`repro.graph.sparse.transpose_csr` caches one per support) so the
    backward stops re-deriving it.
    """
    if not _sparse.issparse(matrix):
        raise TypeError(f"spmm expects a scipy.sparse matrix, got {type(matrix).__name__}")
    x = as_tensor(x)
    if x.ndim < 1 or x.shape[max(x.ndim - 2, 0)] != matrix.shape[1]:
        raise ValueError(
            f"spmm shape mismatch: matrix {matrix.shape} vs input {x.shape}"
        )
    if matrix.dtype != x.data.dtype:
        matrix = matrix.astype(x.data.dtype)
        transpose = None  # a cached transpose at the old dtype is stale
    if transpose is not None and (
        transpose.shape != (matrix.shape[1], matrix.shape[0])
        or transpose.dtype != matrix.dtype
    ):
        transpose = None
    data = _spmm_leading(matrix, x.data)
    transposed = transpose if transpose is not None else matrix.T

    def backward(grad: np.ndarray) -> None:
        # scipy products always allocate, so the buffer is fresh.
        x._accumulate(_spmm_leading(transposed, grad), fresh=True)

    return Tensor._make(
        data,
        (x,),
        backward,
        op="spmm",
        ctx={"matrix": matrix},
    )


def spmm_multi(stacked, x, count: int, transpose=None, rows: int | None = None) -> Tensor:
    """Fused multi-support spmm: one CSR traversal for all ``count`` supports.

    ``stacked`` is the vertical stack ``vstack([A_1, ..., A_S])`` of ``S``
    square ``(N, N)`` supports — a single ``(S*N, N)`` CSR matrix.  ``x`` is
    ``(..., N, C)``; the result is ``(..., N, S*C)``, the per-support mixed
    features concatenated along the channel axis in stacking order, i.e.
    exactly ``concatenate([spmm(A_s, x) for s], axis=-1)`` but with one
    sparse product (and one backward product) instead of ``S`` of each plus a
    concatenate.

    ``rows`` supports *rectangular* stacks: partitioned row blocks stack
    ``S`` matrices of shape ``(rows, W)`` where ``W = x.shape[-2]`` is the
    gathered operand width (own rows + halo), producing ``(..., rows, S*C)``.
    Without it each block is assumed square (``rows = W``).

    ``transpose`` optionally supplies the precomputed ``(W, S*rows)`` CSR
    transpose of ``stacked`` used by the backward pass (equal to
    ``hstack([A_s.T])``); without it the transpose is derived per call.
    """
    if not _sparse.issparse(stacked):
        raise TypeError(
            f"spmm_multi expects a scipy.sparse matrix, got {type(stacked).__name__}"
        )
    count = int(count)
    size = stacked.shape[1]
    rows = size if rows is None else int(rows)
    if count < 1 or rows < 0 or stacked.shape[0] != count * rows:
        raise ValueError(
            f"stacked supports must be (count*rows, W); got {stacked.shape} "
            f"for count={count}, rows={rows}"
        )
    x = as_tensor(x)
    if x.ndim < 2 or x.shape[-2] != size:
        raise ValueError(
            f"spmm_multi shape mismatch: supports are ({rows}, {size}), input {x.shape}"
        )
    if stacked.dtype != x.data.dtype:
        stacked = stacked.astype(x.data.dtype)
        transpose = None
    if transpose is not None and (
        transpose.shape != (size, count * rows) or transpose.dtype != stacked.dtype
    ):
        transpose = None

    array = x.data
    moved = np.moveaxis(array, -2, 0)  # (N, ..., C), a view
    lead = moved.shape[1:]
    flat = moved.reshape(size, -1)  # (N, L); copies iff non-contiguous
    product = _spmm_product(stacked, flat)  # (S*rows, L): the single fused traversal
    # (S, rows, ..., C) -> (..., rows, S, C) -> (..., rows, S*C)
    blocks = np.moveaxis(product.reshape(count, rows, *lead), (0, 1), (-2, -3))
    out_shape = array.shape[:-2] + (rows, count * array.shape[-1])
    data = np.ascontiguousarray(blocks.reshape(out_shape))
    transposed = transpose if transpose is not None else stacked.T

    def backward(grad: np.ndarray) -> None:
        # (..., rows, S*C) -> (S, rows, ..., C) -> (S*rows, L)
        g_blocks = grad.reshape(grad.shape[:-1] + (count, array.shape[-1]))
        g_moved = np.moveaxis(g_blocks, (-2, -3), (0, 1))
        g_flat = np.ascontiguousarray(g_moved).reshape(count * rows, -1)
        x_grad = transposed @ g_flat  # (N, L): sum_s A_s^T grad_s, fused
        x_grad = np.moveaxis(x_grad.reshape(size, *lead), 0, -2)
        x._accumulate(np.ascontiguousarray(x_grad), fresh=True)

    return Tensor._make(
        data,
        (x,),
        backward,
        op="spmm_multi",
        ctx={"stacked": stacked, "count": count, "rows": rows},
    )


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward, op="concatenate", ctx={"axis": axis})


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tensors, backward, op="stack", ctx={"axis": axis})


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable elementwise selection; ``condition`` is a boolean array."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * condition, a.shape), fresh=True)
        b._accumulate(_unbroadcast(grad * ~condition, b.shape), fresh=True)

    return Tensor._make(
        data, (a, b), backward, op="where", ctx={"condition_array": condition}
    )


def maximum(a, b) -> Tensor:
    """Differentiable elementwise maximum."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = a.data >= b.data
    tape = _TAPE.tape
    if tape is not None:
        tape.register_cond(condition, "greater_equal", a, b)
    return where(condition, a, b)


def minimum(a, b) -> Tensor:
    """Differentiable elementwise minimum."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = a.data <= b.data
    tape = _TAPE.tape
    if tape is not None:
        tape.register_cond(condition, "less_equal", a, b)
    return where(condition, a, b)
