"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the lowest-level substrate of the reproduction: the paper's
implementation relies on PyTorch autograd, which is unavailable offline, so
we provide a small but complete tensor engine with the operations required
by the URCL framework (dense layers, temporal convolutions expressed as
gathers + matmuls, graph convolutions, contrastive losses).

The public entry point is :class:`Tensor`.  Gradients are accumulated into
``Tensor.grad`` by calling :meth:`Tensor.backward` on a scalar output.  Every
operation is an entry of the op table at the end of this module
(:data:`PRIMITIVES`): its forward kernel, its per-operand VJP makers and the
params a capture records, defined once and run by both eager execution and
compiled replay.
"""

from __future__ import annotations

import contextlib
import math
import threading
import weakref
from dataclasses import dataclass
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
# the node rows, or any padding of the batch (a compiled forward's batch
# bucket), reproduces the unpadded, unsharded bits.  The column block is 192,
# not 256: on OpenBLAS 0.3.31 (Haswell kernels) a 256-row f64 gemm whose
# block is 193-255 columns wide computes a row's last columns differently
# depending on the row's position in the block.  The property tests in
# tests/tensor/test_partition_kernels.py pin the envelope.  Row-slice
# invariance is a property of this 2-D-``b`` panel alone: a batched ``b``
# (the dense spatial mix ``(N, N) @ (B, T, N, C)``) and every training
# product are plain BLAS calls (row-blocked above MATMUL_BLOCK_ROWS), whose
# exactness rests on all callers issuing the *same* call —
# ``PartitionContext._dense_mix`` multiplies the whole gathered operand and
# slices afterwards — and on numpy running one gemm per leading matrix of
# ``b`` whatever the batch size.
MATMUL_BLOCK_COLS = 192


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


def get_spmm_threads() -> int:
    """Worker count of the CSR products: always 1 (spmm is single-threaded)."""
    return 1


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
    ``largest_bytes`` is the largest single buffer seen.  Used by the
    sharding benchmarks to measure per-shard activation memory.
    """

    __slots__ = ("live_bytes", "peak_bytes", "largest_bytes", "_counts")

    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0
        self.largest_bytes = 0
        self._counts: dict[int, list] = {}

    def _note(self, tensor: "Tensor", array: np.ndarray) -> None:
        if array.base is not None:
            return
        entry = self._counts.get(id(array))
        if entry is None:
            self._counts[id(array)] = [1, array.nbytes]
            self.largest_bytes = max(self.largest_bytes, array.nbytes)
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


class _Node:
    """The autograd record of one op result that requires grad.

    Holds the result's gradient, the nodes of its parents that require grad
    (a leaf :class:`Tensor` is its own node) and one VJP per such parent, and
    no ``.data``: each VJP closes over exactly the arrays it reads, so every
    other intermediate of the forward dies with its ``Tensor``.
    """

    __slots__ = ("grad", "_parents", "_vjps", "dtype")
    requires_grad = True

    def __init__(self, parents: tuple, vjps: tuple, dtype: np.dtype):
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._vjps: tuple | None = vjps
        self.dtype = dtype

    def _backward(self, grad: np.ndarray) -> None:
        if self._vjps is None:
            raise RuntimeError(
                "trying to backward through the graph a second time: backward() "
                "frees interior nodes as it consumes them; run the forward again"
            )
        for parent, vjp in zip(self._parents, self._vjps):
            share = vjp(grad)
            # A VJP returns ``grad`` itself, a view, or an array it allocated.
            parent._accumulate(share, fresh=share is not grad)

    def _release(self) -> None:
        self.grad = None
        self._parents = ()
        self._vjps = None

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """:meth:`Tensor._accumulate` for a node (which has no data to alias)."""
        g = np.asarray(grad, dtype=self.dtype)
        if self.grad is None:
            self.grad = g if g.base is None and (fresh or g is not grad) else g.copy()
        else:
            np.add(self.grad, g, out=self.grad)


def _take_along(axis: int, key):
    """VJP of one concatenate/stack input: ``grad[..., key, ...]`` at ``axis``."""

    def vjp(grad: np.ndarray) -> np.ndarray:
        index = [slice(None)] * grad.ndim
        index[axis] = key
        return grad[tuple(index)]

    return vjp


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

    __slots__ = ("data", "requires_grad", "grad", "_node", "name", "__weakref__")

    __array_priority__ = 100  # ensure ndarray.__mul__ defers to Tensor
    # A leaf is its own autograd node: no VJPs, no parents.
    _backward = None
    _parents = ()

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
        self._node: _Node | None = None
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
    # Graph construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _make(cls, op: str, *operands, **params) -> "Tensor":
        """Apply the op-table primitive ``op`` and wire its result into the graph.

        Every op result is made here: the entry's kernel computes the data
        (the very kernel a compiled replay runs into its arena), an active
        capture tape records the op with the params the entry names, and a
        non-tensor operand is coerced first — a Python scalar at the dtype of
        the op's floating tensor operand, so it never promotes a float32
        model.  The computed dtype is preserved (only *leaf* creation
        consults the default dtype), so a model keeps its precision when the
        global default changes afterwards.

        In grad mode, a result with an operand that requires grad gets a
        :class:`_Node` holding those operands' nodes and one VJP each
        (HIPS/autograd's vector-Jacobian product), made by the entry only for
        such operands: each VJP closes over exactly the arrays it reads, so
        every other intermediate dies with the forward.
        """
        prim = PRIMITIVES[op]
        for operand in operands:
            if not isinstance(operand, Tensor):
                operands = _coerce(operands)
                break
        arrays = [operand.data for operand in operands]
        data = prim.kernel(*arrays, **params)
        out = cls(data, requires_grad=False, dtype=data.dtype)
        if _GRAD_MODE.enabled and prim.vjp is not None:
            pairs = [
                (operand._node or operand, prim.vjp(argnum, data, *arrays, **params))
                for argnum, operand in enumerate(operands)
                if operand.requires_grad
            ]
            if pairs:
                nodes, vjps = zip(*pairs)
                out.requires_grad = True
                out._node = _Node(nodes, vjps, data.dtype)
        tape = _TAPE.tape
        if tape is not None:
            tape.record(out, operands, prim, params)
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

        The pass walks autograd nodes, not tensors: the graph holds only what
        the VJPs saved, never an intermediate's ``.data``.  It frees the graph
        as it goes (PyTorch semantics): once an interior node's VJPs have run,
        its ``grad``, VJPs and parent links are dropped, so saved arrays die
        as soon as nothing downstream needs them.  Afterwards only leaves and
        ``self`` hold a ``.grad``, and a second ``backward()`` through a freed
        node raises ``RuntimeError`` — re-run the forward instead.

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

        # Topological order over the graph reachable from ``self``'s node.
        root = self._node or self
        order: list = []
        visited: set[int] = set()
        stack: list = [(root, False)]
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

        root._accumulate(grad)
        while order:
            node = order.pop()  # reverse topological order, root first
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            if node is not root:
                node._release()
        self.grad = root.grad

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        return Tensor._make("add", self, other)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return Tensor._make("sub", self, other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor._make("sub", other, self)

    def __mul__(self, other) -> "Tensor":
        return Tensor._make("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return Tensor._make("div", self, other)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._make("div", other, self)

    def __neg__(self) -> "Tensor":
        return Tensor._make("neg", self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return Tensor._make("pow", self, exponent=exponent)

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
        return Tensor._make("exp", self)

    def log(self) -> "Tensor":
        return Tensor._make("log", self)

    def sqrt(self) -> "Tensor":
        return Tensor._make("sqrt", self)

    def abs(self) -> "Tensor":
        return Tensor._make("abs", self)

    def tanh(self) -> "Tensor":
        return Tensor._make("tanh", self)

    def sigmoid(self) -> "Tensor":
        return Tensor._make("sigmoid", self)

    def relu(self) -> "Tensor":
        return Tensor._make("relu", self)

    def clip(self, minimum: float | None = None, maximum: float | None = None) -> "Tensor":
        return Tensor._make("clip", self, minimum=minimum, maximum=maximum)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._make("sum", self, axis=axis, keepdims=keepdims)

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
        return Tensor._make("max", self, axis=axis, keepdims=keepdims)

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
        return Tensor._make("reshape", self, shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return Tensor._make("transpose", self, axes=axes)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        return Tensor._make("expand_dims", self, axis=axis)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        return Tensor._make("squeeze", self, axis=axis)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` holds one ``(before, after)``
        pair per axis (``np.pad`` conventions)."""
        pairs = list(zip(pad_width, self.shape))
        shape = tuple(before + dim + after for (before, after), dim in pairs)
        interior = tuple(slice(before, before + dim) for (before, _), dim in pairs)
        return Tensor._make("pad", self, shape=shape, interior=interior)

    def __getitem__(self, index) -> "Tensor":
        return Tensor._make("getitem", self, index=index)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def __matmul__(self, other) -> "Tensor":
        return Tensor._make("matmul", self, other)

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor._make("matmul", other, self)

    def dot(self, other) -> "Tensor":
        return self.__matmul__(other)


# ---------------------------------------------------------------------- #
# Free functions over tensors
# ---------------------------------------------------------------------- #
def _spmm_leading(matrix, array: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a sparse ``(N, N)`` matrix to the ``-2`` axis of ``array``.

    ``array`` has shape ``(..., N, C)``; all leading axes are flattened into
    the column dimension so the whole batch goes through a single CSR x
    dense product, then restored.  The result is an owned, contiguous buffer
    (callers may treat it as fresh: the in-place gradient-accumulation
    protocol), or ``out``.
    """
    if array.ndim == 1:
        product = matrix @ array
    elif array.ndim == 2:
        product = matrix @ array
    else:
        moved = np.moveaxis(array, -2, 0)  # (N, ..., C), a view
        flat = moved.reshape(moved.shape[0], -1)  # copies iff non-contiguous
        product = matrix @ flat
        # Rectangular matrices (partitioned row blocks) change the node extent.
        product = np.moveaxis(product.reshape((matrix.shape[0],) + moved.shape[1:]), 0, -2)
    if out is None:
        return np.ascontiguousarray(product)
    np.copyto(out, product)
    return out


def spmm(matrix, x, transpose=None) -> Tensor:
    """Differentiable CSR-matrix x dense-Tensor product over the node axis.

    ``matrix`` is a constant ``scipy.sparse`` matrix of shape ``(N, N)``
    (no gradient is computed for it); ``x`` is a tensor whose second-to-last
    axis has size ``N`` — leading axes are batched.  The backward pass
    multiplies by the transposed matrix; callers that apply the same support
    every step should pass a precomputed CSR ``transpose`` (a
    :class:`repro.graph.Graph` keeps one per support) so the backward stops
    re-deriving it.
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
    return Tensor._make("spmm", x, matrix=matrix, transpose=transpose)


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
    return Tensor._make(
        "spmm_multi", x, stacked=stacked, count=count, rows=rows, transpose=transpose
    )


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return Tensor._make("concatenate", *tensors, axis=axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    return Tensor._make("stack", *tensors, axis=axis)


def where(condition, a, b) -> Tensor:
    """Differentiable elementwise selection.

    ``condition`` is a boolean array or a boolean tensor from a comparison
    op (``maximum``/``minimum`` build theirs that way, so a compiled program
    recomputes it on every replay).
    """
    if not isinstance(condition, Tensor):
        condition = Tensor(np.asarray(condition, dtype=bool), dtype=bool)
    return Tensor._make("where", condition, a, b)


def maximum(a, b) -> Tensor:
    """Differentiable elementwise maximum."""
    a, b = _coerce((a, b))
    return where(Tensor._make("greater_equal", a, b), a, b)


def minimum(a, b) -> Tensor:
    """Differentiable elementwise minimum."""
    a, b = _coerce((a, b))
    return where(Tensor._make("less_equal", a, b), a, b)


def _coerce(operands) -> tuple:
    """The operands as tensors.  A Python scalar wraps at the dtype of the
    first floating tensor operand (so ``x * 0.5`` stays float32 under a
    float64 default); anything else goes through :func:`as_tensor`."""
    dtype = next(
        (t.data.dtype for t in operands if isinstance(t, Tensor) and t.data.dtype.kind == "f"),
        None,
    )
    return tuple(
        t if isinstance(t, Tensor)
        else Tensor(t, dtype=dtype) if dtype is not None and isinstance(t, (int, float))
        else as_tensor(t)
        for t in operands
    )


# ---------------------------------------------------------------------- #
# The op table
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class Primitive:
    """One op-table entry: HIPS/autograd's ``primitive`` with its ``defvjp``.

    ``kernel(*operand_arrays, out=None, **params)`` is the op's forward
    arithmetic, written once: it allocates its result when ``out`` is
    ``None`` and writes into ``out`` otherwise.  Eager ops
    (:meth:`Tensor._make`) call it on fresh arrays and a compiled
    :class:`~repro.tensor.program.ProgramInstance` calls it into arena slots,
    so replay == eager holds by construction.

    ``vjp(i, ans, *operand_arrays, **params)`` makes operand ``i``'s VJP.
    It runs only in grad mode, only for an operand that requires grad, and
    each VJP closes over exactly the arrays it reads.  An entry whose
    ``vjp`` is ``None`` is non-differentiable: its result never requires
    grad.

    ``record`` names the params a capture keeps in the program node: the
    kernel's params, never a VJP-only one like a cached CSR transpose.
    ``view`` marks ops whose kernel may return a view of the operand, and
    ``shareable=False`` keeps any program using the op bound to the model
    that captured it.
    """

    name: str
    kernel: Callable
    vjp: Callable | None
    record: tuple
    view: bool
    shareable: bool


PRIMITIVES: dict[str, Primitive] = {}


def defprimitive(name, kernel, *vjps, vjp=None, record=(), view=False, shareable=True) -> None:
    """Register ``name`` in the op table (see :class:`Primitive`).

    Per-operand makers ``vjps[i](ans, *operand_arrays, **params)`` become
    the entry's one ``vjp``; a variadic op passes ``vjp`` itself.
    """
    if vjps:

        def vjp(argnum, ans, *arrays, **params):
            return vjps[argnum](ans, *arrays, **params)

    PRIMITIVES[name] = Primitive(name, kernel, vjp, record, view, shareable)


def _into(out: np.ndarray | None, result: np.ndarray) -> np.ndarray:
    """``result`` itself, or copied into ``out`` when a buffer is given."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


def _unbroadcast_to(shape):
    return lambda g: _unbroadcast(g, shape)


def _restore_shape(ans, x, **params):
    original = x.shape
    return lambda g: g.reshape(original)


# Elementwise arithmetic ------------------------------------------------ #
def _sub_vjp_y(ans, x, y):
    b = y.shape
    return lambda g: _unbroadcast(-g, b)


def _mul_vjp_x(ans, x, y):
    a = x.shape
    return lambda g: _unbroadcast(g * y, a)


def _mul_vjp_y(ans, x, y):
    b = y.shape
    return lambda g: _unbroadcast(g * x, b)


def _div_vjp_x(ans, x, y):
    a = x.shape
    return lambda g: _unbroadcast(g / y, a)


def _div_vjp_y(ans, x, y):
    b = y.shape
    return lambda g: _unbroadcast(-g * x / (y**2), b)


def _pow(x, out=None, *, exponent):
    return np.power(x, exponent, out=out)


def _pow_vjp(ans, x, *, exponent):
    return lambda g: g * exponent * x ** (exponent - 1)


defprimitive(
    "add",
    np.add,
    lambda ans, x, y: _unbroadcast_to(x.shape),
    lambda ans, x, y: _unbroadcast_to(y.shape),
)
defprimitive("sub", np.subtract, lambda ans, x, y: _unbroadcast_to(x.shape), _sub_vjp_y)
defprimitive("mul", np.multiply, _mul_vjp_x, _mul_vjp_y)
defprimitive("div", np.divide, _div_vjp_x, _div_vjp_y)
defprimitive("neg", np.negative, lambda ans, x: np.negative)
defprimitive("pow", _pow, _pow_vjp, record=("exponent",))


# Unary math ------------------------------------------------------------ #
def _sigmoid(x, out=None):
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _relu(x, out=None):
    return np.multiply(x, x > 0, out=out)


def _relu_vjp(ans, x):
    mask = x > 0
    return lambda g: g * mask


def _clip(x, out=None, *, minimum, maximum):
    return np.clip(x, minimum, maximum, out=out)


def _clip_vjp(ans, x, *, minimum, maximum):
    mask = np.ones_like(x)
    if minimum is not None:
        mask = mask * (x >= minimum)
    if maximum is not None:
        mask = mask * (x <= maximum)
    return lambda g: g * mask


defprimitive("exp", np.exp, lambda ans, x: lambda g: g * ans)
defprimitive("log", np.log, lambda ans, x: lambda g: g / x)
defprimitive("sqrt", np.sqrt, lambda ans, x: lambda g: g * 0.5 / np.maximum(ans, 1e-12))
defprimitive("abs", np.absolute, lambda ans, x: lambda g: g * np.sign(x))
defprimitive("tanh", np.tanh, lambda ans, x: lambda g: g * (1.0 - ans**2))
defprimitive("sigmoid", _sigmoid, lambda ans, x: lambda g: g * ans * (1.0 - ans))
defprimitive("relu", _relu, _relu_vjp)
defprimitive("clip", _clip, _clip_vjp, record=("minimum", "maximum"))

# Comparisons: boolean conditions for ``where``, recorded like any other op.
defprimitive("greater", np.greater)
defprimitive("greater_equal", np.greater_equal)
defprimitive("less_equal", np.less_equal)


# Reductions ------------------------------------------------------------ #
def _sum(x, out=None, *, axis, keepdims):
    return x.sum(axis=axis, keepdims=keepdims, out=out)


def _sum_vjp(ans, x, *, axis, keepdims):
    shape = x.shape

    def vjp(grad: np.ndarray) -> np.ndarray:
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return np.broadcast_to(grad, shape).copy()

    return vjp


def _max(x, out=None, *, axis, keepdims):
    return x.max(axis=axis, keepdims=keepdims, out=out)


def _max_vjp(ans, x, *, axis, keepdims):
    data = ans

    def vjp(grad: np.ndarray) -> np.ndarray:
        expanded_data = data
        expanded_grad = grad
        if axis is not None and not keepdims:
            expanded_data = np.expand_dims(data, axis)
            expanded_grad = np.expand_dims(grad, axis)
        mask = x == expanded_data
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return expanded_grad * mask / counts

    return vjp


defprimitive("sum", _sum, _sum_vjp, record=("axis", "keepdims"))
defprimitive("max", _max, _max_vjp, record=("axis", "keepdims"))


# Shape manipulation ---------------------------------------------------- #
# View ops: a compiled instance calls the kernel once at build time on the
# parent buffer; a view replays for free, a copy (a non-contiguous reshape,
# an advanced index) re-copies into its slot on every replay.
def _reshape(x, out=None, *, shape):
    if out is None:
        return x.reshape(shape)
    np.copyto(out.reshape(x.shape), x)
    return out


def _transpose(x, out=None, *, axes):
    return _into(out, x.transpose(axes))


def _transpose_vjp(ans, x, *, axes):
    inverse = np.argsort(axes)
    return lambda g: g.transpose(inverse)


def _expand_dims(x, out=None, *, axis):
    return _into(out, np.expand_dims(x, axis))


def _squeeze(x, out=None, *, axis):
    return _into(out, np.squeeze(x, axis=axis))


def _getitem(x, out=None, *, index):
    return _into(out, x[index])


def _getitem_vjp(ans, x, *, index):
    original_shape = x.shape
    dtype = x.dtype
    basic = _is_basic_index(index)

    def vjp(grad: np.ndarray) -> np.ndarray:
        full = np.zeros(original_shape, dtype=dtype)
        if basic:
            # Basic (slice/int) indexing never selects the same element
            # twice, so a plain assignment matches ``np.add.at`` while
            # skipping its slow scatter machinery.
            full[index] = grad
        else:
            np.add.at(full, index, grad)
        return full

    return vjp


def _pad(x, out=None, *, shape, interior):
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    out.fill(0)
    out[interior] = x
    return out


def _pad_vjp(ans, x, *, shape, interior):
    return lambda g: g[interior]


defprimitive("reshape", _reshape, _restore_shape, record=("shape",), view=True)
defprimitive("transpose", _transpose, _transpose_vjp, record=("axes",), view=True)
defprimitive(
    "expand_dims",
    _expand_dims,
    lambda ans, x, *, axis: lambda g: np.squeeze(g, axis=axis),
    record=("axis",),
    view=True,
)
defprimitive("squeeze", _squeeze, _restore_shape, record=("axis",), view=True)
defprimitive("getitem", _getitem, _getitem_vjp, record=("index",), view=True)
defprimitive("pad", _pad, _pad_vjp, record=("shape", "interior"))


# Linear algebra -------------------------------------------------------- #
def _matmul(a, b, out=None):
    return _matmul_execute(a, b, out)


def _matmul_vjp_a(ans, x, y):
    a = x.shape
    if x.ndim == 1 and y.ndim == 1:
        return lambda g: g * y
    if x.ndim == 1:
        # (m,) @ (..., m, p) -> (..., p)
        return lambda g: _unbroadcast((g[..., None, :] * y).sum(axis=-1), a)
    if y.ndim == 1:
        # (..., n, m) @ (m,) -> (..., n)
        return lambda g: _unbroadcast(g[..., :, None] * y, a)
    return lambda g: _unbroadcast(g @ np.swapaxes(y, -1, -2), a)


def _matmul_vjp_b(ans, x, y):
    b = y.shape
    if x.ndim == 1 and y.ndim == 1:
        return lambda g: g * x
    if x.ndim == 1:
        return lambda g: _unbroadcast(x[..., :, None] * g[..., None, :], b)
    if y.ndim == 1:
        return lambda g: _unbroadcast(
            (x * g[..., :, None]).sum(axis=tuple(range(x.ndim - 1))), b
        )
    return lambda g: _unbroadcast(np.swapaxes(x, -1, -2) @ g, b)


def _spmm(x, out=None, *, matrix, transpose=None):
    return _spmm_leading(matrix, x, out)


def _spmm_vjp(ans, x, *, matrix, transpose=None):
    transposed = transpose if transpose is not None else matrix.T
    return lambda g: _spmm_leading(transposed, g)


def _spmm_multi(x, out=None, *, stacked, count, rows, transpose=None):
    moved = np.moveaxis(x, -2, 0)  # (N, ..., C), a view
    lead = moved.shape[1:]
    flat = moved.reshape(stacked.shape[1], -1)  # (N, L); copies iff non-contiguous
    product = stacked @ flat  # (S*rows, L): the single fused traversal
    # (S, rows, ..., C) -> (..., rows, S, C), written straight into the
    # (..., rows, S*C) result.
    blocks = np.moveaxis(product.reshape(count, rows, *lead), (0, 1), (-2, -3))
    if out is None:
        out = np.empty(x.shape[:-2] + (rows, count * x.shape[-1]), dtype=product.dtype)
    np.copyto(out.reshape(blocks.shape), blocks)
    return out


def _spmm_multi_vjp(ans, x, *, stacked, count, rows, transpose=None):
    size = stacked.shape[1]
    lead = x.shape[:-2] + x.shape[-1:]
    channels = x.shape[-1]
    transposed = transpose if transpose is not None else stacked.T

    def vjp(grad: np.ndarray) -> np.ndarray:
        # (..., rows, S*C) -> (S, rows, ..., C) -> (S*rows, L)
        g_blocks = grad.reshape(grad.shape[:-1] + (count, channels))
        g_moved = np.moveaxis(g_blocks, (-2, -3), (0, 1))
        g_flat = np.ascontiguousarray(g_moved).reshape(count * rows, -1)
        x_grad = transposed @ g_flat  # (N, L): sum_s A_s^T grad_s, fused
        return np.ascontiguousarray(np.moveaxis(x_grad.reshape(size, *lead), 0, -2))

    return vjp


def _halo_gather(x, out=None, *, exchange, spec):
    return exchange.gather(x, spec, out=out)


defprimitive("matmul", _matmul, _matmul_vjp_a, _matmul_vjp_b)
defprimitive("spmm", _spmm, _spmm_vjp, record=("matrix",))
defprimitive("spmm_multi", _spmm_multi, _spmm_multi_vjp, record=("stacked", "count", "rows"))
# Inference-only (``PartitionContext`` refuses grad mode before gathering),
# so it has no VJP.  The exchange and spec are bound to one forecaster's
# shard threads and do not serialise: a program using it stays unshared.
defprimitive("halo_gather", _halo_gather, record=("exchange", "spec"), shareable=False)


# Joining and selection ------------------------------------------------- #
def _concatenate(*arrays, out=None, axis):
    return np.concatenate(arrays, axis=axis, out=out)


def _concatenate_vjp(argnum, ans, *arrays, axis):
    start = sum(array.shape[axis] for array in arrays[:argnum])
    return _take_along(axis, slice(start, start + arrays[argnum].shape[axis]))


def _stack(*arrays, out=None, axis):
    return np.stack(arrays, axis=axis, out=out)


def _where(condition, a, b, out=None):
    if out is None:
        shape = np.broadcast_shapes(condition.shape, a.shape, b.shape)
        out = np.empty(shape, dtype=np.result_type(a, b))
    np.copyto(out, b)
    np.copyto(out, a, where=condition)
    return out


def _where_vjp_a(ans, condition, a, b):
    a_shape = a.shape
    return lambda g: _unbroadcast(g * condition, a_shape)


def _where_vjp_b(ans, condition, a, b):
    b_shape = b.shape
    return lambda g: _unbroadcast(g * ~condition, b_shape)


defprimitive("concatenate", _concatenate, vjp=_concatenate_vjp, record=("axis",))
defprimitive(
    "stack",
    _stack,
    vjp=lambda argnum, ans, *arrays, axis: _take_along(axis, argnum),
    record=("axis",),
)
# The condition is an operand that never requires grad: it has no VJP.
defprimitive("where", _where, None, _where_vjp_a, _where_vjp_b)
