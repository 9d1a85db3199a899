"""Compiled op-list programs: the replay half of the tracing layer.

A :class:`ProgramStructure` is the declarative capture of one forward pass
through the tensor engine (an eval-mode ``no_grad`` forward: programs have
no backward): a flat list of :class:`Slot` buffers and :class:`Node`
operations recorded by :mod:`repro.tensor.trace`.  A
:class:`ProgramInstance` binds the structure to concrete NumPy buffers (the
arena) and pre-builds one closure per node, so a replay is a plain
``for kernel in kernels: kernel()`` with zero Tensor dispatch, zero graph
construction and no per-step allocations for intermediates.

Bit-parity contract
-------------------
Every kernel runs the *same ufunc sequence* as the eager op it was captured
from (``out=`` targets do not change NumPy's arithmetic), so replayed values
are bit-identical to the untraced forward.
"""

from __future__ import annotations

import numpy as np

from .tensor import _matmul_execute, _spmm_leading, _spmm_product

__all__ = [
    "Slot",
    "Node",
    "ProgramStructure",
    "ProgramInstance",
    "UntraceableError",
]

# Slot kinds.
INPUT = "input"
PARAM = "param"
CONST = "const"
INTER = "inter"
AUX = "aux"

# Ops whose eager result is a view of the parent buffer: the instance derives
# the view once at build time and the replay executes no kernel at all.
_VIEW_OPS = {"reshape", "transpose", "expand_dims", "squeeze", "getitem"}


class UntraceableError(RuntimeError):
    """Raised at capture/build time when a graph cannot be compiled."""


class Slot:
    """One named buffer of the program arena."""

    __slots__ = ("index", "kind", "shape", "dtype", "name", "array", "leaf")

    def __init__(self, index, kind, shape, dtype, name=None, array=None, leaf=None):
        self.index = index
        self.kind = kind
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.name = name  # dotted parameter name for PARAM slots
        self.array = array  # shared array for CONST slots
        self.leaf = leaf  # owning Tensor for non-rebindable leaves

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize


class Node:
    """One recorded operation: ``op(env[ins...]) -> env[out]``."""

    __slots__ = ("op", "ins", "out", "params")

    def __init__(self, op, ins, out, params=None):
        self.op = op
        self.ins = tuple(ins)
        self.out = out
        self.params = params or {}


class ProgramStructure:
    """Declarative op-list program shared across same-architecture models."""

    def __init__(self, slots, nodes, input_slot, out_slot, shareable):
        self.slots: list[Slot] = slots
        self.nodes: list[Node] = nodes
        self.input_slot: int = input_slot
        self.out_slot: int = out_slot
        # True when every parameter leaf binds by name, so the structure can
        # be re-instantiated for another model of the same architecture
        # (ModelPool tenants sharing one compiled program).
        self.shareable: bool = shareable


def _plan_slot_reuse(structure: ProgramStructure):
    """Time-share INTER buffers across disjoint-lifetime slots.

    Every program is forward-only, and a forward never revisits an
    intermediate once its last consumer has run, so one physical buffer can
    serve many slots.  That shrinks the replay arena from one buffer per
    node to roughly the live width of the graph — small enough to stay
    cache-resident, which is where replay otherwise loses to eager (the
    allocator hands eager freshly recycled, cache-hot arrays).

    Returns ``{slot_index: physical_id}`` for the INTER slots that draw
    from the shared pool.  The op list is flat (a recurrent model records
    its cell once per time step), so the plan covers every program.
    """
    nodes = structure.nodes
    slots = structure.slots
    # Views alias their parent's storage, so lifetimes are tracked per
    # storage root: a read through any view keeps the root's buffer live.
    root = list(range(len(slots)))
    for node in nodes:
        if node.op in _VIEW_OPS:
            root[node.out] = root[node.ins[0]]
    last_use = [-1] * len(slots)
    for i, node in enumerate(nodes):
        for s in node.ins:
            last_use[root[s]] = i
    last_use[root[structure.out_slot]] = len(nodes)  # result: never reclaimed

    expire_at: dict[int, list[int]] = {}
    for index, slot in enumerate(slots):
        if slot.kind == INTER and root[index] == index:
            expire_at.setdefault(last_use[index], []).append(index)

    assign: dict[int, int] = {}
    pid_of_root: dict[int, int] = {}
    free: dict[tuple, list[int]] = {}
    next_id = 0
    for i, node in enumerate(nodes):
        out = slots[node.out]
        if out.kind == INTER and root[node.out] == node.out and node.op not in _VIEW_OPS:
            key = (out.dtype, out.shape)
            stack = free.get(key)
            if stack:
                pid = stack.pop()
            else:
                pid = next_id
                next_id += 1
            assign[node.out] = pid
            pid_of_root[node.out] = pid
        # Reclaim strictly *after* this node's own allocation, so an out
        # buffer never aliases one of the node's inputs (matmul/copyto and
        # reductions are not overlap-safe).
        for expired in expire_at.get(i, ()):
            pid = pid_of_root.pop(expired, None)
            if pid is not None:
                dead = slots[expired]
                free.setdefault((dead.dtype, dead.shape), []).append(pid)
    return assign


class ProgramInstance:
    """A structure bound to concrete buffers + prebuilt kernels."""

    def __init__(self, structure: ProgramStructure, model):
        self.structure = structure
        slots = structure.slots
        env: list[np.ndarray | None] = [None] * len(slots)
        params = None
        for slot in slots:
            if slot.kind == CONST:
                env[slot.index] = slot.array
            elif slot.kind == PARAM:
                if slot.name is not None:
                    if params is None:
                        params = dict(model.named_parameters())
                    tensor = params.get(slot.name)
                    if tensor is None:
                        raise UntraceableError(f"model has no parameter {slot.name!r}")
                else:
                    tensor = slot.leaf
                    if tensor is None:
                        raise UntraceableError("unbindable leaf slot")
                if tensor.data.shape != slot.shape or tensor.data.dtype != slot.dtype:
                    raise UntraceableError(
                        f"parameter {slot.name!r} changed shape/dtype since capture"
                    )
                env[slot.index] = tensor.data
            elif slot.kind in (INPUT, AUX):
                env[slot.index] = np.empty(slot.shape, dtype=slot.dtype)
            # INTER slots are allocated (or view-derived) in node order below.
        self.env = env
        self.busy = False

        # Materialise INTER slots (drawing from the reuse pool or deriving
        # views) in node order, then build the kernel list.
        plan = _plan_slot_reuse(structure)
        pool: dict[int, np.ndarray] = {}
        self.forward_kernels: list = []
        for node in structure.nodes:
            self._materialise_out(node, plan, pool)
            kernel = _build_forward(node, self.env)
            if kernel is not None:
                self.forward_kernels.append(kernel)

    # ------------------------------------------------------------------ #
    def _materialise_out(self, node: Node, plan: dict, pool: dict) -> None:
        slots = self.structure.slots
        out = slots[node.out]
        if self.env[node.out] is not None:
            return
        if out.kind != INTER:
            if out.kind == AUX:
                return  # already allocated
            raise UntraceableError(f"node writes non-inter slot {out.kind}")
        if node.op in _VIEW_OPS:
            parent = self.env[node.ins[0]]
            view = _derive_view(node, parent)
            if view is not None:
                self.env[node.out] = view
                return
        pid = plan.get(node.out)
        if pid is not None:
            buf = pool.get(pid)
            if buf is None:
                buf = pool[pid] = np.empty(out.shape, dtype=out.dtype)
            self.env[node.out] = buf
            return
        self.env[node.out] = np.empty(out.shape, dtype=out.dtype)

    # ------------------------------------------------------------------ #
    def run_forward(self, input_array: np.ndarray) -> np.ndarray:
        np.copyto(self.env[self.structure.input_slot], input_array)
        for kernel in self.forward_kernels:
            kernel()
        return self.env[self.structure.out_slot]

    def arena_nbytes(self) -> int:
        """Bytes of the buffers this instance owns, each counted once: pooled
        slots share one buffer, and a view-derived slot owns none."""
        owned = {
            id(array): array.nbytes
            for slot, array in zip(self.structure.slots, self.env)
            if slot.kind in (INPUT, INTER, AUX) and array is not None and array.base is None
        }
        return sum(owned.values())


# ---------------------------------------------------------------------- #
# View derivation
# ---------------------------------------------------------------------- #
def _derive_view(node: Node, parent: np.ndarray):
    op, p = node.op, node.params
    if op == "reshape":
        view = parent.reshape(p["shape"])
        return view if view.base is not None or view is parent else None
    if op == "transpose":
        return parent.transpose(p["axes"])
    if op == "expand_dims":
        return np.expand_dims(parent, p["axis"])
    if op == "squeeze":
        return np.squeeze(parent, axis=p["axis"])
    if op == "getitem" and p["basic"]:
        return parent[p["index"]]
    return None


# ---------------------------------------------------------------------- #
# Forward kernel builders
# ---------------------------------------------------------------------- #
def _build_forward(node: Node, env: list):
    op, p = node.op, node.params
    o = env[node.out]
    ins = [env[i] for i in node.ins]

    if op in _VIEW_OPS:
        if o.base is not None or (ins and o is ins[0]):
            return None  # derived view: replay is free
        # Copying variant (non-contiguous reshape / advanced getitem).
        if op == "reshape":
            target = o.reshape(ins[0].shape)
            src = ins[0]
            return lambda: np.copyto(target, src)
        if op == "getitem":
            src, index = ins[0], p["index"]
            return lambda: np.copyto(o, src[index])
        raise UntraceableError(f"{op} produced an unexpected copy")

    if op == "add":
        a, b = ins
        return lambda: np.add(a, b, out=o)
    if op == "sub":
        a, b = ins
        return lambda: np.subtract(a, b, out=o)
    if op == "mul":
        a, b = ins
        return lambda: np.multiply(a, b, out=o)
    if op == "div":
        a, b = ins
        return lambda: np.divide(a, b, out=o)
    if op == "neg":
        (a,) = ins
        return lambda: np.negative(a, out=o)
    if op == "pow":
        (a,) = ins
        e = p["exponent"]
        return lambda: np.power(a, e, out=o)
    if op == "exp":
        (a,) = ins
        return lambda: np.exp(a, out=o)
    if op == "log":
        (a,) = ins
        return lambda: np.log(a, out=o)
    if op == "sqrt":
        (a,) = ins
        return lambda: np.sqrt(a, out=o)
    if op == "abs":
        (a,) = ins
        return lambda: np.absolute(a, out=o)
    if op == "tanh":
        (a,) = ins
        return lambda: np.tanh(a, out=o)
    if op == "sigmoid":
        (a,) = ins

        def sigmoid_kernel():
            np.negative(a, out=o)
            np.exp(o, out=o)
            np.add(o, 1.0, out=o)
            np.divide(1.0, o, out=o)

        return sigmoid_kernel
    if op == "relu":
        (a,) = ins
        mask = env[p["mask"]]

        def relu_kernel():
            np.greater(a, 0, out=mask)
            np.multiply(a, mask, out=o)

        return relu_kernel
    if op == "clip":
        (a,) = ins
        lo, hi = p["minimum"], p["maximum"]
        return lambda: np.clip(a, lo, hi, out=o)
    if op == "sum":
        (a,) = ins
        axis, keepdims = p["axis"], p["keepdims"]
        return lambda: np.sum(a, axis=axis, keepdims=keepdims, out=o)
    if op == "max":
        (a,) = ins
        axis, keepdims = p["axis"], p["keepdims"]
        return lambda: np.amax(a, axis=axis, keepdims=keepdims, out=o)
    if op == "pad":
        (a,) = ins
        interior = o[p["slices"]]

        def pad_kernel():
            o.fill(0)
            np.copyto(interior, a)

        return pad_kernel
    if op == "matmul":
        a, b = ins
        if a.ndim >= 2 and b.ndim >= 2:
            return lambda: _matmul_execute(a, b, out=o)
        return lambda: np.copyto(o, a @ b)
    if op == "spmm":
        (a,) = ins
        matrix = p["matrix"]
        return lambda: np.copyto(o, _spmm_leading(matrix, a))
    if op == "spmm_multi":
        (a,) = ins
        stacked, count = p["stacked"], p["count"]
        size = stacked.shape[1]
        rows = p.get("rows", size)
        moved_shape = np.moveaxis(a, -2, 0).shape
        lead = moved_shape[1:]
        # Gather the node axis into a reusable contiguous buffer (the eager
        # path reallocates this reshape every call) and write the result
        # straight through a strided view of the out slot instead of
        # materialising ``blocks`` twice.
        flat_buf = np.empty(
            (size, int(np.prod(lead, dtype=np.int64))), dtype=a.dtype
        )
        flat_view = flat_buf.reshape(moved_shape)
        o_blocks = np.moveaxis(
            o.reshape(o.shape[:-1] + (count, o.shape[-1] // count)), (-2, -3), (0, 1)
        )

        def spmm_multi_kernel():
            np.copyto(flat_view, np.moveaxis(a, -2, 0))
            product = _spmm_product(stacked, flat_buf)
            np.copyto(o_blocks, product.reshape(count, rows, *lead))

        return spmm_multi_kernel
    if op == "halo_gather":
        (a,) = ins
        exchange, spec = p["exchange"], p["spec"]
        return lambda: exchange.gather(a, spec, out=o)
    if op == "concatenate":
        axis = p["axis"]
        views = []
        offset = 0
        for src in ins:
            index = [slice(None)] * o.ndim
            index[axis] = slice(offset, offset + src.shape[axis])
            views.append((o[tuple(index)], src))
            offset += src.shape[axis]

        def concat_kernel():
            for view, src in views:
                np.copyto(view, src)

        return concat_kernel
    if op == "stack":
        axis = p["axis"]
        views = []
        for position, src in enumerate(ins):
            index = [slice(None)] * o.ndim
            index[axis] = position
            views.append((o[tuple(index)], src))

        def stack_kernel():
            for view, src in views:
                np.copyto(view, src)

        return stack_kernel
    if op == "where":
        a, b = ins
        cond = env[p["condition"]]

        def where_kernel():
            np.copyto(o, b)
            np.copyto(o, a, where=cond)

        return where_kernel
    if op == "refresh_cond":
        ufunc = getattr(np, p["ufunc"])
        if len(ins) == 2:
            a, b = ins
            return lambda: ufunc(a, b, out=o)
        (a,) = ins
        scalar = p["scalar"]
        return lambda: ufunc(a, scalar, out=o)
    if op == "refresh_amax":
        (a,) = ins
        axis = p["axis"]
        return lambda: np.amax(a, axis=axis, keepdims=True, out=o)
    raise UntraceableError(f"no forward kernel for op {node.op!r}")
