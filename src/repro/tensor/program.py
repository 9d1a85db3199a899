"""Compiled op-list programs: the replay half of the tracing layer.

A :class:`ProgramStructure` is the declarative capture of one forward pass
through the tensor engine (an eval-mode ``no_grad`` forward: programs have
no backward): a flat list of :class:`Slot` buffers and :class:`Node`
operations recorded by :mod:`repro.tensor.trace`.  A
:class:`ProgramInstance` binds the structure to concrete NumPy buffers (the
arena) and pre-binds one closure per node, so a replay is a plain
``for kernel in kernels: kernel()`` with zero Tensor dispatch, zero graph
construction and no per-step allocations for intermediates.

Bit-parity contract
-------------------
A node's closure is the op-table kernel (:data:`repro.tensor.tensor.PRIMITIVES`)
that computed the eager op, called with ``out=`` set to the node's arena
slot.  Eager and replay run one kernel, so replayed values are bit-identical
to the untraced forward by construction.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .tensor import PRIMITIVES

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


def _primitive(op: str):
    prim = PRIMITIVES.get(op)
    if prim is None:
        raise UntraceableError(f"no op-table entry for {op!r}")
    return prim


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
    views = [_primitive(node.op).view for node in nodes]
    for node, view in zip(nodes, views):
        if view:
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
    for i, (node, view) in enumerate(zip(nodes, views)):
        out = slots[node.out]
        if out.kind == INTER and root[node.out] == node.out and not view:
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
            elif slot.kind == INPUT:
                env[slot.index] = np.empty(slot.shape, dtype=slot.dtype)
            # INTER slots are allocated (or view-derived) in node order below.
        self.env = env
        self.busy = False

        plan = _plan_slot_reuse(structure)
        pool: dict[int, np.ndarray] = {}
        self.forward_kernels: list = []
        for node in structure.nodes:
            kernel = self._bind(node, plan, pool)
            if kernel is not None:
                self.forward_kernels.append(kernel)

    # ------------------------------------------------------------------ #
    def _bind(self, node: Node, plan: dict, pool: dict):
        """Materialise ``node``'s out slot and bind its table kernel to it.

        A view op's kernel runs once here on the parent buffer: when it
        returns a view, the slot *is* that view and the node replays for
        free; otherwise the kernel copies into the slot on every replay.
        """
        prim = _primitive(node.op)
        out = self.structure.slots[node.out]
        if out.kind != INTER:
            raise UntraceableError(f"node writes non-inter slot {out.kind}")
        ins = [self.env[i] for i in node.ins]
        if prim.view:
            view = prim.kernel(*ins, **node.params)
            if np.may_share_memory(view, ins[0]):
                self.env[node.out] = view
                return None
        pid = plan.get(node.out)
        buf = pool.get(pid) if pid is not None else None
        if buf is None:
            buf = np.empty(out.shape, dtype=out.dtype)
            if pid is not None:
                pool[pid] = buf
        self.env[node.out] = buf
        return partial(prim.kernel, *ins, out=buf, **node.params)

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
            if slot.kind in (INPUT, INTER) and array is not None and array.base is None
        }
        return sum(owned.values())
