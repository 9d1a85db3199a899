"""Compiled op-list programs: the replay half of the tracing layer.

A :class:`ProgramStructure` is the declarative capture of one forward pass
through the tensor engine (an eval-mode ``no_grad`` forward: programs have
no backward): a flat list of :class:`Slot` buffers and :class:`Node`
operations recorded by :mod:`repro.tensor.trace`.  A
:class:`ProgramInstance` binds the structure to concrete NumPy buffers (the
arena) and pre-binds one closure per node, so a replay is a plain
``for kernel in kernels: kernel()`` with zero Tensor dispatch, zero graph
construction and no per-step allocations for intermediates.

Every non-view intermediate is a 64-byte-aligned byte range of one
``uint8`` pool per instance.  :func:`_plan_arena` places the ranges once per
structure so that slots whose lifetimes (writer to last reader) intersect
never share bytes: the pool is about the most bytes live at once, whatever
the shapes.

Bit-parity contract
-------------------
A node's closure is the op-table kernel (:data:`repro.tensor.tensor.PRIMITIVES`)
that computed the eager op, called with ``out=`` set to the node's arena
slot.  Eager and replay run one kernel, so replayed values are bit-identical
to the untraced forward by construction; the arena plan moves only buffers.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from .tensor import _GRAD_MODE, PRIMITIVES

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

_ALIGN = 64  # byte alignment of every pooled slot's offset


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

    @cached_property
    def arena_plan(self) -> tuple[int, dict[int, int]]:
        """:func:`_plan_arena` of this structure, shared by its instances."""
        return _plan_arena(self)


def _primitive(op: str):
    prim = PRIMITIVES.get(op)
    if prim is None:
        raise UntraceableError(f"no op-table entry for {op!r}")
    return prim


def _plan_arena(structure: ProgramStructure) -> tuple[int, dict[int, int]]:
    """Pack every non-view INTER slot into one byte pool by lifetime.

    A slot lives over the closed interval of node indices from the node
    that writes it to its last reader; the program output lives to
    ``len(nodes)``, so a replay never overwrites its result.  Views alias
    their parent's storage, so lifetimes are kept per storage root: a read
    through any view extends the root's interval.  Two slots may share
    bytes only when their intervals are disjoint, so a node's ``out`` never
    overlaps one of its own inputs (matmul, copyto and reductions are not
    overlap-safe).  Slots are placed largest first, each at the lowest
    64-byte-aligned offset that no live-overlapping slot occupies.

    Only buffer addresses follow from the plan: every node still runs the
    same table kernel on the same values in the same order, and each out
    slot is C-contiguous, so the replayed bits are those of eager.

    Returns ``(pool_bytes, {slot_index: byte_offset})``.
    """
    nodes = structure.nodes
    slots = structure.slots
    root = list(range(len(slots)))
    first: dict[int, int] = {}
    last: dict[int, int] = {}  # a slot nobody reads dies where it is written
    for i, node in enumerate(nodes):
        for s in node.ins:
            if root[s] in last:
                last[root[s]] = i
        if _primitive(node.op).view:
            root[node.out] = root[node.ins[0]]
        elif slots[node.out].kind == INTER:
            first[node.out] = last[node.out] = i
    if root[structure.out_slot] in last:
        last[root[structure.out_slot]] = len(nodes)

    placed: list[tuple[int, int, int, int]] = []  # (start, stop, born, dies)
    offsets: dict[int, int] = {}
    pool_bytes = 0
    for s in sorted(first, key=lambda s: (-slots[s].nbytes, first[s])):
        size = -(-slots[s].nbytes // _ALIGN) * _ALIGN
        lo, hi = first[s], last[s]
        offset = 0
        for start, stop in sorted(
            (start, stop) for start, stop, born, dies in placed if born <= hi and lo <= dies
        ):
            if offset + size <= start:
                break
            offset = max(offset, stop)
        offsets[s] = offset
        placed.append((offset, offset + size, lo, hi))
        pool_bytes = max(pool_bytes, offset + size)
    return pool_bytes, offsets


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

        pool_bytes, offsets = structure.arena_plan
        self.pool = np.empty(pool_bytes, dtype=np.uint8)
        self.forward_kernels: list = []
        for node in structure.nodes:
            kernel = self._bind(node, offsets)
            if kernel is not None:
                self.forward_kernels.append(kernel)

    # ------------------------------------------------------------------ #
    def _bind(self, node: Node, offsets: dict):
        """Materialise ``node``'s out slot and bind its table kernel to it.

        A planned slot is its byte range of the pool.  A view op's kernel
        runs once here on the parent buffer: when it returns a view, the
        slot *is* that view and the node replays for free; otherwise the
        kernel copies into a slot of its own on every replay.
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
        offset = offsets.get(node.out)
        if offset is None:
            buf = np.empty(out.shape, dtype=out.dtype)
        else:
            buf = self.pool[offset:offset + out.nbytes].view(out.dtype).reshape(out.shape)
        self.env[node.out] = buf
        return partial(prim.kernel, *ins, out=buf, **node.params)

    # ------------------------------------------------------------------ #
    def run_forward(self, input_array: np.ndarray) -> np.ndarray:
        """Replay the program on ``input_array``; returns the out slot.

        A shorter ``input_array`` (a batch bucket's first rows) has its last
        row repeated into the rest of the INPUT slot.  Runs with gradient
        recording off, as the captured forward did: the matmul kernel picks
        its gemm from the grad mode, so a replay from a grad-enabled caller
        would otherwise differ from eager in the last bits.
        """
        previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        try:
            target = self.env[self.structure.input_slot]
            if input_array.shape == target.shape:
                np.copyto(target, input_array)
            else:
                np.copyto(target[: len(input_array)], input_array)
                np.copyto(target[len(input_array):], input_array[-1])
            for kernel in self.forward_kernels:
                kernel()
        finally:
            _GRAD_MODE.enabled = previous
        return self.env[self.structure.out_slot]

    def arena_nbytes(self) -> int:
        """Bytes this instance owns: the pool plus the INPUT slot and the
        private buffers of view ops that copy.  A pooled or view-derived
        slot owns none."""
        owned = {
            id(array): array.nbytes
            for slot, array in zip(self.structure.slots, self.env)
            if slot.kind in (INPUT, INTER) and array is not None and array.base is None
        }
        return self.pool.nbytes + sum(owned.values())
