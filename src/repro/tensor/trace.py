"""Tape capture for compiled execution of eval-mode ``no_grad`` forwards.

On the first call for a ``(model, kind, input-shape, dtype, graph, knobs)``
key, :func:`run_compiled` runs the model eagerly under a thread-local
:class:`Tape`.  Every op result is made by ``Tensor._make`` from an op-table
primitive, and the tape records each one — its operands' slots and the
params its table entry names — into an explicit forward-only op-list
:class:`~repro.tensor.program.ProgramStructure`.  That is the only
recording channel: a ``where`` condition or a softmax shift is an ordinary
recorded op.  The list is flat: recurrent models step through time in a
plain Python loop (:func:`scan`), so their cell records once per time step.
Subsequent calls replay the program through arena-bound kernels (see
:mod:`repro.tensor.program`) — bit-identical to the untraced forward — and
fall back to eager execution transparently on shape misses, unknown ops or
data-dependent constants.  Training forwards never compile: they run on the
autograd tape, whose backward frees the graph as it goes.

The cache is keyed like the diffusion-support cache (content + sparse-knob
state + dtype) and byte-bounded with LRU eviction; same-architecture models
(e.g. ``ModelPool`` tenants) share one compiled structure, re-bound to their
own parameters by name.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from collections import OrderedDict

from . import tensor as _T
from .program import (
    CONST,
    INPUT,
    INTER,
    PARAM,
    Node,
    ProgramInstance,
    ProgramStructure,
    Slot,
    UntraceableError,
)
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "set_traced_execution",
    "get_traced_execution",
    "traced_execution",
    "run_compiled",
    "scan",
    "declare_const",
    "program_cache_stats",
    "clear_program_cache",
    "set_program_cache_limit",
    "export_structures",
    "install_structures",
    "forget_model",
]


# ---------------------------------------------------------------------- #
# Global switches and cache state
# ---------------------------------------------------------------------- #
_ENABLED = True
_LOCK = threading.RLock()
_MAX_INSTANCES = 4  # per (model, key): concurrent replays (serving threads)
_LIMIT_BYTES = 256 * 1024 * 1024
_MAX_STRUCTURES = 128

_MODEL_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ENTRY_LRU: "OrderedDict[int, _Entry]" = OrderedDict()
_STRUCTURES: "OrderedDict[tuple, ProgramStructure]" = OrderedDict()
_cache_bytes = 0

_STATS = {
    "captures": 0,
    "replays": 0,
    "eager_calls": 0,
    "untraceable": 0,
    "shape_misses": 0,
    "structure_hits": 0,
    "instance_builds": 0,
    "overflow_fallbacks": 0,
    "evictions": 0,
}


def set_traced_execution(enabled: bool) -> bool:
    """Globally enable/disable tape capture + replay (the eager escape hatch)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def get_traced_execution() -> bool:
    return _ENABLED


@contextlib.contextmanager
def traced_execution(enabled: bool):
    """Context manager that temporarily flips traced execution."""
    previous = set_traced_execution(enabled)
    try:
        yield
    finally:
        set_traced_execution(previous)


def set_program_cache_limit(max_bytes: int) -> None:
    global _LIMIT_BYTES
    _LIMIT_BYTES = int(max_bytes)
    with _LOCK:
        _evict()


def program_cache_stats() -> dict:
    """Counters + sizes of the compiled-program cache (mirrors support_cache_stats)."""
    with _LOCK:
        stats = dict(_STATS)
        stats["entries"] = len(_ENTRY_LRU)
        stats["structures"] = len(_STRUCTURES)
        stats["bytes"] = _cache_bytes
        stats["limit_bytes"] = _LIMIT_BYTES
        stats["enabled"] = _ENABLED
    return stats


def clear_program_cache() -> None:
    global _cache_bytes
    with _LOCK:
        _MODEL_CACHE.clear()
        _ENTRY_LRU.clear()
        _STRUCTURES.clear()
        _cache_bytes = 0
        for key in _STATS:
            _STATS[key] = 0


def export_structures() -> list[tuple[tuple, ProgramStructure]]:
    """Snapshot the shareable compiled structures as (fingerprint, structure).

    Fingerprints are content-based (architecture signature + graph digests
    + sparse-knob token), so a structure exported here installs verbatim
    into another process serving the same architecture on a graph with
    identical content — see :mod:`repro.tensor.serialize` for the wire
    format and :func:`install_structures` for the receiving side.
    """
    with _LOCK:
        return [
            (fingerprint, structure)
            for fingerprint, structure in _STRUCTURES.items()
            if structure.shareable
        ]


def install_structures(items) -> int:
    """Install externally captured structures into the shared-structure map.

    Models whose :func:`run_compiled` fingerprint matches then build replay
    instances directly (a ``structure_hit``) instead of re-capturing.
    Existing fingerprints are kept (first capture wins — both sides are
    bit-identical by construction).  Returns how many were newly installed.
    """
    installed = 0
    with _LOCK:
        for fingerprint, structure in items:
            if not structure.shareable or fingerprint in _STRUCTURES:
                continue
            _STRUCTURES[fingerprint] = structure
            installed += 1
        _evict()
    return installed


def forget_model(model) -> int:
    """Drop every compiled entry/instance bound to ``model``'s buffers.

    Needed when a model's parameter *arrays are replaced* (not updated in
    place) — e.g. a serving worker rebinding from zero-copy shared-memory
    views to private snapshots: existing :class:`ProgramInstance` arenas
    still reference the old buffers and would replay stale weights.  The
    shared structures survive (they hold no parameter data); the next call
    re-instantiates against the new buffers.  Returns entries dropped.
    """
    global _cache_bytes
    with _LOCK:
        per_model = _MODEL_CACHE.pop(model, None)
        if not per_model:
            return 0
        for entry in per_model.values():
            _ENTRY_LRU.pop(entry.token, None)
            _cache_bytes -= entry.nbytes
            entry.nbytes = 0
            entry.instances.clear()
            entry.structure = None
            entry.status = "empty"
        return len(per_model)


def _knob_token() -> tuple:
    """Sparse-knob + dtype state; any change invalidates compiled programs."""
    token = (str(_T.get_default_dtype()),)
    try:
        from ..graph import sparse as spk

        token += (
            spk.get_spatial_mode(),
            spk.get_density_threshold(),
            spk.get_fused_spmm(),
        )
    except Exception:
        pass
    return token


# ---------------------------------------------------------------------- #
# The tape
# ---------------------------------------------------------------------- #
class Tape:
    """Records the ``Tensor._make`` graph of one model call as an op list."""

    def __init__(self):
        self.ok = True
        self.reason = None
        self.slots: list[Slot] = []
        self.nodes: list[Node] = []
        # id(obj) -> (slot, weakref to obj): the tape pins no intermediate, so
        # an entry counts only while its weakref still returns that object.
        self.tensor_slots: dict[int, tuple] = {}
        self.array_slots: dict[int, tuple] = {}
        self.fresh: set[int] = set()
        self.declared: set[int] = set()
        self.keep: list = []  # strong refs: keeps ``declared`` ids stable
        self.input_slot: int | None = None
        self.shareable = True

    # -------------------------------------------------------------- #
    def poison(self, reason: str) -> None:
        self.ok = False
        if self.reason is None:
            self.reason = reason

    def _new_slot(self, kind, shape, dtype, **kw) -> int:
        slot = Slot(len(self.slots), kind, shape, dtype, **kw)
        self.slots.append(slot)
        return slot.index

    def _bind(self, tensor: Tensor, index: int) -> None:
        self.tensor_slots[id(tensor)] = (index, weakref.ref(tensor))
        self.array_slots[id(tensor.data)] = (index, weakref.ref(tensor.data))

    @staticmethod
    def _lookup(table: dict, obj) -> int | None:
        """The slot bound to ``obj`` itself, never to a dead object whose id
        ``obj`` now reuses."""
        entry = table.get(id(obj))
        if entry is None or entry[1]() is not obj:
            return None
        return entry[0]

    def declare_input(self, tensor: Tensor) -> None:
        index = self._new_slot(INPUT, tensor.shape, tensor.dtype)
        self.input_slot = index
        self._bind(tensor, index)

    # -------------------------------------------------------------- #
    def resolve(self, tensor: Tensor) -> int | None:
        index = self._lookup(self.tensor_slots, tensor)
        if index is not None:
            return index
        index = self._lookup(self.array_slots, tensor.data)
        if index is not None and self.slots[index].shape == tensor.shape:
            # detach()/Tensor(x.data): a new wrapper over a traced buffer.
            self._bind(tensor, index)
            return index
        if tensor.requires_grad:
            if tensor._node is not None:
                self.poison("input graph crosses the capture boundary")
                return None
            index = self._new_slot(
                PARAM, tensor.shape, tensor.dtype, leaf=tensor
            )
            self._bind(tensor, index)
            return index
        # Constant: allowed when value-stable — pre-existing tensors, scalars
        # and explicitly declared constants.  A non-scalar tensor created
        # during capture may depend on the input, so it poisons the tape
        # (transparent eager fallback) instead of replaying stale data.
        if (
            id(tensor) in self.declared
            or tensor.data.ndim == 0
            or id(tensor) not in self.fresh
        ):
            index = self._new_slot(
                CONST, tensor.shape, tensor.dtype, array=tensor.data
            )
            self._bind(tensor, index)
            return index
        self.poison("data-dependent constant tensor created during capture")
        return None

    # -------------------------------------------------------------- #
    def record(self, out: Tensor, operands, prim, params: dict) -> None:
        """Append ``prim`` applied to ``operands`` as a node writing ``out``."""
        if not self.ok:
            return
        ins = []
        for operand in operands:
            index = self.resolve(operand)
            if index is None:
                return
            ins.append(index)
        if not prim.shareable:
            self.shareable = False
        out_index = self._new_slot(INTER, out.shape, out.dtype)
        self._bind(out, out_index)
        recorded = {name: params[name] for name in prim.record}
        self.nodes.append(Node(prim.name, ins, out_index, params=recorded))

    # -------------------------------------------------------------- #
    def finalize(self, out: Tensor, model) -> ProgramStructure | None:
        if not self.ok or not isinstance(out, Tensor):
            return None
        out_slot = self._lookup(self.tensor_slots, out)
        if out_slot is None or not self.nodes or out_slot == self.input_slot:
            return None
        if self.slots[out_slot].kind != INTER:
            return None
        names = {id(p): name for name, p in model.named_parameters()}
        shareable = self.shareable
        for slot in self.slots:
            if slot.kind == PARAM:
                slot.name = names.get(id(slot.leaf))
                if slot.name is None:
                    shareable = False
        return ProgramStructure(
            self.slots, self.nodes, self.input_slot, out_slot, shareable=shareable
        )


# Thread-local active-tape holder, installed into tensor.py's hook point.
_TAPE = _T._TAPE


def declare_const(tensor: Tensor) -> Tensor:
    """Mark a freshly created tensor as value-stable for the active tape.

    Recurrent models create zero hidden-state initialisers inside
    ``forward``; declaring them constant lets the tape capture them as
    shared const slots instead of rejecting them as data-dependent.
    """
    tape = _TAPE.tape
    if tape is not None:
        tape.declared.add(id(tensor))
        tape.keep.append(tensor)
    return tensor


def scan(body, xs: Tensor, h0: Tensor) -> Tensor:
    """Run ``h = body(xs[:, t], h)`` over the time axis of ``xs``.

    A plain Python loop: under tape capture the body records once per time
    step, so the compiled program stays a flat op list.  ``h0`` is declared
    constant, so a zero state created inside ``forward`` captures as a const
    slot instead of poisoning the tape.
    """
    h = declare_const(h0)
    for step in range(xs.shape[1]):
        h = body(xs[:, step], h)
    return h


# ---------------------------------------------------------------------- #
# Program cache + run_compiled
# ---------------------------------------------------------------------- #
class _Entry:
    __slots__ = ("structure", "status", "instances", "graph", "nbytes", "token")

    def __init__(self, token, graph):
        self.structure: ProgramStructure | None = None
        self.status = "empty"  # empty | ready | untraceable
        self.instances: list[ProgramInstance] = []
        self.graph = graph  # strong ref keeps the id() key stable
        self.nbytes = 0
        self.token = token


def _touch(entry: _Entry) -> None:
    _ENTRY_LRU[entry.token] = entry  # re-registers entries dropped by _evict
    _ENTRY_LRU.move_to_end(entry.token)


def _evict() -> None:
    global _cache_bytes
    while _cache_bytes > _LIMIT_BYTES and len(_ENTRY_LRU) > 1:
        token, entry = _ENTRY_LRU.popitem(last=False)
        _cache_bytes -= entry.nbytes
        entry.nbytes = 0
        entry.instances.clear()
        entry.status = "empty"
        entry.structure = None
        _STATS["evictions"] += 1
    while len(_STRUCTURES) > _MAX_STRUCTURES:
        _STRUCTURES.popitem(last=False)


def _entry_for(model, key, graph) -> _Entry:
    per_model = _MODEL_CACHE.get(model)
    if per_model is None:
        per_model = {}
        _MODEL_CACHE[model] = per_model
    entry = per_model.get(key)
    if entry is None:
        _STATS["shape_misses"] += 1
        entry = _Entry((id(model), key), graph)
        per_model[key] = entry
        _ENTRY_LRU[entry.token] = entry
    _touch(entry)
    return entry


def _graph_digest(graph):
    """Content token for a graph — shared structures bake its supports as consts."""
    if graph is None:
        return None
    source = getattr(graph, "csr", None)
    if source is None:
        source = getattr(graph, "adjacency", None)
    if source is None:
        return ("id", id(graph))
    try:
        from ..graph import sparse as _sparse

        return _sparse._cached_digest(source)
    except Exception:
        return ("id", id(graph))


def _fingerprint(model, key, graph):
    try:
        signature = tuple(
            (name, p.shape, str(p.dtype)) for name, p in model.named_parameters()
        )
    except Exception:
        return None
    # A structure's CONST slots bake the diffusion supports of both the
    # explicitly passed graph and the model's own network graph, so sharing
    # is only sound between models whose graphs have identical content.
    own = _graph_digest(getattr(getattr(model, "network", None), "graph", None))
    return (type(model).__qualname__, signature, key, own, _graph_digest(graph))


def _acquire(entry: _Entry, model) -> ProgramInstance | None:
    for instance in entry.instances:
        if not instance.busy:
            instance.busy = True
            return instance
    if len(entry.instances) >= _MAX_INSTANCES:
        _STATS["overflow_fallbacks"] += 1
        return None
    try:
        instance = ProgramInstance(entry.structure, model)
    except UntraceableError:
        entry.status = "untraceable"
        _STATS["untraceable"] += 1
        return None
    return _keep(entry, instance)


def _keep(entry: _Entry, instance: ProgramInstance) -> ProgramInstance:
    """Add a freshly built ``instance`` to ``entry``, busy, bytes counted."""
    global _cache_bytes
    _STATS["instance_builds"] += 1
    instance.busy = True
    entry.instances.append(instance)
    added = instance.arena_nbytes()
    entry.nbytes += added
    _cache_bytes += added
    _evict()
    return instance


def _capture(model, fn, x):
    tape = Tape()
    tape.declare_input(x)
    _TAPE.tape = tape
    try:
        out = fn(x)
    finally:
        _TAPE.tape = None
    _STATS["captures"] += 1
    if not isinstance(out, Tensor):
        return out, None
    structure = tape.finalize(out, model)
    return out, structure


def _replay(instance: ProgramInstance, x: Tensor) -> Tensor:
    out_buffer = instance.run_forward(x.data)
    _STATS["replays"] += 1
    out = Tensor(out_buffer.copy(), dtype=out_buffer.dtype)
    instance.busy = False
    return out


def run_compiled(model, fn, x, *, graph=None, kind="forward"):
    """Execute ``fn(x)``, replaying a compiled program where one applies.

    Only the forward of an eval-mode model under ``no_grad`` compiles: what
    :meth:`repro.models.base.STModel.predict` runs for serving and
    evaluation.  Every other call — a grad-mode training forward, or a
    training-mode ``no_grad`` forward such as RMIR scoring — runs ``fn(x)``
    on the autograd tape.  Training call sites still route through here
    with their ``kind``, so every model forward has one named seam.

    A compiled call is transparent: eager on the first call per key
    (capturing), on shape/dtype misses, on untraceable graphs, while another
    capture is active, and whenever traced execution is disabled.  ``graph``
    pins the program to a specific :class:`repro.graph.Graph` identity so
    augmented/evolved graphs never replay against stale supports.
    """
    if (
        not _ENABLED
        or is_grad_enabled()
        or getattr(model, "training", False)
        or not isinstance(x, Tensor)
        or x.requires_grad
        or _TAPE.tape is not None
    ):
        _STATS["eager_calls"] += 1
        return fn(x)
    from .partition import active_context as _partition_active

    pctx = _partition_active()
    key = (
        kind,
        x.shape,
        str(x.dtype),
        id(graph) if graph is not None else None,
        pctx.trace_token if pctx is not None else None,
        _knob_token(),
    )
    instance = None
    with _LOCK:
        entry = _entry_for(model, key, graph)
        if entry.status == "untraceable":
            _STATS["eager_calls"] += 1
            return fn(x)
        if entry.structure is None:
            fingerprint = _fingerprint(model, key, graph)
            shared = _STRUCTURES.get(fingerprint) if fingerprint else None
            if shared is not None and shared.shareable:
                try:
                    built = ProgramInstance(shared, model)  # validates binding
                except UntraceableError:
                    pass
                else:
                    entry.structure = shared
                    entry.status = "ready"
                    _STATS["structure_hits"] += 1
                    _STRUCTURES.move_to_end(fingerprint)
                    instance = _keep(entry, built)
        if entry.structure is not None and instance is None:
            instance = _acquire(entry, model)
            if instance is None:
                _STATS["eager_calls"] += 1
                return fn(x)

    if instance is not None:
        # Replay OUTSIDE the global lock: replays are instance-exclusive
        # (``busy``) and must not serialise process-wide — a partitioned
        # shard blocking in a halo gather inside its program would otherwise
        # deadlock every other shard against the cache lock.
        try:
            return _replay(instance, x)
        except Exception:
            instance.busy = False
            raise

    # Capture outside the lock: it runs the full eager forward.
    out, structure = _capture(model, fn, x)
    with _LOCK:
        if structure is None:
            entry.status = "untraceable"
            _STATS["untraceable"] += 1
        else:
            entry.structure = structure
            entry.status = "ready"
            if structure.shareable and fingerprint is not None:
                _STRUCTURES[fingerprint] = structure
                _evict()
    return out
