"""Exact memory-sharded execution: per-layer halo exchange.

Partitioned inference runs one forward per shard on a *node-sliced* input.
Every operation between spatial mixes is row-independent (elementwise maths,
channel matmuls through the block-aligned :func:`repro.tensor.tensor._matmul_execute`,
temporal convolutions), so each shard only ever holds its own ``n_k`` node
rows.  At a spatial mix the shard's local CSR block references a known set of
*halo* columns owned by other shards; :class:`HaloExchange` moves exactly
those rows between the shard threads, and the mix runs as a rectangular
``(n_k, n_k + halo)`` spmm whose per-row accumulation order is identical to
the unsharded kernel — outputs are bit-identical, per-shard activation
memory is ``O(N/K + halo)``.

The thread-local :class:`PartitionContext` is consulted by
:func:`repro.tensor.functional.spatial_mix` (and ``spatial_mix_multi``), by
:class:`repro.nn.SpatialAttention` and by ``STModel.check_input``; everything
else in the model zoo runs unchanged.
Gathers are recorded on the capture tape as ``halo_gather`` ops, so the
compiled replay path drives the same exchange.

Exchange protocol (push-based mailbox): at its ``r``-th gather a shard first
*deposits* a private copy of the halo rows each peer needs from it, then
assembles its own gathered operand, popping peer deposits as they arrive.
Deposits are copies, never views — under compiled replay the source buffers
are arena slots that are overwritten in place, so a lagging peer must never
read them directly.
"""

from __future__ import annotations

import contextlib
import itertools
import threading

import numpy as np

from ..exceptions import PartitionError
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "GatherSpec",
    "HaloExchange",
    "PartitionContext",
    "active_context",
    "partition_scope",
]

_TOKENS = itertools.count(1)


class _ContextHolder(threading.local):
    def __init__(self):
        self.context = None


_ACTIVE = _ContextHolder()


def active_context() -> "PartitionContext | None":
    """The partition context installed in this thread (or ``None``)."""
    return _ACTIVE.context


@contextlib.contextmanager
def partition_scope(context: "PartitionContext"):
    """Install ``context`` as this thread's active partition context."""
    previous = _ACTIVE.context
    _ACTIVE.context = context
    try:
        yield context
    finally:
        _ACTIVE.context = previous


class GatherSpec:
    """One shard's wiring for one partitioned support (or the full gather).

    ``sends`` lists ``(peer, local_rows)``: the local row indices whose
    values this shard must copy out for ``peer``.  ``recvs`` lists
    ``(peer, destination, count)`` where ``destination`` indexes the gathered
    operand's node axis (a slice for the grouped halo layout, an index array
    for the original-order full gather).  ``self_dest`` places the shard's
    own rows.  ``width`` is the gathered operand's node extent.
    """

    __slots__ = ("shard", "n_local", "width", "self_dest", "sends", "recvs")

    def __init__(self, shard, n_local, width, self_dest, sends, recvs):
        self.shard = int(shard)
        self.n_local = int(n_local)
        self.width = int(width)
        self.self_dest = self_dest
        self.sends = tuple(sends)
        self.recvs = tuple(recvs)

    @property
    def halo(self) -> int:
        return self.width - self.n_local

    def __repr__(self) -> str:
        return (
            f"GatherSpec(shard={self.shard}, n_local={self.n_local}, "
            f"halo={self.halo}, peers_in={len(self.recvs)}, peers_out={len(self.sends)})"
        )


def build_specs(plan, halos) -> list[GatherSpec]:
    """Wire per-shard :class:`GatherSpec` objects from a halo layout.

    ``halos[k]`` carries ``owned`` (sorted original ids), ``foreign`` (halo
    ids grouped by owning shard, ascending within each group) and
    ``foreign_owner_offsets`` (K+1 prefix offsets of each owner's group).
    Send lists are the dual of the receive lists: shard ``p`` sends to ``k``
    exactly the rows ``k`` receives from ``p``.
    """
    num_shards = plan.num_shards
    specs = []
    for k in range(num_shards):
        layout = halos[k]
        n_local = len(layout.owned)
        recvs = []
        offsets = layout.foreign_owner_offsets
        for peer in range(num_shards):
            lo, hi = int(offsets[peer]), int(offsets[peer + 1])
            if hi > lo:
                recvs.append((peer, slice(n_local + lo, n_local + hi), hi - lo))
        specs.append(
            GatherSpec(
                shard=k,
                n_local=n_local,
                width=n_local + len(layout.foreign),
                self_dest=slice(0, n_local),
                sends=(),
                recvs=recvs,
            )
        )
    # Dual send lists: the rows shard k needs from peer p, as p-local indices.
    sends: list[list] = [[] for _ in range(num_shards)]
    for k in range(num_shards):
        layout = halos[k]
        offsets = layout.foreign_owner_offsets
        for peer in range(num_shards):
            lo, hi = int(offsets[peer]), int(offsets[peer + 1])
            if hi > lo:
                rows = np.searchsorted(halos[peer].owned, layout.foreign[lo:hi])
                sends[peer].append((k, rows))
    for k, spec in enumerate(specs):
        spec.sends = tuple(sends[k])
    return specs


def build_full_specs(plan) -> list[GatherSpec]:
    """Specs for the full-width gather (node-global operations).

    The gathered operand is the *entire* activation in original node order,
    so a global mix (the adaptive adjacency, spatial attention) computes
    exactly the unsharded result before the shard slices out its own rows.
    """
    num_shards = plan.num_shards
    owned = [plan.owned(k) for k in range(num_shards)]
    specs = []
    for k in range(num_shards):
        n_local = len(owned[k])
        recvs = [
            (peer, owned[peer], len(owned[peer]))
            for peer in range(num_shards)
            if peer != k and len(owned[peer])
        ]
        sends = [
            (peer, np.arange(n_local))
            for peer in range(num_shards)
            if peer != k and n_local
        ]
        specs.append(
            GatherSpec(
                shard=k,
                n_local=n_local,
                width=plan.num_nodes,
                self_dest=owned[k],
                sends=sends,
                recvs=recvs,
            )
        )
    return specs


class HaloExchange:
    """In-process mailbox moving halo rows between shard threads.

    One instance is shared by the ``K`` shard threads of a partitioned
    forecaster.  Rounds are implicit: every shard runs the same model, so its
    ``r``-th gather pairs with every peer's ``r``-th gather; per-shard round
    counters are reset between predict calls (the forecaster serialises
    calls, so counters never interleave across batches).
    """

    def __init__(self, num_shards: int, timeout: float = 120.0):
        self.num_shards = int(num_shards)
        self.timeout = float(timeout)
        self._cond = threading.Condition()
        self._mail: dict = {}
        self._rounds = [0] * self.num_shards
        self._failure: BaseException | None = None

    def reset(self) -> None:
        """Start a fresh predict call: clear mail, rounds and failures."""
        with self._cond:
            self._mail.clear()
            self._rounds = [0] * self.num_shards
            self._failure = None

    def fail(self, exc: BaseException) -> None:
        """Poison the exchange so peers blocked in a gather unblock and raise."""
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    def _raise_failure(self):
        raise PartitionError(
            "peer shard failed during halo exchange"
        ) from self._failure

    def gather(self, array: np.ndarray, spec: GatherSpec, out: np.ndarray | None = None):
        """Assemble the gathered operand for ``spec``'s shard.

        Deposits this shard's outgoing halo rows first (copies — safe against
        arena buffer reuse on the compiled path), then fills ``out`` with its
        own rows and every peer's deposit for this round.
        """
        shard = spec.shard
        round_index = self._rounds[shard]
        self._rounds[shard] = round_index + 1
        deposits = {
            (round_index, shard, peer): np.ascontiguousarray(array[..., rows, :])
            for peer, rows in spec.sends
        }
        with self._cond:
            if self._failure is not None:
                self._raise_failure()
            self._mail.update(deposits)
            if deposits:
                self._cond.notify_all()
        if out is None:
            out = np.empty(
                array.shape[:-2] + (spec.width,) + array.shape[-1:], dtype=array.dtype
            )
        out[..., spec.self_dest, :] = array
        for peer, destination, _count in spec.recvs:
            key = (round_index, peer, shard)
            with self._cond:
                arrived = self._cond.wait_for(
                    lambda: key in self._mail or self._failure is not None,
                    timeout=self.timeout,
                )
                if self._failure is not None:
                    self._raise_failure()
                if not arrived:
                    exc = PartitionError(
                        f"halo exchange timed out after {self.timeout}s waiting on "
                        f"shard {peer} (round {round_index})"
                    )
                    if self._failure is None:
                        self._failure = exc
                    self._cond.notify_all()
                    raise exc
                payload = self._mail.pop(key)
            out[..., destination, :] = payload
        return out


def _gather_backward(_grad):  # pragma: no cover - guarded by the grad check
    raise PartitionError("halo_gather has no backward; partitioned forward is inference-only")


class PartitionContext:
    """Per-shard view over a partition plan, installed thread-locally.

    Intercepts spatial mixes (sparse supports become rectangular local
    blocks fed by a halo gather; dense/global supports fall back to an exact
    full-width gather unless ``strict``), runs other node-global layers
    through the same gather (:meth:`whole_operand`) and relaxes the model's
    node-count input check to the shard's local width.
    """

    def __init__(self, plan, shard_index: int, exchange: HaloExchange, strict: bool = False):
        self.plan = plan
        self.shard = int(shard_index)
        self.exchange = exchange
        self.strict = bool(strict)
        self.trace_token = next(_TOKENS)
        self.num_nodes = int(plan.num_nodes)
        self.local_nodes = int(len(plan.owned(self.shard)))
        self._full_spec: GatherSpec | None = None
        self._full_spec_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def matches(self, num_nodes: int) -> bool:
        """Whether this context partitions a graph of ``num_nodes`` nodes."""
        return self.num_nodes == int(num_nodes)

    def _check_inference(self) -> None:
        if is_grad_enabled():
            raise PartitionError(
                "partitioned spatial mix is inference-only; wrap the forward in no_grad()"
            )

    # ------------------------------------------------------------------ #
    def _gather(self, x: Tensor, spec: GatherSpec) -> Tensor:
        data = self.exchange.gather(x.data, spec)
        return Tensor._make(
            data,
            (x,),
            (_gather_backward,),
            op="halo_gather",
            ctx={"exchange": self.exchange, "spec": spec},
        )

    def _specs_for(self, partitioned) -> GatherSpec:
        specs = partitioned.runtime.get("specs")
        if specs is None:
            with partitioned.lock:
                specs = partitioned.runtime.get("specs")
                if specs is None:
                    specs = build_specs(self.plan, partitioned.halos)
                    partitioned.runtime["specs"] = specs
        return specs[self.shard]

    def _full_gather_spec(self) -> GatherSpec:
        spec = self._full_spec
        if spec is None:
            with self._full_spec_lock:
                if self._full_spec is None:
                    self._full_spec = build_full_specs(self.plan)[self.shard]
                spec = self._full_spec
        return spec

    # ------------------------------------------------------------------ #
    def mix(self, support, x: Tensor, transpose=None) -> Tensor:
        """Partitioned :func:`repro.tensor.functional.spatial_mix`."""
        from scipy import sparse as _scipy_sparse

        from .tensor import as_tensor, spmm

        self._check_inference()
        x = as_tensor(x)
        if _scipy_sparse.issparse(support):
            from ..graph import sparse as spk

            partitioned = spk.partition_support_blocks(support, self.plan)
            spec = self._specs_for(partitioned)
            gathered = self._gather(x, spec)
            return spmm(partitioned.blocks[self.shard], gathered)
        return self._dense_mix(as_tensor(support), x)

    def mix_multi(self, fused, x: Tensor) -> Tensor:
        """Partitioned fused multi-support mix (one gather for all supports)."""
        from .tensor import as_tensor, spmm_multi

        self._check_inference()
        x = as_tensor(x)
        from ..graph import sparse as spk

        partitioned = spk.partition_fused_blocks(fused, self.plan)
        spec = self._specs_for(partitioned)
        gathered = self._gather(x, spec)
        return spmm_multi(
            partitioned.blocks[self.shard],
            gathered,
            partitioned.count,
            rows=self.local_nodes,
        )

    def whole_operand(self, x: Tensor, fn) -> Tensor:
        """Apply the node-global ``fn`` to the full-width operand, keep own rows.

        Whole-operand contract: ``fn`` meets the full-width, C-contiguous
        gather of ``x`` in original node order, and the shard's rows are
        sliced out of its result *afterwards*.  Every shard therefore issues
        the very call the unsharded forward issues, so the result is
        bit-identical by construction, whatever ``fn`` mixes across nodes
        (a dense support, attention over the node axis).  Costs a full-width
        operand, which is why ``strict`` mode refuses it.
        """
        self._check_inference()
        if self.strict:
            raise PartitionError(
                "node-global operation requires a full-width gather; "
                "strict partitioned mode forbids full-N activations "
                "(disable the model's global mixing or set strict=False)"
            )
        full = self._gather(x, self._full_gather_spec())
        return fn(full)[..., self.plan.owned(self.shard), :]

    def _dense_mix(self, support: Tensor, x: Tensor) -> Tensor:
        """Exact fallback for dense/global supports (adaptive adjacency):
        the full ``support @ x`` through :meth:`whole_operand` (row-slicing
        ``support`` first would not be exact)."""
        from .tensor import _TAPE

        tape = _TAPE.tape
        if tape is not None and not support.requires_grad:
            tape.declared.add(id(support))
            tape.keep.append(support)
        return self.whole_operand(x, lambda full: support @ full)

    def __repr__(self) -> str:
        return (
            f"PartitionContext(shard={self.shard}/{self.plan.num_shards}, "
            f"nodes={self.local_nodes}/{self.num_nodes}, strict={self.strict})"
        )
