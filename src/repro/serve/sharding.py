"""Node-sharded inference: min-cut shard planning + the exact partitioned forward.

The sensor network's nodes are partitioned into ``K`` balanced shards by
:class:`ShardPlanner`: greedy graph growing (GGGP-style) over the symmetrised
structure, each part growing from a min-degree seed by maximum gain
(neighbours already inside the part) to a balanced size target.  A plan
needs at least two nodes per shard.  It carries the resulting node
*permutation* (the identity at ``K = 1``); shard ``k`` owns the permuted
positions ``[start, stop)`` and :meth:`ShardPlan.owned` returns its original
node ids (ascending).  Cut accounting is explicit about direction:
``cut_edges`` counts *directed* crossing edges, ``cut_edge_pairs`` counts
unordered crossing pairs of the symmetrised structure.

:class:`ShardedForecaster` is the serving view over one
:class:`~repro.serve.forecaster.Forecaster`: each shard thread runs the
forward on *only its owned node rows*.  Spatial mixes are intercepted by a
thread-local :class:`repro.tensor.PartitionContext`: the shard's rectangular
CSR row block (cached per ``(support, plan)``) consumes a gathered operand
assembled by an in-process :class:`HaloExchange` that moves exactly the halo
rows the block's columns reference.  Per-shard activation memory is
``O(N/K + halo)`` and outputs are **bit-identical** to the unsharded
forward: CSR row accumulation order is preserved by the block construction,
and channel matmuls run through the fixed-size blocked
:func:`repro.tensor.tensor._matmul_execute` with shard boundaries aligned to
the block size (plus the graph tail pinned to the last shard), so every node
row sees byte-identical BLAS calls in both paths.  For graphs smaller than
``K *`` block size the guarantee instead rests on the verified small-width
envelope (contraction dims < 256 and shard sizes >= 2 — the whole model zoo
qualifies).  Node-global layers (dense/global supports such as the adaptive
adjacency, GeoMAN's spatial attention) take an exact full-width gather
(:meth:`PartitionContext.whole_operand`), which ``strict=True`` rejects
instead (guaranteeing no full-``N`` activation is ever materialised).

Shard workers are *lockstep* (every gather pairs with the peers' same-round
gathers), so they always run concurrently and predict calls are serialised
by a lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse as sp

from ..exceptions import ConfigurationError, GraphError, ShapeError
from ..graph.graph import Graph
from ..tensor import MATMUL_BLOCK_ROWS, PartitionContext, HaloExchange, partition_scope

__all__ = ["Shard", "ShardPlan", "ShardPlanner", "ShardedForecaster"]

_PLAN_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class Shard:
    """One node range ``[start, stop)`` of the partition (permuted space)."""

    index: int
    start: int
    stop: int
    internal_edges: int = 0
    outgoing_edges: int = 0
    incoming_edges: int = 0

    @property
    def num_nodes(self) -> int:
        return self.stop - self.start

    def node_mask(self, num_nodes: int) -> np.ndarray:
        """Boolean keep-mask selecting exactly this shard's positions."""
        mask = np.zeros(num_nodes, dtype=bool)
        mask[self.start : self.stop] = True
        return mask


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of a graph's nodes into ``K`` shards.

    ``permutation`` maps permuted position -> original node id; within
    every shard the ids are ascending, so :meth:`owned` is always a sorted
    array.  ``token`` uniquely identifies this plan instance — the
    partitioned-support cache keys on it.
    """

    shards: tuple[Shard, ...]
    num_nodes: int
    total_edges: int
    cut_edge_pairs: int
    permutation: np.ndarray = field(compare=False, repr=False)
    token: int = field(default_factory=lambda: next(_PLAN_TOKENS), compare=False)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def cut_edges(self) -> int:
        """*Directed* edges whose endpoints land in different shards."""
        return sum(shard.outgoing_edges for shard in self.shards)

    @property
    def edge_cut(self) -> float:
        """Fraction of directed edges crossing a shard boundary."""
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    @cached_property
    def _owned(self) -> tuple:
        return tuple(self.permutation[shard.start : shard.stop] for shard in self.shards)

    def owned(self, index: int) -> np.ndarray:
        """Original node ids owned by shard ``index`` (ascending)."""
        return self._owned[index]

    @cached_property
    def owner_of(self) -> np.ndarray:
        """``(N,)`` array mapping each original node id to its shard index."""
        owner = np.empty(self.num_nodes, dtype=np.int32)
        for k in range(self.num_shards):
            owner[self.owned(k)] = k
        return owner

    def describe(self) -> dict:
        """JSON-friendly plan summary.

        Cut accounting is explicitly directional: ``cut_edges``/``edge_cut``
        count directed crossing edges of the stored adjacency (every cross
        edge is *outgoing* from exactly one shard and *incoming* to exactly
        one, so per-shard outgoing and incoming each sum to ``cut_edges``);
        ``cut_edge_pairs`` counts unordered crossing pairs of the
        symmetrised structure (what an undirected partitioner minimises).
        """
        return {
            "num_shards": self.num_shards,
            "num_nodes": int(self.num_nodes),
            "total_edges": int(self.total_edges),
            "cut_edges": int(self.cut_edges),
            "edge_cut": float(self.edge_cut),
            "cut_edge_pairs": int(self.cut_edge_pairs),
            "shards": [
                {
                    "index": shard.index,
                    "start": shard.start,
                    "stop": shard.stop,
                    "internal_edges": shard.internal_edges,
                    "outgoing_edges": shard.outgoing_edges,
                    "incoming_edges": shard.incoming_edges,
                }
                for shard in self.shards
            ],
        }


class ShardPlanner:
    """Partition a graph's nodes into ``K`` balanced min-cut shards.

    Parts grow greedily to minimise the edge cut and the plan carries the
    resulting node permutation.  Shard sizes are rounded to multiples of the
    tensor engine's matmul row block (``MATMUL_BLOCK_ROWS``) so partitioned
    channel matmuls issue byte-identical BLAS calls to the unsharded
    forward; the rounding only engages when ``N >= K * MATMUL_BLOCK_ROWS``.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)

    # ------------------------------------------------------------------ #
    def _sizes(self, num_nodes: int) -> list[int]:
        """Balanced shard sizes, block-aligned when the graph is large enough."""
        count = self.num_shards
        unit = MATMUL_BLOCK_ROWS
        if num_nodes >= count * unit:
            blocks, tail = divmod(num_nodes, unit)
            per, extra = divmod(blocks, count)
            sizes = [(per + (1 if k < extra else 0)) * unit for k in range(count)]
            sizes[-1] += tail
            return sizes
        bounds = np.linspace(0, num_nodes, count + 1).round().astype(int)
        return np.diff(bounds).tolist()

    def _pinned_tail(self, num_nodes: int) -> int:
        """Nodes pinned to the last shard so the final partial matmul block
        holds the same rows (same call size ``m``) as the unsharded forward."""
        unit = MATMUL_BLOCK_ROWS
        if num_nodes <= unit or num_nodes < self.num_shards * unit:
            return 0
        return num_nodes % unit

    def _mincut_parts(self, graph: Graph, sizes: list[int], pinned_tail: int) -> list:
        """Greedy graph growing: min-degree seeds, max-gain frontier pops."""
        num_nodes = graph.num_nodes
        sym = _symmetrised(graph.csr)
        indptr, indices = sym.indptr, sym.indices
        degree = np.diff(indptr)
        count = self.num_shards
        assign = np.full(num_nodes, -1, dtype=np.int32)
        if pinned_tail:
            assign[num_nodes - pinned_tail :] = count - 1
        # Stable sort: min degree first, smallest id on ties — deterministic.
        order = np.argsort(degree, kind="stable")
        order_pos = 0
        gain = np.zeros(num_nodes, dtype=np.int64)
        for k in range(count - 1):
            target = sizes[k]
            filled = 0
            gain[:] = 0
            heap: list = []

            def grow(node: int, k=k):
                assign[node] = k
                for neighbour in indices[indptr[node] : indptr[node + 1]]:
                    if assign[neighbour] == -1:
                        gain[neighbour] += 1
                        heapq.heappush(heap, (-gain[neighbour], neighbour))

            while filled < target:
                node = -1
                while heap:
                    negative, candidate = heapq.heappop(heap)
                    if assign[candidate] == -1 and -negative == gain[candidate]:
                        node = candidate
                        break
                if node < 0:
                    # Frontier dry (disconnected component): reseed at the
                    # min-degree unassigned node.
                    while order_pos < num_nodes and assign[order[order_pos]] != -1:
                        order_pos += 1
                    node = int(order[order_pos])
                grow(node)
                filled += 1
        remaining = np.flatnonzero(assign == -1)
        assign[remaining] = count - 1
        parts = [np.flatnonzero(assign == k) for k in range(count)]
        # Stable shard numbering: order the freely-grown parts by their
        # smallest owned id; the remainder part stays last (it carries the
        # pinned tail, which must occupy the final permuted positions).
        head = sorted(parts[:-1], key=lambda part: int(part[0]) if len(part) else -1)
        return head + [parts[-1]]

    # ------------------------------------------------------------------ #
    def plan(self, graph: Graph) -> ShardPlan:
        num_nodes = graph.num_nodes
        count = self.num_shards
        if num_nodes < 2 * count:
            raise GraphError(
                f"shard planning needs >= 2 nodes per shard, got "
                f"{num_nodes} nodes for {count} shards"
            )
        parts = self._mincut_parts(graph, self._sizes(num_nodes), self._pinned_tail(num_nodes))
        permutation = np.concatenate(parts)
        sizes = [len(part) for part in parts]
        owner = np.empty(num_nodes, dtype=np.int32)
        owner[permutation] = np.repeat(np.arange(count, dtype=np.int32), sizes)
        return ShardPlan(
            shards=self._shards_for(graph, owner, sizes),
            num_nodes=num_nodes,
            total_edges=graph.nnz,
            cut_edge_pairs=_cut_pairs(graph.csr, owner),
            permutation=permutation,
        )

    def _shards_for(self, graph: Graph, owner: np.ndarray, sizes) -> tuple:
        csr = graph.csr
        rows = np.repeat(np.arange(graph.num_nodes), np.diff(csr.indptr))
        owner_row = owner[rows]
        owner_col = owner[csr.indices]
        cross = owner_row != owner_col
        internal = np.bincount(owner_row[~cross], minlength=self.num_shards)
        outgoing = np.bincount(owner_row[cross], minlength=self.num_shards)
        incoming = np.bincount(owner_col[cross], minlength=self.num_shards)
        shards, start = [], 0
        for k, size in enumerate(sizes):
            shards.append(
                Shard(
                    index=k,
                    start=int(start),
                    stop=int(start + size),
                    internal_edges=int(internal[k]),
                    outgoing_edges=int(outgoing[k]),
                    incoming_edges=int(incoming[k]),
                )
            )
            start += size
        return tuple(shards)


def _symmetrised(csr) -> sp.csr_array:
    """Unit-weight structure of ``csr`` made symmetric."""
    structure = csr.copy()
    structure.data = np.ones_like(structure.data)
    return sp.csr_array(structure.maximum(structure.T))


def _cut_pairs(csr, owner: np.ndarray) -> int:
    """Unordered crossing pairs of the symmetrised structure."""
    sym = _symmetrised(csr)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(sym.indptr))
    return int((owner[rows] != owner[sym.indices]).sum()) // 2


class ShardedForecaster:
    """Run one forecaster's predict as ``K`` lockstep per-shard forwards.

    Parameters
    ----------
    forecaster:
        The serving facade whose graph defines the partition.
    num_shards:
        Number of node shards (at least two nodes each).
    strict:
        Refuse node-global layers (dense/global supports, spatial
        attention), which need an exact full-width gather, instead of
        gathering, guaranteeing no full-``N`` activation is ever
        materialised per shard.
    """

    def __init__(self, forecaster, num_shards: int, strict: bool = False):
        self.forecaster = forecaster
        self.plan = ShardPlanner(num_shards).plan(forecaster.graph)
        self.strict = bool(strict)
        self._exchange = HaloExchange(self.plan.num_shards)
        self._contexts = [
            PartitionContext(self.plan, k, self._exchange, strict=self.strict)
            for k in range(self.plan.num_shards)
        ]
        # Lockstep halo rounds: every shard thread must be runnable at once
        # or a gather would wait on a peer that never got a thread.
        self._executor = ThreadPoolExecutor(
            max_workers=self.plan.num_shards,
            thread_name_prefix="repro-shard",
        )
        self._predict_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        return self.forecaster.graph

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def halo_profile(self, order: int, directed: bool | None = None) -> dict:
        """Per-shard halo statistics of the serving graph under this plan."""
        return self.graph.halo_profile(self.plan, order, directed)

    # ------------------------------------------------------------------ #
    def _partition_worker(self, index: int, scaled: np.ndarray, batch_size: int) -> np.ndarray:
        context = self._contexts[index]
        model = self.forecaster.model
        local = scaled[..., self.plan.owned(index), :]
        try:
            with partition_scope(context):
                total = local.shape[0]
                if total <= batch_size:
                    return model.predict(local)
                # Same micro-batch boundaries on every shard: gathers are
                # lockstep, so all shards must issue the same round count.
                first = model.predict(local[:batch_size])
                out = np.empty((total,) + first.shape[1:], dtype=first.dtype)
                out[:batch_size] = first
                for start in range(batch_size, total, batch_size):
                    out[start : start + batch_size] = model.predict(
                        local[start : start + batch_size]
                    )
                return out
        except BaseException as exc:
            # Unblock peers waiting on this shard's halo rows.
            self._exchange.fail(exc)
            raise

    def _predict_partition(self, windows: np.ndarray, batch_size: int) -> np.ndarray:
        forecaster = self.forecaster
        model = forecaster.model
        with self._predict_lock:
            scaled = forecaster.scaler.transform(windows)
            was_training = bool(getattr(model, "training", False))
            if hasattr(model, "eval"):
                model.eval()
            self._exchange.reset()
            try:
                futures = [
                    self._executor.submit(self._partition_worker, k, scaled, batch_size)
                    for k in range(self.num_shards)
                ]
                parts, first_error = [], None
                for future in futures:
                    try:
                        parts.append(future.result())
                    except BaseException as exc:  # keep draining: peers are poisoned
                        if first_error is None:
                            first_error = exc
                        parts.append(None)
                if first_error is not None:
                    raise first_error
            finally:
                if hasattr(model, "train"):
                    model.train(was_training)
        out = np.empty(
            parts[0].shape[:-2] + (self.plan.num_nodes, parts[0].shape[-1]),
            dtype=parts[0].dtype,
        )
        for index, part in enumerate(parts):
            out[..., self.plan.owned(index), :] = part
        return out

    # ------------------------------------------------------------------ #
    def predict(self, windows: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Sharded forecast, stitched back along the node axis.

        Bit-identical to ``forecaster.predict(windows)`` (see the module
        docstring for the exactness envelope).
        """
        windows, single = self.forecaster._coerce_windows(windows)
        if windows.shape[0] == 0:
            raise ShapeError("predict received an empty batch of windows")
        batch_size = max(int(batch_size), 1)
        predictions = self.forecaster.scaler.inverse_transform_channel(
            self._predict_partition(windows, batch_size), self.forecaster.target_channel
        )
        return predictions[0] if single else predictions

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedForecaster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedForecaster(num_shards={self.num_shards}, strict={self.strict}, "
            f"edge_cut={self.plan.edge_cut:.3f})"
        )
