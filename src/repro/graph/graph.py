"""A first-class, CSR-backed graph with delta-based augmentation support.

:class:`Graph` is the sparse-first representation of a sensor network's
adjacency: the weight matrix is held as a canonical ``scipy.sparse`` CSR
array, node metadata (coordinates, name, directedness) rides along, and all
derived spatial state — diffusion supports, their CSR transposes (for the
``spmm`` backward) and the fused multi-support stacks — is built lazily and
cached per instance, keyed by every global knob that shapes it (order,
direction, library dtype, spatial mode) so a knob change transparently
invalidates.  The graph is the only owner of that state: nothing else in
the library caches supports, and code that edits :attr:`Graph.csr` in place
must call :func:`repro.graph.sparse.clear_support_cache` afterwards.

:class:`GraphDelta` describes a structural perturbation — drop edges by
mask, isolate nodes, add/reweight edges — without materialising anything
dense.  :meth:`Graph.apply_delta` applies a delta CSR-natively in
``O(nnz)``; under ``spatial_mode("dense")`` the same delta is applied on a
dense copy instead (the explicit fallback path, bit-compatible with the
seed implementation).  The augmentations in :mod:`repro.augmentation` make
their random decisions on the shared CSR view and emit deltas, so a URCL
training run produces identical graphs under either mode while the sparse
path never allocates an ``(N, N)`` array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from ..exceptions import GraphError
from ..tensor import get_default_dtype
from . import sparse as spk

__all__ = ["Graph", "GraphDelta"]


def _canonical_csr(adjacency) -> sp.csr_array:
    """Coerce to a canonical (sorted, deduplicated, zero-free) float64 CSR."""
    if sp.issparse(adjacency):
        csr = sp.csr_array(adjacency.tocsr())
    else:
        array = np.asarray(adjacency)
        if array.ndim != 2:
            raise GraphError(f"adjacency must be 2-d, got shape {array.shape}")
        csr = sp.csr_array(array)
    if csr.shape[0] != csr.shape[1]:
        raise GraphError(f"adjacency must be square, got {csr.shape}")
    if csr.dtype != np.float64:
        csr = csr.astype(np.float64)
    csr.sum_duplicates()
    csr.sort_indices()
    csr.eliminate_zeros()
    if csr.nnz and (csr.data < 0).any():
        raise GraphError("adjacency weights must be non-negative")
    return csr


@dataclass(frozen=True)
class GraphDelta:
    """A structural perturbation of a :class:`Graph`, never densified.

    The three operations compose in a fixed order (keep edges, then isolate
    nodes, then add/reweight), though each augmentation uses exactly one:

    Attributes
    ----------
    edge_keep:
        Boolean mask over the parent graph's canonical (row-major) non-zero
        entries; ``False`` removes the edge.
    node_keep:
        Boolean mask over nodes; ``False`` removes every edge touching the
        node (the node set and observation shapes are preserved).
    edge_updates:
        ``(rows, cols, weights)`` triple of non-negative edge updates,
        combined into the graph by elementwise maximum — matching the
        AddEdge semantics ``A[i, j] = max(A[i, j], w)``.
    description:
        Name of the augmentation that produced the delta.
    """

    edge_keep: np.ndarray | None = None
    node_keep: np.ndarray | None = None
    edge_updates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    description: str = "delta"

    def is_identity(self) -> bool:
        """Whether applying this delta leaves the graph unchanged."""
        if self.edge_keep is not None and not self.edge_keep.all():
            return False
        if self.node_keep is not None and not self.node_keep.all():
            return False
        if self.edge_updates is not None and self.edge_updates[0].size:
            return False
        return True


class _SupportSet:
    """Diffusion supports of one knob key plus everything derived from them.

    ``conv`` drops the leading identity; ``transposes`` aligns with it (CSR
    members only); ``fused`` is its stacked form for the fused spmm
    (``None`` unless every member is CSR).  ``nbytes`` is what the shared
    support LRU charges for the set.
    """

    __slots__ = ("supports", "conv", "transposes", "fused", "nbytes")

    def __init__(self, supports: tuple):
        self.supports = supports
        self.conv = supports[1:]
        self.transposes = tuple(
            spk.transpose_csr(m) if sp.issparse(m) else None for m in self.conv
        )
        self.fused = spk.fuse_supports(self.conv)
        members = supports + tuple(t for t in self.transposes if t is not None)
        if self.fused is not None:
            members += (self.fused.stacked, self.fused.transpose)
        self.nbytes = sum(spk._support_nbytes(m) for m in members)


class Graph:
    """CSR-backed adjacency + node metadata + cached diffusion supports.

    Parameters
    ----------
    adjacency:
        Dense ``(N, N)`` array or any ``scipy.sparse`` matrix of
        non-negative edge weights.  Stored internally as canonical CSR at
        float64 (supports are cast to the library dtype when built).
    coordinates:
        Optional ``(N, 2)`` planar sensor coordinates.
    name:
        Human-readable identifier.
    directed:
        Whether diffusion uses forward+backward transitions by default.
    """

    def __init__(
        self,
        adjacency,
        coordinates: np.ndarray | None = None,
        name: str = "graph",
        directed: bool = False,
    ):
        self._csr = _canonical_csr(adjacency)
        self.coordinates = None if coordinates is None else np.asarray(coordinates, dtype=float)
        self.name = name
        self.directed = bool(directed)
        self._dense: np.ndarray | None = None
        self._edge_keys: np.ndarray | None = None
        self._hops: np.ndarray | None = None
        self._bfs_csr = None
        self._digest: str | None = None
        self._supports: dict = {}
        spk._register_graph(self)

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self._csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    @property
    def density(self) -> float:
        return spk.density(self._csr)

    @property
    def csr(self) -> sp.csr_array:
        """The canonical CSR adjacency (treat as immutable)."""
        return self._csr

    @property
    def adjacency(self) -> np.ndarray:
        """Dense adjacency view (built lazily; see :meth:`to_dense`)."""
        return self.to_dense()

    def to_dense(self) -> np.ndarray:
        """Densify the adjacency (cached; treat as immutable)."""
        if self._dense is None:
            self._dense = self._csr.toarray()
        return self._dense

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical (row-major) ``(rows, cols, weights)`` edge arrays.

        The order matches ``np.nonzero`` of the dense adjacency, which keeps
        random edge sampling identical between the dense and delta paths.
        """
        indptr, indices = self._csr.indptr, self._csr.indices
        rows = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
        return rows, indices.copy(), self._csr.data.copy()

    def _keys(self) -> np.ndarray:
        if self._edge_keys is None:
            rows, cols, _ = self.edges()
            self._edge_keys = rows.astype(np.int64) * self.num_nodes + cols
        return self._edge_keys

    def edge_lookup(self, rows, cols) -> np.ndarray:
        """Positions of ``(rows, cols)`` in the canonical edge arrays (-1 if absent)."""
        keys = self._keys()
        queries = (
            np.asarray(rows, dtype=np.int64) * self.num_nodes
            + np.asarray(cols, dtype=np.int64)
        )
        if keys.size == 0:
            return np.full(queries.shape, -1, dtype=np.int64)
        positions = np.searchsorted(keys, queries)
        clipped = np.minimum(positions, keys.size - 1)
        found = keys[clipped] == queries
        return np.where(found, clipped, -1)

    def row(self, node: int) -> np.ndarray:
        """Dense 1-d weight row of ``node`` (an ``O(N)`` buffer, never ``N^2``)."""
        out = np.zeros(self.num_nodes, dtype=self._csr.dtype)
        start, stop = self._csr.indptr[node], self._csr.indptr[node + 1]
        out[self._csr.indices[start:stop]] = self._csr.data[start:stop]
        return out

    def degrees(self) -> np.ndarray:
        """Weighted out-degrees."""
        return np.asarray(self._csr.sum(axis=1)).ravel()

    # ------------------------------------------------------------------ #
    # Hop distances (AddEdge: "distant node pairs")
    # ------------------------------------------------------------------ #
    def hop_matrix(self) -> np.ndarray:
        """Pairwise unweighted hop counts (``inf`` when unreachable; cached).

        Inherently ``O(N^2)`` output — only the AddEdge augmentation needs
        it; the other spatial augmentations stay strictly sparse.
        ``scipy.sparse.csgraph`` (which loads ``scipy.sparse.linalg`` and
        ``scipy.linalg``) is imported here, on first call, not with the package.
        """
        if self._hops is None:
            from scipy.sparse import csgraph

            self._hops = csgraph.shortest_path(
                self._csr, method="D", directed=self.directed, unweighted=True
            )
        return self._hops

    def distant_pairs(self, min_hops: int = 3) -> list[tuple[int, int]]:
        """Node pairs more than ``min_hops`` apart (including unreachable)."""
        hops = self.hop_matrix()
        rows, cols = np.nonzero((hops > min_hops) | np.isinf(hops))
        return [(int(i), int(j)) for i, j in zip(rows, cols) if i < j]

    def _bfs_structure(self):
        """Unit-weight CSR used for hop traversal (symmetrised when undirected)."""
        if self._bfs_csr is None:
            structure = self._csr.copy()
            structure.data = np.ones_like(structure.data)
            if not self.directed:
                structure = sp.csr_array(structure.maximum(structure.T))
            self._bfs_csr = structure
        return self._bfs_csr

    def distant_mask(self, sources, max_hops: int) -> np.ndarray:
        """``(len(sources), N)`` mask of nodes > ``max_hops`` hops away.

        Truncated batched BFS: all source frontiers advance together through
        ``max_hops`` sparse mat-vecs — ``O(len(sources) * nnz)`` work and
        ``O(len(sources) * N)`` memory, never the dense hop matrix.  A node
        is flagged when it is strictly farther than ``max_hops`` from the
        source (unreachable included); the source itself is never flagged.
        """
        sources = np.asarray(sources, dtype=np.int64).ravel()
        structure = self._bfs_structure()
        visited = np.zeros((sources.size, self.num_nodes), dtype=bool)
        visited[np.arange(sources.size), sources] = True
        frontier = visited.copy()
        for _ in range(int(max_hops)):
            if not frontier.any():
                break
            reached = (frontier.astype(np.float64) @ structure) > 0
            frontier = reached & ~visited
            visited |= frontier
        return ~visited

    # ------------------------------------------------------------------ #
    # Diffusion supports (lazily cached, invalidation-aware)
    # ------------------------------------------------------------------ #
    def _support_set(self, order: int, directed: bool | None) -> "_SupportSet":
        """The derived state of one ``(order, directed, dtype, mode)`` key.

        Built once and reused on every later call.  Under
        ``spatial_mode("dense")`` construction runs the dense seed algebra
        (the explicit fallback); otherwise it stays CSR-native.  Each set
        registers once with the shared byte-bounded LRU in
        :mod:`repro.graph.sparse`, so the coldest sets (on any live graph)
        are dropped once the combined footprint crosses the budget.
        """
        directed = self.directed if directed is None else bool(directed)
        mode = spk.get_spatial_mode()
        key = (int(order), directed, np.dtype(get_default_dtype()).str, mode)
        entry = self._supports.get(key)
        if entry is not None:
            spk._graph_support_touch(self, key)
            return entry
        source = self.to_dense() if mode == "dense" else self._csr
        entry = _SupportSet(tuple(spk.diffusion_supports(source, order, directed=directed)))
        self._supports[key] = entry
        spk._record_graph_support_build()
        spk._graph_support_store(self, key, entry.nbytes)
        return entry

    def _drop_support_entry(self, key) -> None:
        """Eviction callback from the shared byte-bounded support LRU."""
        self._supports.pop(key, None)

    def supports(self, order: int, directed: bool | None = None) -> tuple:
        """``[I, P, ..]`` diffusion supports, stored per the spatial mode."""
        return self._support_set(order, directed).supports

    def conv_supports(self, order: int, directed: bool | None = None) -> tuple:
        """Supports without the leading identity (residual paths supply it)."""
        return self._support_set(order, directed).conv

    def support_transposes(self, order: int, directed: bool | None = None) -> tuple:
        """CSR transposes aligned with :meth:`conv_supports` (the ``spmm``
        backward); dense supports map to ``None``."""
        return self._support_set(order, directed).transposes

    def fused_conv_supports(self, order: int, directed: bool | None = None):
        """Fused stack of :meth:`conv_supports` (``None`` unless all CSR)."""
        return self._support_set(order, directed).fused

    @property
    def digest(self) -> str:
        """SHA-1 of the canonical CSR triplet (memoised).

        The content token compiled programs are shared under: two graphs
        with identical adjacency content share one digest.
        """
        if self._digest is None:
            sha = hashlib.sha1()
            for part in (self._csr.indptr, self._csr.indices, self._csr.data):
                sha.update(np.ascontiguousarray(part).tobytes())
            self._digest = sha.hexdigest()
        return self._digest

    def clear_caches(self) -> None:
        """Drop all derived state (supports, digest, dense copy, hops)."""
        spk._graph_support_forget(self)
        self._supports.clear()
        self._digest = None
        self._dense = None
        self._edge_keys = None
        self._hops = None
        self._bfs_csr = None

    # ------------------------------------------------------------------ #
    # Delta application
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: GraphDelta) -> "Graph":
        """Return a new :class:`Graph` with ``delta`` applied.

        CSR-native (``O(nnz)``, no dense ``(N, N)`` buffer) in ``auto`` and
        ``sparse`` modes; under ``spatial_mode("dense")`` the delta is
        applied on a dense copy instead, reproducing the seed augmentation
        arithmetic exactly.  Both paths yield identical edge sets/weights.
        """
        self._check_delta(delta)
        if delta.is_identity():
            return self
        dense_mode = spk.get_spatial_mode() == "dense"
        spk._record_delta(dense_fallback=dense_mode)
        if dense_mode:
            adjacency = self._apply_delta_dense(delta)
        else:
            adjacency = self._apply_delta_csr(delta)
        out = Graph(
            adjacency,
            coordinates=self.coordinates,
            name=f"{self.name}+{delta.description}",
            directed=self.directed,
        )
        if dense_mode:
            # The dense product is already materialised; seed the cache so
            # dense-mode supports never re-densify.
            out._dense = adjacency
        return out

    def _check_delta(self, delta: GraphDelta) -> None:
        if delta.edge_keep is not None and delta.edge_keep.shape != (self.nnz,):
            raise GraphError(
                f"edge_keep must cover all {self.nnz} edges, got {delta.edge_keep.shape}"
            )
        if delta.node_keep is not None and delta.node_keep.shape != (self.num_nodes,):
            raise GraphError(
                f"node_keep must cover all {self.num_nodes} nodes, got {delta.node_keep.shape}"
            )
        if delta.edge_updates is not None:
            rows, cols, weights = delta.edge_updates
            if not (rows.shape == cols.shape == weights.shape):
                raise GraphError("edge_updates arrays must share one shape")
            if rows.size and (
                rows.min() < 0
                or cols.min() < 0
                or rows.max() >= self.num_nodes
                or cols.max() >= self.num_nodes
            ):
                raise GraphError("edge_updates indices out of range")

    def _apply_delta_dense(self, delta: GraphDelta) -> np.ndarray:
        adjacency = self.to_dense().copy()
        if delta.edge_keep is not None:
            rows, cols, _ = self.edges()
            dropped = ~delta.edge_keep
            adjacency[rows[dropped], cols[dropped]] = 0.0
        if delta.node_keep is not None:
            dropped = ~delta.node_keep
            adjacency[dropped, :] = 0.0
            adjacency[:, dropped] = 0.0
        if delta.edge_updates is not None:
            rows, cols, weights = delta.edge_updates
            np.maximum.at(adjacency, (rows, cols), weights)
        return adjacency

    def _apply_delta_csr(self, delta: GraphDelta) -> sp.csr_array:
        rows, cols, values = self.edges()
        if delta.edge_keep is not None:
            keep = delta.edge_keep
            rows, cols, values = rows[keep], cols[keep], values[keep]
        if delta.node_keep is not None:
            keep = delta.node_keep[rows] & delta.node_keep[cols]
            rows, cols, values = rows[keep], cols[keep], values[keep]
        if delta.edge_updates is not None:
            add_rows, add_cols, add_values = delta.edge_updates
            rows = np.concatenate([rows, np.asarray(add_rows, dtype=rows.dtype)])
            cols = np.concatenate([cols, np.asarray(add_cols, dtype=cols.dtype)])
            values = np.concatenate([values, np.asarray(add_values, dtype=values.dtype)])
            # Combine duplicate coordinates by maximum (AddEdge semantics);
            # coo_array would *sum* duplicates, so dedupe first.
            keys = rows.astype(np.int64) * self.num_nodes + cols
            unique, inverse = np.unique(keys, return_inverse=True)
            merged = np.full(unique.shape, -np.inf, dtype=values.dtype)
            np.maximum.at(merged, inverse, values)
            rows = (unique // self.num_nodes).astype(rows.dtype)
            cols = (unique % self.num_nodes).astype(cols.dtype)
            values = merged
        matrix = sp.coo_array(
            (values, (rows, cols)), shape=self._csr.shape, dtype=self._csr.dtype
        )
        return sp.csr_array(matrix.tocsr())

    # ------------------------------------------------------------------ #
    # Shard views (node-sharded serving)
    # ------------------------------------------------------------------ #
    def row_block(self, start: int, stop: int) -> sp.csr_array:
        """Contiguous CSR row slice ``adjacency[start:stop, :]``.

        CSR stores rows contiguously, so a contiguous node range slices in
        ``O(rows + nnz_block)`` with no re-sorting.
        """
        if not 0 <= start <= stop <= self.num_nodes:
            raise GraphError(
                f"row block [{start}, {stop}) out of range for {self.num_nodes} nodes"
            )
        return sp.csr_array(self._csr[start:stop, :])

    def halo_profile(self, plan, order: int, directed: bool | None = None) -> dict:
        """Per-shard halo statistics of this graph's supports under ``plan``.

        Partitions the cached conv supports (through the shared partition
        cache, so a later partitioned forward reuses the blocks) and reports,
        per shard, the owned-node count and the *worst-case* halo across the
        support set — the gathered operand's extra rows at a spatial mix.
        """
        directed = self.directed if directed is None else bool(directed)
        fused = self.fused_conv_supports(order, directed)
        partitioned = []
        if fused is not None:
            partitioned.append(spk.partition_fused_blocks(fused, plan))
        else:
            for member in self.conv_supports(order, directed):
                if sp.issparse(member):
                    partitioned.append(spk.partition_support_blocks(member, plan))
        shards = []
        for k in range(plan.num_shards):
            owned = len(plan.owned(k))
            halo = max((len(p.halos[k].foreign) for p in partitioned), default=0)
            shards.append(
                {
                    "owned": owned,
                    "halo": halo,
                    "halo_fraction": halo / max(1, self.num_nodes),
                }
            )
        return {
            "num_shards": plan.num_shards,
            "num_nodes": self.num_nodes,
            "shards": shards,
            "max_halo_fraction": max((s["halo_fraction"] for s in shards), default=0.0),
        }

    def shard_view(self, node_keep: np.ndarray, name: str | None = None) -> "Graph":
        """The graph restricted to ``node_keep`` nodes (others isolated).

        A convenience over :meth:`apply_delta` with a node mask: every edge
        touching a masked-out node is dropped while the node set (and hence
        observation shapes) is preserved, which is what per-shard serving
        needs — shard workers run the full-width model and own only their
        rows of the output.
        """
        node_keep = np.asarray(node_keep, dtype=bool)
        delta = GraphDelta(node_keep=node_keep, description=name or "shard")
        return self.apply_delta(delta)

    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        return Graph(
            self._csr.copy(),
            coordinates=None if self.coordinates is None else self.coordinates.copy(),
            name=self.name,
            directed=self.directed,
        )

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, num_nodes={self.num_nodes}, nnz={self.nnz}, "
            f"directed={self.directed})"
        )
