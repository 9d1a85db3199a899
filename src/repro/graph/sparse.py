"""Sparse (CSR) diffusion-support construction.

Real sensor graphs (METR-LA-style distance graphs) are typically >95%
sparse, yet the seed implementation stored every diffusion support as a
dense ``N x N`` array and paid ``O(N^2)`` per spatial mix.  This module is
the sparse-native counterpart of :mod:`repro.graph.adjacency`: every
normalisation and the truncated power series operate directly on
``scipy.sparse`` CSR matrices and **auto-densify** any support whose
density (nnz/size) rises above 0.1 (dense BLAS wins on dense matrices, CSR
wins on sparse ones).

Two global knobs control the behaviour:

* :func:`set_spatial_mode` — ``"auto"`` (default, pick per-support by
  density), ``"dense"`` (seed behaviour, always dense) or ``"sparse"``
  (force CSR; used by the equivalence tests).
* the library default dtype (:func:`repro.tensor.set_default_dtype`) —
  supports are built at the configured precision so a float32 run never
  silently upcasts to float64.

The builders here cache nothing.  Every support set, its CSR transposes
and its fused stack live on the :class:`repro.graph.Graph` they were built
from; this module keeps only the byte-bounded LRU those per-graph sets
register with, the partition cache of the sharded forward, and the
counters :func:`support_cache_stats` reports.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from collections import OrderedDict

import numpy as np
from scipy import sparse as sp

from ..exceptions import GraphError
from ..tensor import get_default_dtype
from . import adjacency as dense_ops

__all__ = [
    "get_density_threshold",
    "get_spatial_mode",
    "set_spatial_mode",
    "spatial_mode",
    "get_fused_spmm",
    "density",
    "to_csr",
    "as_support",
    "add_self_loops",
    "row_normalize",
    "symmetric_normalize",
    "forward_transition",
    "backward_transition",
    "power_series",
    "diffusion_supports",
    "transpose_csr",
    "FusedSupports",
    "fuse_supports",
    "HaloLayout",
    "PartitionedSupport",
    "partition_support_blocks",
    "partition_fused_blocks",
    "clear_support_cache",
    "support_cache_stats",
]

_DENSITY_THRESHOLD = 0.1

_SPATIAL_MODE = "auto"

_MODES = ("auto", "dense", "sparse")


def get_density_threshold() -> float:
    """Return the nnz/size ratio above which supports are stored dense."""
    return _DENSITY_THRESHOLD


def get_spatial_mode() -> str:
    """Return the current spatial-kernel mode (``auto``/``dense``/``sparse``)."""
    return _SPATIAL_MODE


def set_spatial_mode(mode: str) -> str:
    """Select how supports are stored: by density, always dense, or always CSR."""
    global _SPATIAL_MODE
    if mode not in _MODES:
        raise ValueError(f"spatial mode must be one of {_MODES}, got {mode!r}")
    _SPATIAL_MODE = mode
    return mode


@contextlib.contextmanager
def spatial_mode(mode: str):
    """Context manager that temporarily switches the spatial-kernel mode."""
    previous = _SPATIAL_MODE
    set_spatial_mode(mode)
    try:
        yield mode
    finally:
        set_spatial_mode(previous)


def get_fused_spmm() -> bool:
    """Whether all-CSR support sets are mixed through one fused spmm (always)."""
    return True


# ---------------------------------------------------------------------- #
# Representation helpers
# ---------------------------------------------------------------------- #
def density(matrix) -> float:
    """Fraction of non-zero entries (structural nnz for sparse, counted for dense)."""
    if sp.issparse(matrix):
        rows, cols = matrix.shape
        total = rows * cols
        return matrix.nnz / total if total else 0.0
    array = np.asarray(matrix)
    return float(np.count_nonzero(array)) / array.size if array.size else 0.0


def _check_square_any(matrix):
    if sp.issparse(matrix):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphError(f"adjacency must be square, got {matrix.shape}")
        return matrix
    return dense_ops._check_square(matrix)


def to_csr(matrix, dtype=None) -> sp.csr_array:
    """Coerce a dense array or any scipy-sparse matrix into CSR at ``dtype``."""
    dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
    if sp.issparse(matrix):
        out = matrix.tocsr()
    else:
        out = sp.csr_array(np.asarray(matrix))
    if out.dtype != dtype:
        out = out.astype(dtype)
    return sp.csr_array(out)


def as_support(matrix):
    """Return ``matrix`` in the storage the current mode and its density select.

    CSR when sparse enough (or forced), a plain ``ndarray`` otherwise —
    always at the library default dtype.
    """
    mode = _SPATIAL_MODE
    if mode == "dense":
        return _to_dense(matrix)
    if mode == "sparse":
        return to_csr(matrix)
    if density(matrix) > _DENSITY_THRESHOLD:
        return _to_dense(matrix)
    return to_csr(matrix)


def _to_dense(matrix) -> np.ndarray:
    dtype = get_default_dtype()
    if sp.issparse(matrix):
        return matrix.toarray().astype(dtype, copy=False)
    return np.asarray(matrix, dtype=dtype)


# ---------------------------------------------------------------------- #
# Sparse-native normalisations (Eq. 19-22)
# ---------------------------------------------------------------------- #
def add_self_loops(matrix, weight: float = 1.0):
    """Sparse-aware :math:`\\tilde A = A + w I` (Eq. 19)."""
    matrix = _check_square_any(matrix)
    if not sp.issparse(matrix):
        return dense_ops.add_self_loops(matrix, weight=weight)
    eye = sp.eye_array(matrix.shape[0], dtype=matrix.dtype, format="csr")
    return (matrix + weight * eye).tocsr()


def row_normalize(matrix):
    """Sparse-aware row normalisation (rows of zeros stay zero)."""
    matrix = _check_square_any(matrix)
    if not sp.issparse(matrix):
        return dense_ops.row_normalize(matrix)
    matrix = matrix.tocsr()
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    # Rows without positive mass are left unchanged (divided by 1), exactly
    # like the dense counterpart.
    inverse = np.where(row_sums > 0, 1.0 / np.where(row_sums > 0, row_sums, 1.0), 1.0)
    scaler = sp.diags_array(inverse.astype(matrix.dtype, copy=False), format="csr")
    return (scaler @ matrix).tocsr()


def symmetric_normalize(matrix):
    """Sparse-aware :math:`D^{-1/2} \\tilde A D^{-1/2}` with self loops added."""
    matrix = _check_square_any(matrix)
    if not sp.issparse(matrix):
        return dense_ops.symmetric_normalize(matrix)
    matrix = add_self_loops(matrix)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, degrees ** -0.5, 0.0).astype(matrix.dtype, copy=False)
    scaler = sp.diags_array(inv_sqrt, format="csr")
    return (scaler @ matrix @ scaler).tocsr()


def forward_transition(matrix):
    """Sparse-aware forward transition matrix :math:`P^f` (Eq. 21)."""
    return row_normalize(add_self_loops(_check_square_any(matrix)))


def backward_transition(matrix):
    """Sparse-aware backward transition matrix (transposed graph)."""
    matrix = _check_square_any(matrix)
    if sp.issparse(matrix):
        matrix = matrix.T.tocsr()
    else:
        matrix = matrix.T
    return row_normalize(add_self_loops(matrix))


def _predicted_product_density(left, right) -> float:
    """Cheap upper-bound estimate of ``density(left @ right)`` for CSR inputs.

    Every non-zero of ``left`` touches on average ``nnz(right) / N`` entries
    of the product row, so the expected fill is
    ``nnz(left) * nnz(right) / N^3`` (capped at 1).  An overestimate only
    costs an early switch to the dense kernel, which is exactly the regime
    where sparse-sparse products stop paying anyway.
    """
    size = left.shape[0]
    if size == 0:
        return 0.0
    return min(1.0, left.nnz * (right.nnz / size) / (size * size))


def power_series(matrix, order: int) -> list:
    """Return ``[I, P, ..., P^order]``, each stored dense or CSR by density.

    The recurrence starts from ``P`` directly (the seed version burned a
    dense ``N x N`` matmul on ``I @ P``); higher powers densify as the
    graph's neighbourhoods grow, so each power is re-examined by
    :func:`as_support` and the matmul chain switches to dense BLAS the
    moment a power crosses the density threshold.  In ``auto`` mode the
    switch is additionally *predictive*: when the estimated fill of the
    next power already exceeds the threshold, the step is computed as a
    CSR x dense product (``O(nnz * N)``) instead of burning a sparse-sparse
    multiplication whose hash-based accumulation is far slower than BLAS on
    a nearly-dense result.
    """
    matrix = _check_square_any(matrix)
    if order < 0:
        raise ValueError("order must be >= 0")
    identity = sp.eye_array(matrix.shape[0], dtype=get_default_dtype(), format="csr")
    powers: list = [as_support(identity)]
    if order == 0:
        return powers
    base = as_support(matrix)
    # The first power is copied: as_support may hand back the caller's own
    # array (or share its CSR buffers), and stored supports must survive the
    # caller mutating its matrix afterwards.
    current = base.copy()
    powers.append(current)
    base_dense = None
    for _ in range(order - 1):
        if (
            _SPATIAL_MODE == "auto"
            and sp.issparse(current)
            and sp.issparse(base)
            and _predicted_product_density(current, base) > _DENSITY_THRESHOLD
        ):
            if base_dense is None:
                base_dense = _to_dense(base)
            current = as_support(current @ base_dense)
        else:
            # scipy dispatches every storage pairing (CSR @ CSR stays sparse,
            # any dense operand yields a dense product).
            current = as_support(current @ base)
        powers.append(current)
    return powers


def diffusion_supports(adjacency, order: int, directed: bool = False) -> list:
    """Sparse-aware diffusion supports (Eq. 21-22), mirroring the dense API."""
    forward = power_series(forward_transition(adjacency), order)
    if not directed:
        return forward
    backward = power_series(backward_transition(adjacency), order)
    supports = list(forward)
    supports.extend(backward[1:])
    return supports


def _support_nbytes(support) -> int:
    if sp.issparse(support):
        return int(support.data.nbytes + support.indices.nbytes + support.indptr.nbytes)
    return int(support.nbytes)


# ---------------------------------------------------------------------- #
# CSR transposes (spmm backward) and fused multi-support stacks
# ---------------------------------------------------------------------- #
def transpose_csr(matrix):
    """Return ``matrix.T`` as CSR (the operand of the ``spmm`` backward)."""
    return sp.csr_array(matrix.T.tocsr())


class FusedSupports:
    """A support set stacked for the fused multi-support spmm.

    ``stacked`` is ``vstack([A_1..A_S])`` — one ``(S*N, N)`` CSR traversed
    once per forward; ``transpose`` is its precomputed ``(N, S*N)`` CSR
    transpose used by the backward pass.
    """

    __slots__ = ("stacked", "transpose", "count")

    def __init__(self, stacked, transpose, count: int):
        self.stacked = stacked
        self.transpose = transpose
        self.count = count


def fuse_supports(supports):
    """Stack an all-CSR support set for the fused spmm (``None`` otherwise).

    Returns a :class:`FusedSupports`, or ``None`` when there are fewer than
    two supports or any member is stored dense.
    """
    if len(supports) < 2 or not all(sp.issparse(member) for member in supports):
        return None
    stacked = sp.csr_array(sp.vstack(list(supports), format="csr"))
    return FusedSupports(stacked, transpose_csr(stacked), len(supports))


# ---------------------------------------------------------------------- #
# Partitioned row blocks for exact memory-sharded inference
# ---------------------------------------------------------------------- #
class HaloLayout:
    """One shard's node layout for a partitioned support.

    ``owned`` — the shard's node ids, ascending (the order its activation
    rows travel in).  ``foreign`` — the halo ids its CSR columns reference,
    grouped by owning shard (owners ascending, ids ascending within each
    group).  ``foreign_owner_offsets`` — ``K+1`` prefix offsets delimiting
    each owner's group inside ``foreign``.
    """

    __slots__ = ("owned", "foreign", "foreign_owner_offsets")

    def __init__(self, owned, foreign, foreign_owner_offsets):
        self.owned = owned
        self.foreign = foreign
        self.foreign_owner_offsets = foreign_owner_offsets


class PartitionedSupport:
    """All ``K`` rectangular row blocks of one support (or fused stack).

    ``blocks[k]`` is the ``(count * n_k, n_k + halo_k)`` CSR whose per-row
    data order is *identical* to the source support's — the column remap
    rewrites index values through a lookup table and never re-sorts, so the
    CSR·dense kernel accumulates each output row in exactly the unsharded
    order (bit-identical results).  ``runtime`` is scratch space for derived
    wiring (gather specs) built lazily under ``lock``.
    """

    __slots__ = ("blocks", "halos", "count", "nbytes", "runtime", "lock")

    def __init__(self, blocks, halos, count: int, nbytes: int):
        self.blocks = blocks
        self.halos = halos
        self.count = int(count)
        self.nbytes = int(nbytes)
        self.runtime: dict = {}
        self.lock = threading.Lock()

    def halo_counts(self) -> list:
        """Per-shard ``(owned, halo)`` node counts (bench/diagnostics)."""
        return [(len(h.owned), len(h.foreign)) for h in self.halos]


def _partition_stacked(stacked, plan, count: int) -> PartitionedSupport:
    """Cut a ``(count * N, N)`` CSR into per-shard rectangular row blocks."""
    num_nodes = int(plan.num_nodes)
    num_shards = int(plan.num_shards)
    owner_of = plan.owner_of
    index_dtype = stacked.indices.dtype
    blocks, halos = [], []
    nbytes = 0
    for k in range(num_shards):
        owned = plan.owned(k)
        if count == 1:
            row_ids = owned
        else:
            # Support-major: rows of support s sit at ``s * n_k + local``,
            # matching the vstack layout spmm_multi splits on.
            row_ids = (
                np.arange(count, dtype=np.int64)[:, None] * num_nodes + owned[None, :]
            ).ravel()
        rows = sp.csr_array(stacked[row_ids])
        cols = np.unique(rows.indices)
        foreign = cols[owner_of[cols] != k]
        owners = owner_of[foreign]
        # Stable grouping: owners ascending, ids ascending within each owner
        # (np.lexsort sorts by its *last* key first).
        order = np.lexsort((foreign, owners))
        foreign = foreign[order]
        offsets = np.zeros(num_shards + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners[order], minlength=num_shards), out=offsets[1:])
        n_local = len(owned)
        col_map = np.empty(num_nodes, dtype=index_dtype)
        col_map[owned] = np.arange(n_local, dtype=index_dtype)
        col_map[foreign] = n_local + np.arange(len(foreign), dtype=index_dtype)
        # Remap column *values* only — per-row storage order is untouched, so
        # the (possibly unsorted) indices reproduce the source accumulation
        # order exactly.  scipy's CSR kernels do not require sorted indices.
        block = sp.csr_array(
            (rows.data, col_map[rows.indices], rows.indptr),
            shape=(rows.shape[0], n_local + len(foreign)),
        )
        blocks.append(block)
        halos.append(HaloLayout(owned, foreign, offsets))
        nbytes += _support_nbytes(block) + owned.nbytes + foreign.nbytes
    return PartitionedSupport(blocks, halos, count, nbytes)


# Keyed by ``(id(support-or-fused), plan.token)`` with a strong reference to
# the keyed object (ids cannot recycle while the entry lives).  One build serves all K shard threads: the first thread to
# miss builds under the lock, its peers then hit.
_PARTITION_MAX_ENTRIES = 128
_PARTITION_MAX_BYTES = 256 * 1024 * 1024

_partition_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_partition_bytes = 0
_partition_hits = 0
_partition_misses = 0
_partition_lock = threading.RLock()


def _partition_lookup(obj, stacked, plan, count: int) -> PartitionedSupport:
    global _partition_bytes, _partition_hits, _partition_misses
    key = (id(obj), plan.token)
    with _partition_lock:
        entry = _partition_cache.get(key)
        if entry is not None and entry[0] is obj:
            _partition_hits += 1
            _partition_cache.move_to_end(key)
            return entry[1]
        _partition_misses += 1
        partitioned = _partition_stacked(stacked, plan, count)
        nbytes = partitioned.nbytes + _support_nbytes(stacked)
        _partition_cache[key] = (obj, partitioned, nbytes)
        _partition_bytes += nbytes
        while _partition_cache and (
            len(_partition_cache) > _PARTITION_MAX_ENTRIES
            or _partition_bytes > _PARTITION_MAX_BYTES
        ):
            _, evicted = _partition_cache.popitem(last=False)
            _partition_bytes -= evicted[2]
        return partitioned


def partition_support_blocks(support, plan) -> PartitionedSupport:
    """Per-shard row blocks of one ``(N, N)`` CSR support, cached per
    ``(support identity, plan token)``."""
    return _partition_lookup(support, support, plan, 1)


def partition_fused_blocks(fused, plan) -> PartitionedSupport:
    """Per-shard row blocks of a :class:`FusedSupports` stack.

    The halo layout is the union over all member supports, so one gather
    feeds every support's block in a single rectangular ``spmm_multi``.
    """
    return _partition_lookup(fused, fused.stacked, plan, fused.count)


# ---------------------------------------------------------------------- #
# Delta-path counters and the per-Graph cache registry
# ---------------------------------------------------------------------- #
_delta_hits = 0
_dense_fallbacks = 0
_graph_support_builds = 0

# Every live Graph registers here so clear_support_cache() can drop the
# support sets of every graph (one switch empties all derived spatial
# state, e.g. after in-place adjacency edits).
_graph_registry: "weakref.WeakSet" = weakref.WeakSet()


def _register_graph(graph) -> None:
    _graph_registry.add(graph)


# ---------------------------------------------------------------------- #
# Byte-bounded LRU over the per-Graph support caches
# ---------------------------------------------------------------------- #
# Each Graph keeps its own key -> support-set dict for hash-free lookups, but
# every stored set also registers here under ``(id(graph), key)``; when the
# combined footprint crosses the budget the coldest set — on *any* live
# graph — is dropped from its owner.  Long-lived graphs under dtype/mode
# sweeps no longer accumulate one support set per knob combination forever.
_GRAPH_SUPPORT_MAX_ENTRIES = 256
_GRAPH_SUPPORT_MAX_BYTES = 256 * 1024 * 1024

_graph_support_lru: "OrderedDict[tuple, tuple]" = OrderedDict()
_graph_support_bytes = 0
_graph_support_evictions = 0


def _graph_support_touch(graph, key) -> None:
    token = (id(graph), key)
    if token in _graph_support_lru:
        _graph_support_lru.move_to_end(token)


def _graph_support_store(graph, key, nbytes: int) -> None:
    """Register one per-graph support set and evict past the budget."""
    global _graph_support_bytes
    token = (id(graph), key)
    previous = _graph_support_lru.pop(token, None)
    if previous is not None:
        _graph_support_bytes -= previous[1]
    _graph_support_lru[token] = (weakref.ref(graph), int(nbytes))
    _graph_support_bytes += int(nbytes)
    while _graph_support_lru and (
        len(_graph_support_lru) > _GRAPH_SUPPORT_MAX_ENTRIES
        or _graph_support_bytes > _GRAPH_SUPPORT_MAX_BYTES
    ):
        _graph_support_evict_one()


def _graph_support_evict_one() -> None:
    global _graph_support_bytes, _graph_support_evictions
    (_, key), (ref, nbytes) = _graph_support_lru.popitem(last=False)
    _graph_support_bytes -= nbytes
    _graph_support_evictions += 1
    owner = ref()
    if owner is not None:
        owner._drop_support_entry(key)


def _graph_support_forget(graph) -> None:
    """Drop every LRU token owned by ``graph`` (clear_caches / GC path)."""
    global _graph_support_bytes
    gid = id(graph)
    for token in [t for t in _graph_support_lru if t[0] == gid]:
        _, nbytes = _graph_support_lru.pop(token)
        _graph_support_bytes -= nbytes


def set_graph_support_limit(max_bytes: int) -> None:
    """Resize the per-Graph support budget (evicting down immediately)."""
    global _GRAPH_SUPPORT_MAX_BYTES
    _GRAPH_SUPPORT_MAX_BYTES = int(max_bytes)
    while _graph_support_lru and _graph_support_bytes > _GRAPH_SUPPORT_MAX_BYTES:
        _graph_support_evict_one()


def _record_delta(dense_fallback: bool) -> None:
    """Count one augmentation-delta application (CSR-native vs densified)."""
    global _delta_hits, _dense_fallbacks
    if dense_fallback:
        _dense_fallbacks += 1
    else:
        _delta_hits += 1


def _record_graph_support_build() -> None:
    """Count one per-:class:`Graph` diffusion-support construction.

    The multi-tenant pool pins "T tenants sharing one graph build supports
    once" on this counter staying flat as tenants are added.
    """
    global _graph_support_builds
    _graph_support_builds += 1


def clear_support_cache() -> None:
    """Empty every derived-support cache and reset all counters.

    Drops the support sets of every live :class:`repro.graph.Graph` and the
    partition cache.  Call it after editing a graph's CSR in place.
    """
    global _delta_hits, _dense_fallbacks
    global _graph_support_builds, _graph_support_bytes, _graph_support_evictions
    global _partition_bytes, _partition_hits, _partition_misses
    with _partition_lock:
        _partition_cache.clear()
        _partition_bytes = 0
        _partition_hits = 0
        _partition_misses = 0
    for graph in list(_graph_registry):
        graph.clear_caches()
    _graph_support_lru.clear()
    _delta_hits = 0
    _dense_fallbacks = 0
    _graph_support_builds = 0
    _graph_support_bytes = 0
    _graph_support_evictions = 0


def support_cache_stats() -> dict:
    """Support-set, delta and partition counters.

    ``graph_support_*`` describe the per-:class:`repro.graph.Graph` support
    sets and their shared LRU.  ``delta_hits`` counts augmentation deltas
    applied CSR-natively (no dense ``(N, N)`` materialisation);
    ``dense_fallbacks`` counts deltas that went through the dense path
    (``spatial_mode("dense")``).
    """
    return {
        "delta_hits": _delta_hits,
        "dense_fallbacks": _dense_fallbacks,
        "graph_support_builds": _graph_support_builds,
        "graph_support_entries": len(_graph_support_lru),
        "graph_support_bytes": _graph_support_bytes,
        "graph_support_limit_bytes": _GRAPH_SUPPORT_MAX_BYTES,
        "graph_support_evictions": _graph_support_evictions,
        "partition_hits": _partition_hits,
        "partition_misses": _partition_misses,
        "partition_entries": len(_partition_cache),
        "partition_bytes": _partition_bytes,
        "graphs_tracked": len(_graph_registry),
    }
