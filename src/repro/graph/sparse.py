"""Sparse (CSR) diffusion-support construction with a content-keyed cache.

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

:func:`cached_diffusion_supports` adds a content-keyed LRU cache on top:
callers that pass a *copy* of the same adjacency every period (the URCL
augmentation pipeline does exactly that) hit the cache instead of
recomputing the full power series.
"""

from __future__ import annotations

import contextlib
import hashlib
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
    "cached_diffusion_supports",
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


# ---------------------------------------------------------------------- #
# Content-keyed support cache
# ---------------------------------------------------------------------- #
_CACHE_MAX_ENTRIES = 64

# Random graph augmentations produce a fresh content key every step, so the
# cache is also bounded by bytes: stale support sets for large graphs are
# evicted long before the entry cap (dense N=2000 supports are ~32 MB each).
_CACHE_MAX_BYTES = 256 * 1024 * 1024

_support_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_cache_bytes = 0
_cache_hits = 0
_cache_misses = 0


def _support_nbytes(support) -> int:
    if sp.issparse(support):
        return int(support.data.nbytes + support.indices.nbytes + support.indptr.nbytes)
    return int(support.nbytes)


# Identity fast path: repeated lookups of the *same array object* skip the
# SHA-1 over ~N^2 bytes.  Entries are keyed by id() and validated through a
# weak reference (a dead array's id can be recycled by a new allocation) plus
# the shape/dtype, which in-place content mutation cannot change undetected
# for the caller patterns this serves (steady-state training loops reusing a
# prebuilt adjacency).  Callers that DO mutate an adjacency in place must
# call :func:`clear_support_cache` afterwards.
_IDENTITY_MAX_ENTRIES = 128

_identity_digests: "OrderedDict[int, tuple]" = OrderedDict()
_identity_hits = 0


def _content_digest(adjacency) -> str:
    """SHA-1 of the adjacency content (CSR triplet for sparse inputs)."""
    if sp.issparse(adjacency):
        csr = adjacency.tocsr()
        digest = hashlib.sha1()
        digest.update(np.ascontiguousarray(csr.indptr).tobytes())
        digest.update(np.ascontiguousarray(csr.indices).tobytes())
        digest.update(np.ascontiguousarray(csr.data).tobytes())
        return digest.hexdigest()
    array = np.ascontiguousarray(np.asarray(adjacency))
    return hashlib.sha1(array.tobytes()).hexdigest()


def _cached_digest(adjacency) -> str:
    """Content digest with an ``id()``-keyed fast path for reused objects."""
    global _identity_hits
    token = id(adjacency)
    shape = tuple(adjacency.shape)
    dtype = np.dtype(adjacency.dtype).str
    entry = _identity_digests.get(token)
    if entry is not None:
        ref, cached_shape, cached_dtype, digest = entry
        if ref() is adjacency and cached_shape == shape and cached_dtype == dtype:
            _identity_hits += 1
            _identity_digests.move_to_end(token)
            return digest
        # Stale slot: the id was recycled or the array changed layout.
        _identity_digests.pop(token, None)
    digest = _content_digest(adjacency)
    try:
        ref = weakref.ref(adjacency, lambda _, token=token: _identity_digests.pop(token, None))
    except TypeError:
        # Some array-likes (e.g. plain lists coerced upstream) refuse weak
        # references; they simply never take the fast path.
        return digest
    _identity_digests[token] = (ref, shape, dtype, digest)
    while len(_identity_digests) > _IDENTITY_MAX_ENTRIES:
        _identity_digests.popitem(last=False)
    return digest


def _content_key(adjacency, order: int, directed: bool) -> tuple:
    """Hash the adjacency *content* plus every knob that shapes the supports."""
    return (
        _cached_digest(adjacency),
        tuple(adjacency.shape),
        int(order),
        bool(directed),
        np.dtype(get_default_dtype()).str,
        _SPATIAL_MODE,
    )


def cached_diffusion_supports(adjacency, order: int, directed: bool = False) -> tuple:
    """Diffusion supports memoised by adjacency *content*.

    Two arrays with equal bytes map to the same prebuilt supports, so
    callers that defensively ``copy()`` the adjacency per call (URCL's
    augmentation pipeline) stop paying the full power-series rebuild.
    Returns an immutable tuple; callers must not modify the entries.

    Repeated lookups of the *same object* (matching ``id()``, unchanged
    shape/dtype) skip even the content hash, which means in-place mutation
    of a previously looked-up adjacency is NOT detected — mutate-and-reuse
    callers must call :func:`clear_support_cache` after editing edge
    weights in place (or pass a fresh array, which re-keys by content).
    """
    global _cache_hits, _cache_misses, _cache_bytes
    key = _content_key(adjacency, order, directed)
    cached = _support_cache.get(key)
    if cached is not None:
        _cache_hits += 1
        _support_cache.move_to_end(key)
        return cached
    _cache_misses += 1
    supports = tuple(diffusion_supports(adjacency, order, directed=directed))
    _support_cache[key] = supports
    _cache_bytes += sum(_support_nbytes(s) for s in supports)
    while _support_cache and (
        len(_support_cache) > _CACHE_MAX_ENTRIES or _cache_bytes > _CACHE_MAX_BYTES
    ):
        _, evicted = _support_cache.popitem(last=False)
        _cache_bytes -= sum(_support_nbytes(s) for s in evicted)
    return supports


# ---------------------------------------------------------------------- #
# Cached CSR transposes (spmm backward) and fused multi-support stacks
# ---------------------------------------------------------------------- #
# Both caches are keyed by object identity and hold a strong reference to the
# keyed object, so an id can never be recycled while its entry is alive.
# Augmented graphs retire their supports every step, so both caches are also
# byte-bounded: stale entries for large graphs evict long before the entry
# cap.
_TRANSPOSE_MAX_ENTRIES = 256
_TRANSPOSE_MAX_BYTES = 128 * 1024 * 1024

_transpose_cache: "OrderedDict[int, tuple]" = OrderedDict()
_transpose_bytes = 0


def transpose_csr(matrix):
    """Return ``matrix.T`` as CSR, cached per support object.

    The ``spmm`` backward multiplies by the transposed support; deriving the
    transpose per step means a CSC->CSR conversion on every backward pass.
    Supports are long-lived (built once per graph and reused every step), so
    the transpose is computed once here and handed to ``spmm``/``spmm_multi``
    on every subsequent call.
    """
    global _transpose_bytes
    key = id(matrix)
    entry = _transpose_cache.get(key)
    if entry is not None and entry[0] is matrix:
        _transpose_cache.move_to_end(key)
        return entry[1]
    transposed = sp.csr_array(matrix.T.tocsr())
    # The keyed matrix is strongly referenced (that is what keeps the id
    # valid), so it counts toward the budget too — otherwise retired
    # supports of augmented graphs would stay pinned invisibly.
    nbytes = _support_nbytes(matrix) + _support_nbytes(transposed)
    _transpose_cache[key] = (matrix, transposed, nbytes)
    _transpose_bytes += nbytes
    while _transpose_cache and (
        len(_transpose_cache) > _TRANSPOSE_MAX_ENTRIES
        or _transpose_bytes > _TRANSPOSE_MAX_BYTES
    ):
        _, evicted = _transpose_cache.popitem(last=False)
        _transpose_bytes -= evicted[2]
    return transposed


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


_FUSE_MAX_ENTRIES = 64
_FUSE_MAX_BYTES = 256 * 1024 * 1024

_fuse_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_fuse_bytes = 0


def _fused_nbytes(fused) -> int:
    if fused is None:
        return 0
    return _support_nbytes(fused.stacked) + _support_nbytes(fused.transpose)


def fuse_supports(supports, skip_first: bool = False):
    """Stack an all-CSR support set for the fused spmm (``None`` otherwise).

    ``supports`` must be a stable (cached/long-lived) sequence: results are
    memoised by its identity.  ``skip_first=True`` fuses ``supports[1:]``
    (callers that treat the leading identity support implicitly).  Returns a
    :class:`FusedSupports` or ``None`` when fewer than two supports remain
    or any member is stored dense.
    """
    global _fuse_bytes
    key = (id(supports), bool(skip_first))
    entry = _fuse_cache.get(key)
    if entry is not None and entry[0] is supports:
        _fuse_cache.move_to_end(key)
        return entry[1]
    members = list(supports[1:] if skip_first else supports)
    if len(members) < 2 or not all(sp.issparse(member) for member in members):
        fused = None
    else:
        stacked = sp.csr_array(sp.vstack(members, format="csr"))
        transpose = sp.csr_array(stacked.T.tocsr())
        fused = FusedSupports(stacked, transpose, len(members))
    # Budget the strongly-referenced keyed supports as well as the fused
    # arrays: a ``None`` result still pins the whole support set (possibly
    # dense members for auto-mode augmented graphs), which the byte cap
    # must see or retired sets linger until the entry cap.
    nbytes = _fused_nbytes(fused) + sum(_support_nbytes(s) for s in supports)
    _fuse_cache[key] = (supports, fused, nbytes)
    _fuse_bytes += nbytes
    while _fuse_cache and (
        len(_fuse_cache) > _FUSE_MAX_ENTRIES or _fuse_bytes > _FUSE_MAX_BYTES
    ):
        _, evicted = _fuse_cache.popitem(last=False)
        _fuse_bytes -= evicted[2]
    return fused


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
# the keyed object (ids cannot recycle while the entry lives), mirroring the
# transpose cache.  One build serves all K shard threads: the first thread to
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

# Every live Graph registers here so clear_support_cache() can also drop the
# per-instance support/transpose caches (satisfying "one switch empties all
# derived spatial state", e.g. after in-place adjacency edits).
_graph_registry: "weakref.WeakSet" = weakref.WeakSet()


def _register_graph(graph) -> None:
    _graph_registry.add(graph)


# ---------------------------------------------------------------------- #
# Byte-bounded LRU over the per-Graph support caches
# ---------------------------------------------------------------------- #
# Each Graph keeps its own key -> supports dicts for hash-free lookups, but
# every stored set also registers here under ``(id(graph), key)``; when the
# combined footprint crosses the budget the coldest set — on *any* live
# graph — is dropped from its owner, exactly like the content-keyed digest
# cache evicts.  Long-lived graphs under dtype/mode sweeps no
# longer accumulate one support set per knob combination forever.
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
    """(Re-)register one per-graph support set and evict past the budget."""
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

    Drops the content-keyed cache, the identity fast path, the cached CSR
    transposes, the fused stacks, and the per-:class:`repro.graph.Graph`
    support/transpose caches of every live graph.
    """
    global _cache_hits, _cache_misses, _cache_bytes, _identity_hits
    global _delta_hits, _dense_fallbacks, _transpose_bytes, _fuse_bytes
    global _graph_support_builds, _graph_support_bytes, _graph_support_evictions
    global _partition_bytes, _partition_hits, _partition_misses
    _support_cache.clear()
    _identity_digests.clear()
    _transpose_cache.clear()
    _fuse_cache.clear()
    with _partition_lock:
        _partition_cache.clear()
        _partition_bytes = 0
        _partition_hits = 0
        _partition_misses = 0
    for graph in list(_graph_registry):
        graph.clear_caches()
    _graph_support_lru.clear()
    _cache_bytes = 0
    _transpose_bytes = 0
    _fuse_bytes = 0
    _cache_hits = 0
    _cache_misses = 0
    _identity_hits = 0
    _delta_hits = 0
    _dense_fallbacks = 0
    _graph_support_builds = 0
    _graph_support_bytes = 0
    _graph_support_evictions = 0


def support_cache_stats() -> dict:
    """Cache counters: content hits/misses, entries, bytes, identity hits.

    ``identity_hits`` counts lookups that skipped the content SHA-1 because
    the exact same adjacency object (unchanged shape/dtype) was seen again.
    ``delta_hits`` counts augmentation deltas applied CSR-natively (no dense
    ``(N, N)`` materialisation); ``dense_fallbacks`` counts deltas that went
    through the dense path (``spatial_mode("dense")``).
    """
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "entries": len(_support_cache),
        "bytes": _cache_bytes,
        "identity_hits": _identity_hits,
        "identity_entries": len(_identity_digests),
        "delta_hits": _delta_hits,
        "dense_fallbacks": _dense_fallbacks,
        "graph_support_builds": _graph_support_builds,
        "graph_support_entries": len(_graph_support_lru),
        "graph_support_bytes": _graph_support_bytes,
        "graph_support_limit_bytes": _GRAPH_SUPPORT_MAX_BYTES,
        "graph_support_evictions": _graph_support_evictions,
        "transpose_entries": len(_transpose_cache),
        "fused_entries": len(_fuse_cache),
        "partition_hits": _partition_hits,
        "partition_misses": _partition_misses,
        "partition_entries": len(_partition_cache),
        "partition_bytes": _partition_bytes,
        "graphs_tracked": len(_graph_registry),
    }
