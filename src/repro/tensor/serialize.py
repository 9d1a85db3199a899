"""Serialize compiled :class:`ProgramStructure` op-lists across processes.

A captured program is mostly *topology* — slots and the node op-list —
plus a set of heavyweight array payloads: baked CONST buffers
(diffusion supports, transposes, fused stacks) and the CSR matrices carried
in ``spmm``/``spmm_multi`` node params.  Shipping a structure to a worker
process therefore splits it in two:

* a **blob** (pickle bytes) holding the topology, with every
  ``numpy.ndarray`` and every ``scipy.sparse`` CSR operand externalized via
  the pickle *persistent id* protocol, and
* an **array table** (``list[np.ndarray]``), deduplicated by identity, that
  the caller is free to place wherever it wants — in particular in a
  ``multiprocessing.shared_memory`` segment so every worker maps the same
  support bytes zero-copy instead of unpickling private copies.

``load_structures(blob, arrays)`` is the inverse; the arrays it is handed
may be read-only shared-memory views.  Only *shareable* structures (every
PARAM slot binds by dotted name) can travel: a non-shareable structure pins
live ``Tensor`` objects that do not exist in another process.
"""

from __future__ import annotations

import io
import pickle

import numpy as np

from .program import PARAM, ProgramStructure, Slot

__all__ = ["dump_structures", "load_structures"]

_CSR_CLASSES: dict[str, type] = {}


def _csr_types() -> dict[str, type]:
    """Name -> class map of the scipy CSR-like types we externalize."""
    if not _CSR_CLASSES:
        try:
            from scipy import sparse as sp

            for cls in (sp.csr_matrix, sp.csc_matrix):
                _CSR_CLASSES[cls.__name__] = cls
            for name in ("csr_array", "csc_array"):
                cls = getattr(sp, name, None)
                if cls is not None:
                    _CSR_CLASSES[name] = cls
        except Exception:  # pragma: no cover - scipy is a hard dep in practice
            pass
    return _CSR_CLASSES


class _ArrayTable:
    """Identity-deduplicated array registry backing the persistent ids."""

    def __init__(self):
        self.arrays: list[np.ndarray] = []
        self._index: dict[int, int] = {}

    def add(self, array: np.ndarray) -> int:
        key = id(array)
        index = self._index.get(key)
        if index is None:
            index = len(self.arrays)
            self._index[key] = index
            self.arrays.append(array)
        return index


class _StructurePickler(pickle.Pickler):
    def __init__(self, file, table: _ArrayTable):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._table = table

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray):
            return ("arr", self._table.add(obj))
        compressed = _csr_types()
        for name, cls in compressed.items():
            if type(obj) is cls:
                return (
                    "csr",
                    name,
                    self._table.add(obj.data),
                    self._table.add(obj.indices),
                    self._table.add(obj.indptr),
                    tuple(int(d) for d in obj.shape),
                )
        return None


class _StructureUnpickler(pickle.Unpickler):
    def __init__(self, file, arrays):
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid):
        kind = pid[0]
        if kind == "arr":
            return self._arrays[pid[1]]
        if kind == "csr":
            _, name, data, indices, indptr, shape = pid
            cls = _csr_types()[name]
            matrix = cls(
                (self._arrays[data], self._arrays[indices], self._arrays[indptr]),
                shape=shape,
                copy=False,
            )
            # The triplet came from a canonical CSR; pinning the flags keeps
            # scipy from re-deriving them with writes into (possibly
            # read-only, shared) index arrays.
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
            return matrix
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _portable_slot(slot: Slot) -> Slot:
    """Copy a slot, dropping the process-local ``leaf`` tensor reference."""
    if slot.kind == PARAM and slot.name is None:
        raise ValueError(
            f"slot {slot.index} is an unnamed parameter leaf; "
            "only shareable structures can be serialized"
        )
    return Slot(
        slot.index, slot.kind, slot.shape, slot.dtype,
        name=slot.name, array=slot.array, leaf=None,
    )


def _portable(structure: ProgramStructure) -> ProgramStructure:
    if not structure.shareable:
        raise ValueError("only shareable structures can be serialized")
    return ProgramStructure(
        [_portable_slot(slot) for slot in structure.slots],
        structure.nodes,
        structure.input_slot,
        structure.out_slot,
        shareable=True,
    )


def dump_structures(items) -> tuple[bytes, list[np.ndarray]]:
    """Serialize ``[(fingerprint, structure), ...]`` into (blob, array table).

    The returned arrays are references to the live capture buffers — the
    caller copies them into its transport (e.g. a shared-memory segment)
    and hands the copies to :func:`load_structures` on the other side.
    """
    table = _ArrayTable()
    payload = [(fingerprint, _portable(s)) for fingerprint, s in items]
    buffer = io.BytesIO()
    _StructurePickler(buffer, table).dump(payload)
    return buffer.getvalue(), table.arrays


def load_structures(blob: bytes, arrays) -> list[tuple[tuple, ProgramStructure]]:
    """Inverse of :func:`dump_structures`.

    ``arrays`` is the table in dump order; read-only shared-memory views
    are fine (replay kernels never write CONST buffers or CSR operands).
    """
    loaded = _StructureUnpickler(io.BytesIO(blob), list(arrays)).load()
    for _, structure in loaded:
        if not isinstance(structure, ProgramStructure):  # pragma: no cover
            raise pickle.UnpicklingError("blob does not contain ProgramStructures")
    return loaded
