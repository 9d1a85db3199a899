"""Kernel-level invariants behind memory-sharded inference.

Three properties the partition path builds on:

* the canonical fixed-geometry matmul makes a row's bits a function of
  (row, operand) only — any row partition reproduces the unsharded bits;
* rectangular ``spmm_multi`` row blocks equal the row slice of the square
  product;
* threaded CSR kernels are exactly bit-identical to single-threaded ones.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.tensor import (
    MATMUL_BLOCK_ROWS,
    Tensor,
    get_spmm_threads,
    no_grad,
    set_spmm_threads,
    spmm,
    spmm_multi,
    track_activations,
)
from repro.tensor.tensor import MATMUL_BLOCK_COLS, _matmul_canonical
from repro.tensor.tensor import _matmul_execute


class TestCanonicalMatmul:
    # Output widths where plain BLAS per-row bits depend on the call's row
    # count (gemv-ish narrow kernels and odd panel tails).
    NASTY_WIDTHS = (1, 2, 3, 5, 7, 9, 11, 17, 20)

    @pytest.mark.parametrize("width", NASTY_WIDTHS)
    def test_row_subsets_reproduce_full_bits(self, width):
        rng = np.random.default_rng(width)
        a = rng.normal(size=(300, 24))
        b = rng.normal(size=(24, width))
        with no_grad():
            full = (Tensor(a) @ Tensor(b)).data
            for m in (1, 6, 12, 100, 299):
                idx = np.sort(rng.choice(300, size=m, replace=False))
                sub = (Tensor(a[idx]) @ Tensor(b)).data
                assert np.array_equal(sub, full[idx]), f"m={m} width={width}"

    def test_batched_row_subsets_reproduce_full_bits(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5, 48, 8))
        b = rng.normal(size=(8, 1))
        with no_grad():
            full = (Tensor(a) @ Tensor(b)).data
            for m in (2, 7, 24):
                idx = np.sort(rng.choice(48, size=m, replace=False))
                sub = (Tensor(a[:, :, idx]) @ Tensor(b)).data
                assert np.array_equal(sub, full[:, :, idx])

    def test_rows_past_block_size_still_invariant(self):
        rng = np.random.default_rng(1)
        rows = 3 * MATMUL_BLOCK_ROWS + 77
        a = rng.normal(size=(rows, 16))
        b = rng.normal(size=(16, 3))
        with no_grad():
            full = (Tensor(a) @ Tensor(b)).data
            idx = np.sort(rng.choice(rows, size=rows // 3, replace=False))
            sub = (Tensor(a[idx]) @ Tensor(b)).data
        assert np.array_equal(sub, full[idx])

    def test_wide_outputs_column_blocked(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(90, 64))
        b = rng.normal(size=(64, 300))
        with no_grad():
            full = (Tensor(a) @ Tensor(b)).data
            idx = np.sort(rng.choice(90, size=31, replace=False))
            sub = (Tensor(a[idx]) @ Tensor(b)).data
        assert np.array_equal(sub, full[idx])
        assert np.allclose(full, a @ b)

    def test_training_path_unchanged(self):
        """With gradients recording the plain BLAS product is used."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 8))
        b = rng.normal(size=(8, 4))
        product = Tensor(a, requires_grad=True) @ Tensor(b)
        assert np.array_equal(product.data, a @ b)


# ---------------------------------------------------------------------- #
# Exactness envelope of the canonical gemm (property tests)
# ---------------------------------------------------------------------- #
# Measured on OpenBLAS 0.3.31 (Haswell kernels): a 256-row f64 gemm whose
# output-column block is 193-255 wide and not a multiple of 8 computes a
# row's last few columns differently depending on the row's position inside
# the block (inner >= 16).  MATMUL_BLOCK_COLS is therefore 192, so no block
# the kernel issues falls in that hole, and the strategies below sample every
# block width up to it at both precisions, plus products that span blocks.


def _blas_build() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"BLAS {blas.get('name')} {blas.get('version')} "
        f"[{blas.get('openblas configuration', 'n/a')}], numpy {np.__version__}"
    )


def _parent_matmul_canonical(a, b):
    """The per-matrix padded kernel this repo shipped before the row-panel
    rewrite, kept verbatim as the bit-exactness oracle."""
    rows, inner = a.shape[-2], a.shape[-1]
    cols = b.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (rows, cols)
    out = np.empty(shape, dtype=np.result_type(a, b))
    for col_start in range(0, cols, MATMUL_BLOCK_COLS):
        col_stop = min(col_start + MATMUL_BLOCK_COLS, cols)
        b_block = b[..., :, col_start:col_stop]
        for row_start in range(0, rows, MATMUL_BLOCK_ROWS):
            row_stop = min(row_start + MATMUL_BLOCK_ROWS, rows)
            target = out[..., row_start:row_stop, col_start:col_stop]
            if row_stop - row_start == MATMUL_BLOCK_ROWS:
                np.matmul(a[..., row_start:row_stop, :], b_block, out=target)
            else:
                padded = np.zeros(
                    a.shape[:-2] + (MATMUL_BLOCK_ROWS, inner), dtype=a.dtype
                )
                padded[..., : row_stop - row_start, :] = a[..., row_start:row_stop, :]
                target[...] = np.matmul(padded, b_block)[
                    ..., : row_stop - row_start, :
                ]
    return out


@st.composite
def _gemm_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    rows = draw(st.integers(1, 70) | st.sampled_from([255, 256, 257, 300, 600]))
    inner = draw(st.integers(1, 40) | st.sampled_from([64, 128, 300]))
    cols = draw(
        st.integers(1, 40)
        | st.integers(1, MATMUL_BLOCK_COLS)
        | st.sampled_from([MATMUL_BLOCK_COLS, MATMUL_BLOCK_COLS + 1, 300])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "transposed", "sliced"]))
    if layout == "contiguous":
        a = rng.normal(size=lead + (rows, inner)).astype(dtype)
    elif layout == "transposed":
        a = np.swapaxes(rng.normal(size=lead + (inner, rows)).astype(dtype), -1, -2)
    else:
        a = rng.normal(size=lead + (2 * rows, inner + 3)).astype(dtype)[..., ::2, 1:-2]
    b = rng.normal(size=(inner, cols)).astype(dtype)
    return a, b, rng


class TestCanonicalEnvelope:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_gemm_cases(), out_kind=st.sampled_from(["none", "contiguous", "strided"]))
    def test_row_panel_equals_per_matrix_oracle(self, case, out_kind):
        a, b, _ = case
        shape = a.shape[:-1] + (b.shape[-1],)
        if out_kind == "none":
            out = None
        elif out_kind == "contiguous":
            out = np.empty(shape, dtype=a.dtype)
        else:
            out = np.empty(shape[:-1] + (2 * shape[-1],), dtype=a.dtype)[..., ::2]
        result = _matmul_canonical(a, b, out)
        assert out is None or result is out
        # Matrices of >= 256 strided rows are the one place the oracle is fed
        # a copy: the old kernel handed their full blocks to BLAS as strided
        # views (TransA / numpy's non-BLAS loop) but padded their tail through
        # a contiguous copy, so it disagreed with itself; the panel kernel
        # always takes the contiguous route.
        reference = a if a.shape[-2] < MATMUL_BLOCK_ROWS else np.ascontiguousarray(a)
        expected = _parent_matmul_canonical(reference, b)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected), (
            f"{a.dtype} a{a.shape} strides{a.strides} @ b{b.shape} out={out_kind}: "
            f"{np.count_nonzero(result != expected)} elements differ — {_blas_build()}"
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_gemm_cases(), data=st.data())
    def test_any_row_or_batch_split_reproduces_unsplit_bits(self, case, data):
        a, b, rng = case
        full = _matmul_canonical(a, b, None)
        rows = a.shape[-2]
        keep = data.draw(st.integers(1, rows), label="rows kept")
        idx = np.sort(rng.choice(rows, size=keep, replace=False))
        part = _matmul_canonical(a[..., idx, :], b, None)
        assert np.array_equal(part, full[..., idx, :]), (
            f"{a.dtype} a{a.shape} @ b{b.shape}: {keep} of {rows} node rows "
            f"computed alone differ from the unsplit product — {_blas_build()}"
        )
        if a.ndim > 2 and a.shape[0] > 1:
            cut = data.draw(st.integers(1, a.shape[0] - 1), label="batch cut")
            halves = np.concatenate(
                [_matmul_canonical(a[:cut], b, None), _matmul_canonical(a[cut:], b, None)]
            )
            assert np.array_equal(halves, full), (
                f"{a.dtype} a{a.shape} @ b{b.shape}: batch split at {cut} "
                f"differs from the unsplit product — {_blas_build()}"
            )


# ---------------------------------------------------------------------- #
# Batched right operand (the dense spatial mix): whole-operand contract
# ---------------------------------------------------------------------- #
# ``(N, N) @ (B, T, N, C)`` is plain BLAS in both grad modes.  Its callers
# never row-slice ``a`` (``PartitionContext._dense_mix`` multiplies the whole
# gathered operand), so the bits a served forecast depends on are those of one
# leading matrix of ``b``: they must not move with how many other matrices
# share the call.
# layout -> (base matrix shape for an (inner, cols) operand, view of the base)
_B_LAYOUTS = {
    "contiguous": (lambda inner, cols: (inner, cols), lambda base: base),
    "sliced": (lambda inner, cols: (2 * inner, cols + 3), lambda base: base[..., ::2, 1:-2]),
    "transposed": (lambda inner, cols: (cols, inner), lambda base: np.swapaxes(base, -1, -2)),
}


@st.composite
def _batched_rhs_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rows = draw(st.integers(1, 70) | st.sampled_from([255, 256, 257, 600]))
    inner = draw(st.integers(1, 40) | st.sampled_from([64, 70]))
    cols = draw(st.integers(1, 40) | st.sampled_from([64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(sorted(_B_LAYOUTS)))
    base_shape, view = _B_LAYOUTS[layout]
    base = rng.normal(size=lead + base_shape(inner, cols)).astype(dtype)
    a_lead = lead if draw(st.booleans()) else ()
    a = rng.normal(size=a_lead + (rows, inner)).astype(dtype)
    return a, base, view, layout, rng


class TestBatchedRhsWholeOperand:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_batched_rhs_cases(), data=st.data())
    def test_leading_axis_split_or_subset_reproduces_unsplit_bits(self, case, data):
        a, base, view, layout, rng = case
        b = view(base)
        with no_grad():
            full = _matmul_execute(a, b)
        assert full.shape == b.shape[:-2] + (a.shape[-2], b.shape[-1])
        # One code path: recording gradients must not change the product.
        assert np.array_equal(_matmul_execute(a, b), full), (
            f"{a.dtype} a{a.shape} @ b{b.shape} ({layout}): no_grad and grad-mode "
            f"products differ — {_blas_build()}"
        )
        batch = b.shape[0]
        keep = data.draw(st.integers(1, batch), label="matrices kept")
        idx = np.sort(rng.choice(batch, size=keep, replace=False))
        batched_a = a.ndim > 2
        with no_grad():
            # The subset goes through the same layout as the full operand: a
            # served window sees the ops (hence strides) the batch sees.
            part = _matmul_execute(a[idx] if batched_a else a, view(base[idx]))
        assert np.array_equal(part, full[idx]), (
            f"{a.dtype} a{a.shape} @ b{b.shape} ({layout}): {keep} of {batch} leading "
            f"matrices computed alone differ from the unsplit product — {_blas_build()}"
        )
        if batch > 1:
            cut = data.draw(st.integers(1, batch - 1), label="batch cut")
            with no_grad():
                halves = np.concatenate([
                    _matmul_execute(a[:cut] if batched_a else a, b[:cut]),
                    _matmul_execute(a[cut:] if batched_a else a, b[cut:]),
                ])
            assert np.array_equal(halves, full), (
                f"{a.dtype} a{a.shape} @ b{b.shape} ({layout}): batch split at {cut} "
                f"differs from the unsplit product — {_blas_build()}"
            )


class TestRectangularSpmmMulti:
    def _stacked(self, rng, count, n):
        supports = [sp.random_array((n, n), density=0.3, rng=rng).tocsr()
                    for _ in range(count)]
        return supports, sp.vstack(supports, format="csr")

    def test_rows_matches_square_row_slice(self):
        rng = np.random.default_rng(4)
        supports, stacked = self._stacked(rng, count=2, n=20)
        x = Tensor(rng.normal(size=(3, 20, 5)))
        full = spmm_multi(stacked, x, 2).data
        rows = [4, 9, 13]
        blocks = sp.vstack(
            [sp.csr_array(member[rows]) for member in supports], format="csr"
        )
        part = spmm_multi(blocks, x, 2, rows=len(rows)).data
        assert part.shape == (3, len(rows), 10)
        assert np.array_equal(part, full[:, rows, :])

    def test_shape_validation(self):
        rng = np.random.default_rng(5)
        _, stacked = self._stacked(rng, count=2, n=6)
        x = Tensor(rng.normal(size=(6, 2)))
        with pytest.raises(ValueError):
            spmm_multi(stacked, x, 2, rows=5)


class TestThreadedSpmm:
    def test_threaded_bit_identical(self):
        rng = np.random.default_rng(6)
        matrix = sp.random_array((500, 500), density=0.05, rng=rng).tocsr()
        x = Tensor(rng.normal(size=(2, 500, 4)))
        baseline = spmm(matrix, x).data
        previous = get_spmm_threads()
        try:
            set_spmm_threads(4, min_nnz=1)
            threaded = spmm(matrix, x).data
            stacked = sp.vstack([matrix, matrix], format="csr")
            multi = spmm_multi(stacked, x, 2).data
        finally:
            set_spmm_threads(previous, min_nnz=200_000)
        assert np.array_equal(threaded, baseline)
        assert np.array_equal(multi[..., :4], baseline)
        assert np.array_equal(multi[..., 4:], baseline)

    def test_knob_roundtrip(self):
        previous = get_spmm_threads()
        try:
            returned = set_spmm_threads(2, min_nnz=123)
            assert returned == previous
            assert get_spmm_threads() == 2
            with pytest.raises(ValueError):
                set_spmm_threads(0)
        finally:
            set_spmm_threads(previous, min_nnz=200_000)


class TestActivationTracking:
    def test_peak_counts_owning_buffers_once(self):
        with track_activations() as stats:
            a = Tensor(np.zeros((100, 10)))
            view = a[:50]  # non-owning view: not counted again
            b = a + 1.0
            del view, b
        assert stats.peak_bytes >= 2 * 100 * 10 * 8
        assert stats.peak_bytes < 4 * 100 * 10 * 8

    def test_row_panel_matmul_allocates_no_padded_temporary(self):
        """``(B, T, N, C) @ (C, C')`` with N < 256 under ``no_grad``: the only
        big buffer is the output; the ``(B, T, 256, C')`` temporary of the
        per-matrix kernel must not come back."""
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(8, 11, 20, 16)))
        weight = Tensor(rng.normal(size=(16, 32)))
        itemsize = a.data.itemsize
        tail_scratch = MATMUL_BLOCK_ROWS * (16 + 32) * itemsize  # padded in + its product
        tracemalloc.start()
        try:
            with no_grad(), track_activations() as stats:
                baseline, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = a @ weight
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.base is None and stats.peak_bytes == out.data.nbytes
        slack = 16 * 1024  # interpreter objects, views
        assert peak - baseline <= out.data.nbytes + tail_scratch + slack

    def test_dense_mix_matmul_allocates_no_padded_temporary(self):
        """``(N, N) @ (B, T, N, C)`` with N < 256 under ``no_grad`` into a given
        ``out``: no ``(B, T, 256, C)`` product and no zero-filled 256-row copy
        of the left operand — nothing as large as the output is allocated."""
        rng = np.random.default_rng(8)
        support = rng.normal(size=(24, 24))
        x = rng.normal(size=(16, 12, 24, 32))
        out = np.empty_like(x)
        tracemalloc.start()
        try:
            with no_grad():
                baseline, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                result = _matmul_execute(support, x, out=out)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is out
        assert np.allclose(out, np.einsum("nm,btmc->btnc", support, x))
        assert peak - baseline < out.nbytes
