"""Tests for the CSR support builder, auto-densify, and the support cache."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.graph import adjacency as dense_ops
from repro.graph import sparse as gs
from repro.tensor import default_dtype


@pytest.fixture(autouse=True)
def fresh_cache():
    gs.clear_support_cache()
    yield
    gs.clear_support_cache()


@pytest.fixture
def adjacency(rng):
    matrix = np.where(rng.random((20, 20)) < 0.15, rng.random((20, 20)), 0.0)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _dense(support):
    return support.toarray() if sp.issparse(support) else np.asarray(support)


class TestSparseOps:
    @pytest.mark.parametrize(
        "name", ["add_self_loops", "row_normalize", "symmetric_normalize",
                 "forward_transition", "backward_transition"]
    )
    def test_matches_dense_counterpart(self, name, adjacency):
        sparse_fn = getattr(gs, name)
        dense_fn = getattr(dense_ops, name)
        out = sparse_fn(sp.csr_array(adjacency))
        np.testing.assert_allclose(_dense(out), dense_fn(adjacency), atol=1e-12)

    def test_dense_input_delegates(self, adjacency):
        np.testing.assert_allclose(
            _dense(gs.row_normalize(adjacency)), dense_ops.row_normalize(adjacency)
        )

    def test_rejects_non_square(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            gs.row_normalize(sp.csr_array(np.zeros((2, 3))))

    def test_row_normalize_zero_rows_stay_zero(self):
        matrix = sp.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = _dense(gs.row_normalize(matrix))
        np.testing.assert_allclose(out[1], np.zeros(2))

    def test_row_normalize_nonpositive_rows_match_dense(self):
        # Rows without positive mass are left unchanged, like the dense path.
        matrix = np.array([[0.5, -0.5], [-1.0, 0.0]])
        np.testing.assert_allclose(
            _dense(gs.row_normalize(sp.csr_array(matrix))),
            dense_ops.row_normalize(matrix),
        )

    def test_power_series_matches_dense(self, adjacency):
        transition = gs.forward_transition(sp.csr_array(adjacency))
        dense_transition = dense_ops.forward_transition(adjacency)
        sparse_powers = gs.power_series(transition, 3)
        dense_powers = dense_ops.power_series(dense_transition, 3)
        assert len(sparse_powers) == len(dense_powers) == 4
        for got, expected in zip(sparse_powers, dense_powers):
            np.testing.assert_allclose(_dense(got), expected, atol=1e-12)

    def test_power_series_first_power_is_matrix_itself(self, adjacency):
        transition = gs.forward_transition(sp.csr_array(adjacency))
        powers = gs.power_series(transition, 1)
        np.testing.assert_allclose(_dense(powers[1]), _dense(transition))

    def test_power_series_does_not_alias_input(self, adjacency):
        # Mutating the transition matrix afterwards must not corrupt the
        # stored supports (dense and sparse paths alike).
        for matrix in (dense_ops.forward_transition(adjacency),
                       gs.forward_transition(sp.csr_array(adjacency))):
            powers = gs.power_series(matrix, 2)
            expected = _dense(powers[1]).copy()
            if sp.issparse(matrix):
                matrix.data[:] = 0.0
            else:
                matrix[:] = 0.0
            np.testing.assert_allclose(_dense(powers[1]), expected)

    def test_diffusion_supports_directed_count(self, adjacency):
        supports = gs.diffusion_supports(sp.csr_array(adjacency), 2, directed=True)
        assert len(supports) == 5


class TestDensify:
    def test_auto_densifies_above_threshold(self, adjacency):
        with gs.spatial_mode("auto"):
            dense_support = gs.as_support(np.ones((4, 4)))
            sparse_support = gs.as_support(np.eye(50))
        assert isinstance(dense_support, np.ndarray)
        assert sp.issparse(sparse_support)

    def test_threshold_is_one_tenth(self):
        assert gs.get_density_threshold() == 0.1
        at_threshold = np.zeros((10, 10))
        at_threshold[0] = 1.0  # density exactly 0.1: stays CSR
        with gs.spatial_mode("auto"):
            assert sp.issparse(gs.as_support(at_threshold))
            at_threshold[1, 0] = 1.0
            assert isinstance(gs.as_support(at_threshold), np.ndarray)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            gs.set_spatial_mode("bogus")

    def test_forced_modes(self, adjacency):
        with gs.spatial_mode("dense"):
            assert isinstance(gs.as_support(np.eye(50)), np.ndarray)
        with gs.spatial_mode("sparse"):
            assert sp.issparse(gs.as_support(np.ones((4, 4))))

    def test_dense_power_series_starts_from_matrix(self, adjacency):
        # Satellite regression: the dense power series must not spend a
        # matmul on I @ P — its first power is a copy of P itself.
        transition = dense_ops.forward_transition(adjacency)
        powers = dense_ops.power_series(transition, 2)
        np.testing.assert_array_equal(powers[1], transition)
        assert powers[1] is not transition


class TestSupportCache:
    def test_same_content_hits(self, adjacency):
        first = gs.cached_diffusion_supports(adjacency, 2)
        second = gs.cached_diffusion_supports(adjacency.copy(), 2)
        assert first is second
        stats = gs.support_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_content_misses(self, adjacency):
        gs.cached_diffusion_supports(adjacency, 2)
        other = adjacency.copy()
        other[0, 1] += 0.5
        gs.cached_diffusion_supports(other, 2)
        assert gs.support_cache_stats()["misses"] == 2

    def test_key_includes_order_directed_and_dtype(self, adjacency):
        gs.cached_diffusion_supports(adjacency, 2)
        gs.cached_diffusion_supports(adjacency, 3)
        gs.cached_diffusion_supports(adjacency, 2, directed=True)
        with default_dtype("float32"):
            supports = gs.cached_diffusion_supports(adjacency, 2)
        assert gs.support_cache_stats()["misses"] == 4
        assert all(_dense(s).dtype == np.float32 for s in supports)

    def test_eviction_is_bounded(self, rng):
        for index in range(gs._CACHE_MAX_ENTRIES + 5):
            gs.cached_diffusion_supports(np.full((3, 3), float(index)), 1)
        assert gs.support_cache_stats()["entries"] == gs._CACHE_MAX_ENTRIES

    def test_eviction_is_bounded_by_bytes(self, rng, monkeypatch):
        # Random augmentations miss on every step; the byte budget must evict
        # stale support sets long before the entry cap.
        monkeypatch.setattr(gs, "_CACHE_MAX_BYTES", 64 * 64 * 8 * 4)
        for index in range(10):
            gs.cached_diffusion_supports(np.full((64, 64), float(index + 1)), 1)
        stats = gs.support_cache_stats()
        assert stats["entries"] < 10
        assert stats["bytes"] <= 64 * 64 * 8 * 4

    def test_sparse_input_content_key(self, adjacency):
        first = gs.cached_diffusion_supports(sp.csr_array(adjacency), 2)
        second = gs.cached_diffusion_supports(sp.csr_array(adjacency.copy()), 2)
        assert first is second


class TestDtypeRegression:
    def test_supports_follow_default_dtype(self, adjacency):
        with default_dtype("float32"):
            dense_supports = dense_ops.diffusion_supports(adjacency.astype(np.float64), 2)
            sparse_supports = gs.diffusion_supports(adjacency.astype(np.float64), 2)
        assert all(s.dtype == np.float32 for s in dense_supports)
        assert all(_dense(s).dtype == np.float32 for s in sparse_supports)


class TestIdentityFastPath:
    """id()-keyed digest cache: reused array objects skip the content SHA-1."""

    def test_same_object_takes_identity_path(self, adjacency):
        gs.cached_diffusion_supports(adjacency, 2)
        first = gs.cached_diffusion_supports(adjacency, 2)
        second = gs.cached_diffusion_supports(adjacency, 2)
        assert first is second
        stats = gs.support_cache_stats()
        assert stats["identity_hits"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_copy_still_hits_by_content(self, adjacency):
        first = gs.cached_diffusion_supports(adjacency, 2)
        second = gs.cached_diffusion_supports(adjacency.copy(), 2)
        assert first is second
        assert gs.support_cache_stats()["identity_hits"] == 0

    def test_identity_path_respects_order_and_dtype_knobs(self, adjacency):
        gs.cached_diffusion_supports(adjacency, 2)
        deeper = gs.cached_diffusion_supports(adjacency, 3)
        shallow = gs.cached_diffusion_supports(adjacency, 2)
        # Same object, different order: digest is reused but the support sets
        # stay distinct.
        assert len(deeper) != len(shallow) or deeper is not shallow
        with default_dtype("float32"):
            f32 = gs.cached_diffusion_supports(adjacency, 2)
        assert all(_dense(s).dtype == np.float32 for s in f32)

    def test_sparse_inputs_take_identity_path(self, adjacency):
        csr = sp.csr_array(adjacency)
        gs.cached_diffusion_supports(csr, 2)
        gs.cached_diffusion_supports(csr, 2)
        assert gs.support_cache_stats()["identity_hits"] == 1

    def test_dead_arrays_are_evicted(self, rng):
        import gc

        array = rng.random((6, 6))
        gs.cached_diffusion_supports(array, 1)
        assert gs.support_cache_stats()["identity_entries"] == 1
        del array
        gc.collect()
        assert gs.support_cache_stats()["identity_entries"] == 0

    def test_identity_entries_are_bounded(self, rng):
        keep = [rng.random((3, 3)) for _ in range(gs._IDENTITY_MAX_ENTRIES + 7)]
        for array in keep:
            gs.cached_diffusion_supports(array, 1)
        assert gs.support_cache_stats()["identity_entries"] <= gs._IDENTITY_MAX_ENTRIES

    def test_clear_support_cache_resets_identity_state(self, adjacency):
        gs.cached_diffusion_supports(adjacency, 2)
        gs.cached_diffusion_supports(adjacency, 2)
        gs.clear_support_cache()
        stats = gs.support_cache_stats()
        assert stats["identity_hits"] == 0 and stats["identity_entries"] == 0


class TestTransposeCache:
    def test_transpose_is_cached_per_object(self, adjacency):
        support = sp.csr_array(adjacency)
        first = gs.transpose_csr(support)
        assert gs.transpose_csr(support) is first
        np.testing.assert_allclose(first.toarray(), adjacency.T, atol=1e-14)
        assert gs.transpose_csr(sp.csr_array(adjacency)) is not first

    def test_cleared_with_support_cache(self, adjacency):
        support = sp.csr_array(adjacency)
        gs.transpose_csr(support)
        assert gs.support_cache_stats()["transpose_entries"] == 1
        gs.clear_support_cache()
        assert gs.support_cache_stats()["transpose_entries"] == 0


class TestFuseSupports:
    def _members(self, adjacency):
        return tuple(
            sp.csr_array(adjacency * scale) for scale in (1.0, 0.5, 0.25)
        )

    def test_fused_matches_vstack(self, adjacency):
        members = self._members(adjacency)
        fused = gs.fuse_supports(members)
        assert fused.count == 3
        np.testing.assert_allclose(
            fused.stacked.toarray(),
            np.vstack([m.toarray() for m in members]),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            fused.transpose.toarray(), fused.stacked.toarray().T, atol=1e-14
        )

    def test_memoised_by_identity(self, adjacency):
        members = self._members(adjacency)
        assert gs.fuse_supports(members) is gs.fuse_supports(members)

    def test_skip_first(self, adjacency):
        members = self._members(adjacency)
        fused = gs.fuse_supports(members, skip_first=True)
        assert fused.count == 2
        np.testing.assert_allclose(
            fused.stacked.toarray(),
            np.vstack([m.toarray() for m in members[1:]]),
            atol=1e-14,
        )

    def test_mixed_storage_declines(self, adjacency):
        members = (sp.csr_array(adjacency), adjacency.copy())
        assert gs.fuse_supports(members) is None

    def test_single_member_declines(self, adjacency):
        assert gs.fuse_supports((sp.csr_array(adjacency),)) is None


class TestDeltaCounters:
    def test_stats_expose_delta_counters(self):
        stats = gs.support_cache_stats()
        assert stats["delta_hits"] == 0 and stats["dense_fallbacks"] == 0

    def test_record_and_clear(self):
        gs._record_delta(dense_fallback=False)
        gs._record_delta(dense_fallback=False)
        gs._record_delta(dense_fallback=True)
        stats = gs.support_cache_stats()
        assert stats["delta_hits"] == 2 and stats["dense_fallbacks"] == 1
        gs.clear_support_cache()
        stats = gs.support_cache_stats()
        assert stats["delta_hits"] == 0 and stats["dense_fallbacks"] == 0
