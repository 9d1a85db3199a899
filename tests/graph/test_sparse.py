"""Tests for the CSR support builder, auto-densify, transposes and fused stacks."""

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


class TestDtypeRegression:
    def test_supports_follow_default_dtype(self, adjacency):
        with default_dtype("float32"):
            dense_supports = dense_ops.diffusion_supports(adjacency.astype(np.float64), 2)
            sparse_supports = gs.diffusion_supports(adjacency.astype(np.float64), 2)
        assert all(s.dtype == np.float32 for s in dense_supports)
        assert all(_dense(s).dtype == np.float32 for s in sparse_supports)


class TestTransposeCsr:
    def test_transpose_matches_dense(self, adjacency):
        transposed = gs.transpose_csr(sp.csr_array(adjacency))
        assert sp.issparse(transposed) and transposed.format == "csr"
        np.testing.assert_allclose(transposed.toarray(), adjacency.T, atol=1e-14)

    def test_builds_fresh_and_keeps_no_reference(self, adjacency):
        import gc
        import weakref

        support = sp.csr_array(adjacency)
        first = gs.transpose_csr(support)
        assert gs.transpose_csr(support) is not first
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None


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

    def test_builds_fresh_and_keeps_no_reference(self, adjacency):
        import gc
        import weakref

        members = self._members(adjacency)
        first = gs.fuse_supports(members)
        assert gs.fuse_supports(members) is not first
        refs = [weakref.ref(first.stacked), weakref.ref(first.transpose)]
        del first
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_mixed_storage_declines(self, adjacency):
        members = (sp.csr_array(adjacency), adjacency.copy())
        assert gs.fuse_supports(members) is None

    def test_single_member_declines(self, adjacency):
        assert gs.fuse_supports((sp.csr_array(adjacency),)) is None


class TestDeltaCounters:
    def test_stats_keep_the_counters_benchmarks_read(self):
        stats = gs.support_cache_stats()
        for key in ("graph_support_builds", "delta_hits", "dense_fallbacks",
                    "graph_support_evictions"):
            assert stats[key] == 0

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
