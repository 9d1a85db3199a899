"""Tests for the first-class CSR-backed Graph and its delta application."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.exceptions import GraphError
from repro.graph import Graph, GraphDelta, SensorNetwork
from repro.graph import sparse as gs
from repro.tensor import default_dtype


@pytest.fixture(autouse=True)
def fresh_cache():
    gs.clear_support_cache()
    yield
    gs.clear_support_cache()


@pytest.fixture
def dense_adjacency(rng):
    adjacency = np.where(rng.random((15, 15)) < 0.3, rng.random((15, 15)), 0.0)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


@pytest.fixture
def graph(dense_adjacency):
    return Graph(dense_adjacency, name="test")


def _networkx_hops(network: SensorNetwork) -> np.ndarray:
    """All-pairs unweighted hop counts from networkx's BFS (``inf`` when unreachable)."""
    nx = pytest.importorskip("networkx")
    hops = np.full((network.num_nodes, network.num_nodes), np.inf)
    for source, lengths in nx.all_pairs_shortest_path_length(network.to_networkx()):
        for target, length in lengths.items():
            hops[source, target] = length
    return hops


class TestConstruction:
    def test_roundtrip_dense(self, dense_adjacency, graph):
        np.testing.assert_array_equal(graph.to_dense(), dense_adjacency)
        assert graph.adjacency is graph.to_dense()  # cached

    def test_accepts_sparse_input(self, dense_adjacency):
        graph = Graph(sp.csr_array(dense_adjacency))
        np.testing.assert_array_equal(graph.to_dense(), dense_adjacency)

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            Graph(np.zeros((3, 4)))

    def test_rejects_negative_weights(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = -1.0
        with pytest.raises(GraphError):
            Graph(adjacency)

    def test_edges_match_dense_nonzero_order(self, dense_adjacency, graph):
        rows, cols, weights = graph.edges()
        ref_rows, ref_cols = np.nonzero(dense_adjacency)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)
        np.testing.assert_array_equal(weights, dense_adjacency[ref_rows, ref_cols])

    def test_row_matches_dense_row(self, dense_adjacency, graph):
        for node in (0, 7, 14):
            np.testing.assert_array_equal(graph.row(node), dense_adjacency[node])

    def test_edge_lookup(self, graph):
        rows, cols, _ = graph.edges()
        positions = graph.edge_lookup(rows[:5], cols[:5])
        np.testing.assert_array_equal(positions, np.arange(5))
        # A non-edge (diagonal entries are never edges) maps to -1.
        assert graph.edge_lookup(np.array([0]), np.array([0]))[0] == -1

    def test_from_sensor_network_is_cached(self, small_network):
        assert small_network.graph is small_network.graph
        np.testing.assert_array_equal(
            small_network.graph.to_dense(), small_network.adjacency
        )

    def test_hop_matrix_matches_networkx(self, small_network):
        directed = np.zeros((5, 5))
        directed[[0, 1, 2, 3], [1, 2, 3, 4]] = 1.0  # a one-way chain 0 -> 4
        directed[4, 0] = 0.5
        disconnected = np.zeros((6, 6))
        disconnected[[0, 1, 3, 4], [1, 2, 4, 5]] = 1.0
        disconnected = disconnected + disconnected.T  # two paths, no bridge
        for network in (
            small_network,
            SensorNetwork(adjacency=directed, directed=True),
            SensorNetwork(adjacency=disconnected),
        ):
            np.testing.assert_array_equal(network.graph.hop_matrix(), _networkx_hops(network))

    def test_distant_pairs_match_networkx(self, small_network):
        hops = _networkx_hops(small_network)
        expected = [(i, j) for i, j in zip(*np.nonzero(hops > 2)) if i < j]
        assert small_network.graph.distant_pairs(2) == expected
        assert small_network.distant_pairs(2) == expected


class TestSupports:
    def test_supports_cached_per_knobs(self, graph):
        first = graph.supports(2)
        assert graph.supports(2) is first
        with gs.spatial_mode("dense"):
            dense_supports = graph.supports(2)
        assert dense_supports is not first
        assert all(isinstance(s, np.ndarray) for s in dense_supports)

    def test_dtype_switch_invalidates(self, graph):
        base = graph.supports(2)
        with default_dtype("float32"):
            f32 = graph.supports(2)
            assert f32 is not base
            assert all(np.dtype(s.dtype) == np.float32 for s in f32)

    def test_conv_supports_drop_identity(self, graph):
        assert len(graph.conv_supports(2)) == len(graph.supports(2)) - 1

    def test_sparse_supports_match_dense(self, graph):
        with gs.spatial_mode("dense"):
            dense = graph.supports(2)
        with gs.spatial_mode("sparse"):
            sparse = graph.supports(2)
        for d, s in zip(dense, sparse):
            np.testing.assert_allclose(s.toarray(), d, rtol=1e-12, atol=1e-14)

    def test_transposes_align_with_supports(self, graph):
        with gs.spatial_mode("sparse"):
            supports = graph.conv_supports(2)
            transposes = graph.support_transposes(2)
        assert len(transposes) == len(supports)
        for support, transpose in zip(supports, transposes):
            np.testing.assert_allclose(
                transpose.toarray(), support.toarray().T, atol=1e-14
            )

    def test_fused_stack_matches_members(self, graph):
        with gs.spatial_mode("sparse"):
            supports = graph.conv_supports(2)
            fused = graph.fused_conv_supports(2)
        assert fused is not None and fused.count == len(supports)
        np.testing.assert_allclose(
            fused.stacked.toarray(),
            np.vstack([s.toarray() for s in supports]),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            fused.transpose.toarray(), fused.stacked.toarray().T, atol=1e-14
        )

    def test_fused_none_when_dense(self, graph):
        with gs.spatial_mode("dense"):
            assert graph.fused_conv_supports(2) is None

    def test_clear_support_cache_drops_graph_caches(self, graph):
        with gs.spatial_mode("sparse"):
            first = graph.supports(2)
            gs.clear_support_cache()
            assert graph.supports(2) is not first

    def test_retired_augmented_graphs_are_collectable(self, graph):
        # The graph is the only owner of its derived state: once an
        # augmented graph is dropped, nothing keeps its supports alive.
        import gc
        import weakref

        refs = []
        with gs.spatial_mode("sparse"):
            for seed in range(10):
                keep = np.random.default_rng(seed).random(graph.nnz) < 0.7
                augmented = graph.apply_delta(GraphDelta(edge_keep=keep))
                fused = augmented.fused_conv_supports(2)
                transposes = augmented.support_transposes(2)
                assert fused is not None and all(t is not None for t in transposes)
                members = augmented.supports(2) + transposes
                refs.extend(weakref.ref(m) for m in members)
                refs.extend([weakref.ref(fused.stacked), weakref.ref(fused.transpose)])
                del augmented, fused, transposes, members
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestSupportEntry:
    """One entry per knob key holds supports, transposes and the fused stack."""

    def test_transposes_memoised_per_graph(self, dense_adjacency, graph):
        with gs.spatial_mode("sparse"):
            first = graph.support_transposes(2)
            assert graph.support_transposes(2) is first
            twin = Graph(dense_adjacency.copy()).support_transposes(2)
        assert twin is not first
        for a, b in zip(first, twin):
            np.testing.assert_array_equal(a.toarray(), b.toarray())

    def test_fused_stack_memoised_per_graph(self, dense_adjacency, graph):
        with gs.spatial_mode("sparse"):
            first = graph.fused_conv_supports(2)
            assert graph.fused_conv_supports(2) is first
            twin = Graph(dense_adjacency.copy()).fused_conv_supports(2)
        assert twin is not first
        np.testing.assert_array_equal(first.stacked.toarray(), twin.stacked.toarray())

    def test_one_build_serves_every_accessor(self, graph):
        with gs.spatial_mode("sparse"):
            graph.supports(2)
            graph.conv_supports(2)
            graph.support_transposes(2)
            graph.fused_conv_supports(2)
        stats = gs.support_cache_stats()
        assert stats["graph_support_builds"] == 1
        assert stats["graph_support_entries"] == 1

    def test_entry_bytes_cover_transposes_and_fused(self, graph):
        def nbytes(m):
            return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes

        with gs.spatial_mode("sparse"):
            supports = graph.supports(2)
            transposes = graph.support_transposes(2)
            fused = graph.fused_conv_supports(2)
        expected = sum(nbytes(m) for m in supports + transposes)
        expected += nbytes(fused.stacked) + nbytes(fused.transpose)
        assert gs.support_cache_stats()["graph_support_bytes"] == expected

    def test_key_includes_order_directed_dtype_and_mode(self, graph):
        graph.supports(2)
        graph.supports(3)
        graph.supports(2, directed=True)
        with gs.spatial_mode("dense"):
            graph.supports(2)
        with default_dtype("float32"):
            f32 = graph.supports(2)
        stats = gs.support_cache_stats()
        assert stats["graph_support_builds"] == 5
        assert stats["graph_support_entries"] == 5
        assert all(np.dtype(s.dtype) == np.float32 for s in f32)

    def test_clear_support_cache_rebuilds_transposes_and_fused(self, graph):
        with gs.spatial_mode("sparse"):
            transposes = graph.support_transposes(2)
            fused = graph.fused_conv_supports(2)
            gs.clear_support_cache()
            stats = gs.support_cache_stats()
            assert stats["graph_support_entries"] == 0
            assert stats["graph_support_bytes"] == 0
            assert graph.support_transposes(2) is not transposes
            assert graph.fused_conv_supports(2) is not fused

    def test_eviction_drops_the_whole_entry(self, graph):
        with gs.spatial_mode("sparse"):
            fused = graph.fused_conv_supports(2)
            transposes = graph.support_transposes(2)
            gs.set_graph_support_limit(1)
            try:
                assert not graph._supports
                assert gs.support_cache_stats()["graph_support_evictions"] == 1
            finally:
                gs.set_graph_support_limit(256 * 1024 * 1024)
            assert graph.fused_conv_supports(2) is not fused
            assert graph.support_transposes(2) is not transposes


class TestDigest:
    def test_digest_of_fixed_graph(self):
        # The SHA-1 of the canonical CSR (indptr, indices, data) bytes that
        # compiled-structure fingerprints carry across processes.
        adjacency = np.array(
            [[0.0, 1.5, 0.0, 0.25], [0.5, 0.0, 2.0, 0.0],
             [0.0, 0.0, 0.0, 1.0], [3.0, 0.0, 0.0, 0.0]]
        )
        graph = Graph(adjacency)
        assert graph.digest == "ba665f46983b58c63537b1e9ab23d966ba2c464a"
        assert graph.digest is graph.digest

    def test_equal_content_shares_a_digest(self, dense_adjacency, graph):
        assert Graph(dense_adjacency.copy(), name="other").digest == graph.digest
        changed = dense_adjacency.copy()
        changed[0, 1] += 0.5
        assert Graph(changed).digest != graph.digest

    def test_sparse_and_dense_inputs_share_a_digest(self, dense_adjacency, graph):
        assert Graph(sp.csr_array(dense_adjacency)).digest == graph.digest
        assert Graph(sp.coo_array(dense_adjacency)).digest == graph.digest

    def test_metadata_does_not_enter_the_digest(self, dense_adjacency, graph):
        coordinates = np.zeros((graph.num_nodes, 2))
        other = Graph(dense_adjacency, coordinates=coordinates, directed=True)
        assert other.digest == graph.digest
        assert graph.copy().digest == graph.digest

    def test_delta_changes_the_digest(self, graph):
        keep = np.ones(graph.nnz, dtype=bool)
        keep[0] = False
        assert graph.apply_delta(GraphDelta(edge_keep=keep)).digest != graph.digest

    def test_digest_survives_clear_support_cache(self, graph):
        before = graph.digest
        gs.clear_support_cache()
        assert graph.digest == before


class TestDelta:
    def _both_modes(self, graph, delta):
        with gs.spatial_mode("sparse"):
            sparse_result = graph.apply_delta(delta)
        with gs.spatial_mode("dense"):
            dense_result = graph.apply_delta(delta)
        np.testing.assert_array_equal(
            sparse_result.to_dense(), dense_result.to_dense()
        )
        return sparse_result

    def test_edge_keep(self, dense_adjacency, graph):
        keep = np.ones(graph.nnz, dtype=bool)
        keep[::3] = False
        result = self._both_modes(graph, GraphDelta(edge_keep=keep))
        rows, cols, _ = graph.edges()
        expected = dense_adjacency.copy()
        expected[rows[~keep], cols[~keep]] = 0.0
        np.testing.assert_array_equal(result.to_dense(), expected)

    def test_node_keep(self, dense_adjacency, graph):
        keep = np.ones(graph.num_nodes, dtype=bool)
        keep[[2, 9]] = False
        result = self._both_modes(graph, GraphDelta(node_keep=keep))
        expected = dense_adjacency.copy()
        expected[[2, 9], :] = 0.0
        expected[:, [2, 9]] = 0.0
        np.testing.assert_array_equal(result.to_dense(), expected)

    def test_edge_updates_combine_by_max(self, dense_adjacency, graph):
        rows, cols, weights = graph.edges()
        updates = (
            np.array([rows[0], 2, 2], dtype=np.int64),
            np.array([cols[0], 11, 11], dtype=np.int64),
            np.array([weights[0] / 2, 5.0, 3.0]),  # existing stays, max of dups wins
        )
        result = self._both_modes(graph, GraphDelta(edge_updates=updates))
        expected = dense_adjacency.copy()
        expected[2, 11] = max(expected[2, 11], 5.0)
        np.testing.assert_array_equal(result.to_dense(), expected)

    def test_identity_delta_returns_same_graph(self, graph):
        delta = GraphDelta(edge_keep=np.ones(graph.nnz, dtype=bool))
        assert graph.apply_delta(delta) is graph

    def test_counters(self, graph):
        keep = np.zeros(graph.nnz, dtype=bool)
        delta = GraphDelta(edge_keep=keep)
        with gs.spatial_mode("sparse"):
            graph.apply_delta(delta)
        with gs.spatial_mode("dense"):
            graph.apply_delta(delta)
        stats = gs.support_cache_stats()
        assert stats["delta_hits"] == 1
        assert stats["dense_fallbacks"] == 1

    def test_shape_validation(self, graph):
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(edge_keep=np.zeros(3, dtype=bool)))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(node_keep=np.zeros(3, dtype=bool)))
        bad = (np.array([99]), np.array([0]), np.array([1.0]))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(edge_updates=bad))

    def test_metadata_propagates(self, graph):
        keep = np.zeros(graph.num_nodes, dtype=bool)
        keep[:4] = True
        with gs.spatial_mode("sparse"):
            result = graph.apply_delta(GraphDelta(node_keep=keep, description="dn"))
        assert result.name == "test+dn"
        assert result.directed == graph.directed


class TestShardViews:
    def test_row_block_is_a_contiguous_csr_slice(self, graph, dense_adjacency):
        block = graph.row_block(3, 9)
        assert sp.issparse(block)
        np.testing.assert_array_equal(block.toarray(), dense_adjacency[3:9])
        with pytest.raises(GraphError):
            graph.row_block(-1, 5)
        with pytest.raises(GraphError):
            graph.row_block(5, 99)

    def test_shard_view_isolates_masked_nodes(self, graph):
        keep = np.zeros(graph.num_nodes, dtype=bool)
        keep[:7] = True
        view = graph.shard_view(keep, name="shard0")
        dense = view.to_dense()
        assert view.num_nodes == graph.num_nodes  # node set preserved
        assert not dense[7:, :].any() and not dense[:, 7:].any()
        np.testing.assert_array_equal(dense[:7, :7], graph.to_dense()[:7, :7])
        assert view.name.endswith("shard0")

    def test_shard_view_with_full_mask_is_identity(self, graph):
        assert graph.shard_view(np.ones(graph.num_nodes, dtype=bool)) is graph


class TestSupportBuildCounter:
    def test_builds_counted_once_per_knob_key(self, graph):
        before = gs.support_cache_stats()["graph_support_builds"]
        graph.supports(2)
        graph.supports(2)
        graph.conv_supports(2)
        assert gs.support_cache_stats()["graph_support_builds"] == before + 1
        graph.supports(3)  # a different order is a genuine second build
        assert gs.support_cache_stats()["graph_support_builds"] == before + 2

    def test_counter_resets_with_the_cache(self, graph):
        graph.supports(2)
        gs.clear_support_cache()
        assert gs.support_cache_stats()["graph_support_builds"] == 0
