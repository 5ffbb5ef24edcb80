"""Similarity graphs, TopK selection, and phase-slot assignment."""

import numpy as np
import pytest

from pgad.graph import build_adjacencies, cosine_similarity, slot_ids_for_windows, topk_adjacency
from pgad.model import Model

from helpers import tiny_model_config, topk_adjacency_loop


class TestCosineSimilarity:
    def test_identical_rows_all_ones(self):
        m = np.tile([1.0, 2.0, 3.0], (4, 1))
        np.testing.assert_allclose(cosine_similarity(m), 1.0, atol=1e-12)

    def test_basis_rows_identity(self):
        np.testing.assert_allclose(cosine_similarity(np.eye(3)), np.eye(3), atol=1e-12)

    def test_hand_computed_pair(self):
        sim = cosine_similarity(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_row_names_the_node(self):
        m = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="1"):
            cosine_similarity(m)

    def test_symmetry_diagonal_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(2, 6))))
            sim = cosine_similarity(m)
            np.testing.assert_array_equal(sim, sim.T)
            np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-12)
            assert sim.min() >= -1.0 and sim.max() <= 1.0


class TestTopkAdjacency:
    def test_argmax_per_column_fixture(self):
        sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        adj = topk_adjacency(sim, 1)
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0
        expected[0, 1] = 1.0
        expected[1, 2] = 1.0
        np.testing.assert_array_equal(adj, expected)

    def test_ties_break_toward_lower_index(self):
        adj = topk_adjacency(np.ones((4, 4)), 2)
        for i in range(4):
            chosen = np.flatnonzero(adj[:, i])
            expected = [j for j in range(4) if j != i][:2]
            assert chosen.tolist() == expected

    def test_full_budget_is_complete_minus_self(self):
        rng = np.random.default_rng(1)
        sim = cosine_similarity(rng.normal(size=(5, 3)))
        adj = topk_adjacency(sim, 4)
        np.testing.assert_array_equal(adj, 1.0 - np.eye(5))

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_out_of_range_budget_rejected(self, k):
        sim = np.eye(5)
        with pytest.raises(ValueError):
            topk_adjacency(sim, k)

    def test_structure_properties_random_embeddings(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(2, 6))
            m = rng.normal(size=(n, d))
            sim = cosine_similarity(m)
            k = int(rng.integers(1, n))
            adj = topk_adjacency(sim, k)
            assert ((adj == 0) | (adj == 1)).all()
            np.testing.assert_array_equal(adj.sum(axis=0), np.full(n, float(k)))
            np.testing.assert_array_equal(np.diag(adj), np.zeros(n))
            if k + 1 <= n - 1:
                bigger = topk_adjacency(sim, k + 1)
                assert np.all(bigger >= adj)
            scale = rng.uniform(0.1, 10.0, n)
            scaled_sim = cosine_similarity(m * scale[:, None])
            np.testing.assert_allclose(scaled_sim, sim, atol=1e-9)
            np.testing.assert_array_equal(topk_adjacency(scaled_sim, k), adj)

    def test_one_sort_matches_per_column_loop(self):
        """Every k from 1 to N - 1 picks the loop's edges, N up to 60, on
        asymmetric matrices with ties, signed zeros and NaN entries."""
        rng = np.random.default_rng(7)
        for n in range(2, 61):
            sim = np.round(rng.uniform(-1.0, 1.0, (n, n)), 1)
            sim[rng.random((n, n)) < 0.05] = np.nan
            for k in range(1, n):
                np.testing.assert_array_equal(topk_adjacency(sim, k),
                                              topk_adjacency_loop(sim, k))


class TestSlotGraphs:
    def test_identical_embeddings_identical_graphs(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 4))
        graphs = build_adjacencies({"emb_0": m.copy(), "emb_1": m.copy()}, 2, 2)
        np.testing.assert_array_equal(graphs[0], graphs[1])

    def test_counts_per_slot(self):
        config = tiny_model_config(n_sensors=10, embed_dim=4, slots=3)
        params = Model(config).init_params(np.random.default_rng(4))
        graphs = build_adjacencies(params, 3, 3)
        assert len(graphs) == 3
        for g in graphs:
            np.testing.assert_array_equal(g.sum(axis=0), np.full(10, 3.0))

    def test_init_has_no_zero_rows_and_respects_bound(self):
        config = tiny_model_config(n_sensors=7, embed_dim=9, slots=2)
        params = Model(config).init_params(np.random.default_rng(5))
        embeddings = [params[name] for name in params if name.startswith("emb_")]
        assert len(embeddings) == 2
        for m in embeddings:
            assert m.shape == (7, 9)
            assert np.linalg.norm(m, axis=1).min() > 0.0
            assert np.abs(m).max() <= 1.0 / 3.0


class TestAssignSlot:
    @pytest.mark.parametrize("start,expected", [(0, 0), (6, 1), (23, 3)])
    def test_phase_bin_fixture(self, start, expected):
        assert slot_ids_for_windows(np.array([start]), 24, 4)[0] == expected

    def test_single_slot_always_zero(self):
        np.testing.assert_array_equal(slot_ids_for_windows(np.arange(50), 24, 1), 0)

    def test_wraps_at_period(self):
        assert slot_ids_for_windows(np.array([24]), 24, 4)[0] == 0

    def test_periodicity_property(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = int(rng.integers(1, 100))
            g = int(rng.integers(1, 12))
            t = int(rng.integers(0, 10_000))
            s, later = slot_ids_for_windows(np.array([t, t + p]), p, g)
            assert 0 <= s < g
            assert s == later

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            slot_ids_for_windows(np.array([0]), 0, 4)
        with pytest.raises(ValueError):
            slot_ids_for_windows(np.array([0]), 24, 0)
