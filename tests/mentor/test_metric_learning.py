"""Tests for the metric-learning losses and trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import GraphData
from repro.mentor import CircuitEncoder
from repro.mentor.metric_learning import (
    MetricTrainer,
    clustering_quality,
    contrastive_loss,
    multi_similarity_loss,
    n_pair_loss,
)

from ..oracles.gnn import ReferenceTrainer, multi_similarity_loss_loop


class TestContrastiveLoss:
    def test_same_pair_zero_at_coincidence(self):
        v = np.array([1.0, 2.0])
        loss, ga, gb = contrastive_loss(v, v, same=True)
        assert loss == 0.0
        np.testing.assert_allclose(ga, 0)

    def test_same_pair_pulls_together(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        loss, ga, gb = contrastive_loss(a, b, same=True)
        assert loss > 0
        # gradient step on a moves it toward b
        a2 = a - 0.1 * ga
        assert np.linalg.norm(a2 - b) < np.linalg.norm(a - b)

    def test_diff_pair_pushes_apart_inside_margin(self):
        a = np.array([0.1, 0.0])
        b = np.array([0.0, 0.1])
        loss, ga, gb = contrastive_loss(a, b, same=False, margin=1.0)
        assert loss > 0
        a2 = a - 0.1 * ga
        assert np.linalg.norm(a2 - b) > np.linalg.norm(a - b)

    def test_diff_pair_no_loss_outside_margin(self):
        a = np.array([10.0, 0.0])
        b = np.array([0.0, 10.0])
        loss, ga, gb = contrastive_loss(a, b, same=False, margin=0.5)
        assert loss == 0.0
        np.testing.assert_allclose(ga, 0)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        same = bool(seed % 2)
        loss, ga, _ = contrastive_loss(a, b, same, margin=2.0)
        eps = 1e-6
        for i in range(4):
            ap = a.copy()
            ap[i] += eps
            up, _, _ = contrastive_loss(ap, b, same, margin=2.0)
            ap[i] -= 2 * eps
            down, _, _ = contrastive_loss(ap, b, same, margin=2.0)
            numeric = (up - down) / (2 * eps)
            assert ga[i] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


class TestMultiSimilarityLoss:
    def test_separable_batch_low_loss(self):
        emb = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0], [0.01, 0.99]])
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = np.array([0, 0, 1, 1])
        loss_good, _ = multi_similarity_loss(emb, labels)
        loss_bad, _ = multi_similarity_loss(emb, np.array([0, 1, 0, 1]))
        assert loss_good < loss_bad

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(4, 3))
        labels = np.array([0, 0, 1, 1])
        loss, grad = multi_similarity_loss(emb, labels)
        eps = 1e-6
        for i in (0, 2):
            for j in (0, 1):
                emb[i, j] += eps
                up, _ = multi_similarity_loss(emb, labels)
                emb[i, j] -= 2 * eps
                down, _ = multi_similarity_loss(emb, labels)
                emb[i, j] += eps
                numeric = (up - down) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


class TestNPairLoss:
    def test_correct_ordering_low_loss(self):
        anchor = np.array([1.0, 0.0])
        positive = np.array([0.98, 0.02])
        negatives = np.array([[0.0, 1.0], [-1.0, 0.0]])
        good, *_ = n_pair_loss(anchor, positive, negatives)
        bad, *_ = n_pair_loss(anchor, negatives[0], np.array([positive, negatives[1]]))
        assert good < bad

    def test_gradient_direction(self):
        anchor = np.array([0.5, 0.5])
        positive = np.array([0.0, 1.0])
        negatives = np.array([[1.0, 0.0]])
        loss, ga, gp, gn = n_pair_loss(anchor, positive, negatives)
        anchor2 = anchor - 0.1 * ga
        loss2, *_ = n_pair_loss(anchor2, positive, negatives)
        assert loss2 < loss


class TestClusteringQuality:
    def test_perfectly_clustered(self):
        emb = np.array([[1, 0], [1, 0.01], [0, 1], [0.01, 1]], dtype=float)
        quality = clustering_quality(emb, np.array([0, 0, 1, 1]))
        assert quality["separated"]
        assert quality["intra_mean"] < quality["inter_mean"]

    def test_anti_clustered(self):
        emb = np.array([[1, 0], [0, 1], [1, 0.01], [0.01, 1]], dtype=float)
        quality = clustering_quality(emb, np.array([0, 0, 1, 1]))
        assert not quality["separated"]


class TestTrainer:
    def make_dataset(self, seed=0):
        """Two families of small graphs with distinct feature signatures."""
        rng = np.random.default_rng(seed)
        graphs, labels = [], []
        from repro.mentor.features import FEATURE_DIM

        for label in (0, 1):
            for _ in range(4):
                base = np.zeros(FEATURE_DIM)
                base[7 if label == 0 else 10] = 2.0  # add-census vs xor-census
                feats = base + rng.normal(scale=0.1, size=(3, FEATURE_DIM))
                graphs.append(GraphData(features=feats, edges=[(0, 1), (1, 2)]))
                labels.append(label)
        return graphs, labels

    def test_training_improves_separation(self):
        graphs, labels = self.make_dataset()
        encoder = CircuitEncoder(embedding_dim=8, seed=1)

        def quality():
            emb = np.vstack([encoder.model.embed_graph(g) for g in graphs])
            emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
            return clustering_quality(emb, np.array(labels))["ratio"]

        before = quality()
        MetricTrainer(encoder, lr=5e-3, seed=0).train(graphs, labels, epochs=30)
        after = quality()
        assert after < before

    def test_multi_similarity_training_runs(self):
        graphs, labels = self.make_dataset(seed=2)
        encoder = CircuitEncoder(embedding_dim=8, seed=2)
        stats = MetricTrainer(encoder, loss="multi_similarity", seed=1).train(
            graphs, labels, epochs=5
        )
        assert len(stats.losses) == 5
        assert all(np.isfinite(l) for l in stats.losses)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            MetricTrainer(CircuitEncoder(), loss="triplet-magic")


class TestVectorizedLossOracle:
    """Vectorized multi-similarity loss must match the O(n^2) reference."""

    @given(st.integers(0, 1000), st.integers(3, 10))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=n)
        loss_vec, grad_vec = multi_similarity_loss(emb, labels)
        loss_ref, grad_ref = multi_similarity_loss_loop(emb, labels)
        assert loss_vec == pytest.approx(loss_ref, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_ref, rtol=1e-12, atol=1e-12)

    def test_single_class_batch(self):
        emb = np.random.default_rng(1).normal(size=(4, 3))
        labels = np.zeros(4, dtype=int)
        loss_vec, grad_vec = multi_similarity_loss(emb, labels)
        loss_ref, grad_ref = multi_similarity_loss_loop(emb, labels)
        assert loss_vec == pytest.approx(loss_ref, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_ref, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 500), st.integers(4, 12))
    @settings(max_examples=15, deadline=None)
    def test_clustering_quality_matches_pairwise_definition(self, seed, n):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        got = clustering_quality(emb, labels)
        intra, inter = [], []
        for i in range(n):
            for j in range(i + 1, n):
                dist = float(np.linalg.norm(emb[i] - emb[j]))
                (intra if labels[i] == labels[j] else inter).append(dist)
        if intra and inter:
            assert got["intra_mean"] == pytest.approx(np.mean(intra), rel=1e-12)
            assert got["inter_mean"] == pytest.approx(np.mean(inter), rel=1e-12)


class TestCrossModeDeterminism:
    """Same seed + graphs -> identical training on the production GNN path
    and on the other path (``ReferenceTrainer``: per-graph multi-similarity,
    batched contrastive)."""

    def _train(self, monkeypatch, mode, loss, seed=3):
        monkeypatch.setenv("REPRO_GNN_EMBED_CACHE", "0")
        graphs, labels = TestTrainer().make_dataset(seed=seed)
        encoder = CircuitEncoder(embedding_dim=8, seed=seed)
        trainer_cls = MetricTrainer if mode == "1" else ReferenceTrainer
        stats = trainer_cls(encoder, loss=loss, seed=seed).train(
            graphs, labels, epochs=4
        )
        final = np.vstack([encoder.model.embed_graph(g) for g in graphs])
        return stats, final

    @pytest.mark.parametrize("loss", ["contrastive", "multi_similarity"])
    def test_identical_stats_and_embeddings(self, monkeypatch, loss):
        stats_b, emb_b = self._train(monkeypatch, "1", loss)
        stats_s, emb_s = self._train(monkeypatch, "0", loss)
        assert stats_b.losses == stats_s.losses
        np.testing.assert_array_equal(emb_b, emb_s)

    def test_repeat_run_is_deterministic(self, monkeypatch):
        stats1, emb1 = self._train(monkeypatch, "1", "multi_similarity", seed=7)
        stats2, emb2 = self._train(monkeypatch, "1", "multi_similarity", seed=7)
        assert stats1.losses == stats2.losses
        np.testing.assert_array_equal(emb1, emb2)
