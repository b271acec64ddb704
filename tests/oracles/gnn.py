"""GNN training references: the per-graph and loop formulations.

:class:`MetricTrainer` runs one path per loss — multi-similarity epochs
through the batched engine, contrastive pair steps per graph.
:class:`ReferenceTrainer` swaps each for its twin (a per-graph loop for
multi-similarity, a two-graph batch for contrastive).  Both consume the
RNG identically and accumulate parameter gradients in the same graph
order, so same seed and graphs must give bit-identical losses and
weights.
"""

from __future__ import annotations

import numpy as np

from repro.gnn import accumulation_order, pack_graphs, release_state
from repro.mentor.metric_learning import (
    MetricTrainer,
    _normalization_grad,
    contrastive_loss,
    multi_similarity_loss,
)


def multi_similarity_loss_loop(
    embeddings: np.ndarray,
    labels: np.ndarray,
    alpha: float = 2.0,
    beta: float = 10.0,
    base: float = 0.5,
) -> tuple[float, np.ndarray]:
    """O(n^2)-Python multi-similarity loss; matches the vectorized kernel."""
    n = len(embeddings)
    sims = embeddings @ embeddings.T
    loss = 0.0
    grad_sims = np.zeros_like(sims)
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [j for j in range(n) if labels[j] != labels[i]]
        if pos:
            exp_pos = np.array([np.exp(-alpha * (sims[i, j] - base)) for j in pos])
            loss += np.log1p(exp_pos.sum()) / alpha
            coeff = -exp_pos / (1.0 + exp_pos.sum())
            for j, c in zip(pos, coeff):
                grad_sims[i, j] += c
        if neg:
            exp_neg = np.array([np.exp(beta * (sims[i, j] - base)) for j in neg])
            loss += np.log1p(exp_neg.sum()) / beta
            coeff = exp_neg / (1.0 + exp_neg.sum())
            for j, c in zip(neg, coeff):
                grad_sims[i, j] += c
    grad = (grad_sims + grad_sims.T) @ embeddings
    return float(loss), grad


class ReferenceTrainer(MetricTrainer):
    """``MetricTrainer`` with each loss on the other GNN path."""

    def _contrastive_epoch(self, graphs, labels, num_pairs) -> float:
        model = self.encoder.model
        total = 0.0
        for _ in range(num_pairs):
            i, j = self._sample_pair(labels)
            same = labels[i] == labels[j]
            model.zero_grad()
            embeddings, state = model.forward_batch(
                pack_graphs([graphs[i], graphs[j]])
            )
            loss, grad_i, grad_j = contrastive_loss(
                embeddings[0], embeddings[1], same, self.margin
            )
            if loss > 0:
                model.backward_batch(state, np.vstack([grad_i, grad_j]))
                self.optimizer.step()
            else:
                release_state(state)  # zero loss: no backward consumes it
            total += loss
        return total / num_pairs

    def _ms_epoch(self, graphs, labels, batch_size) -> float:
        model = self.encoder.model
        idx = self.rng.choice(
            len(graphs), size=min(batch_size, len(graphs)), replace=False
        )
        full = len(idx) == len(graphs)
        base = graphs if full else [graphs[i] for i in idx]
        embeddings = np.vstack([model.embed_graph(graphs[i]) for i in idx])
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normalized = embeddings / norms
        loss, grad_norm = multi_similarity_loss(normalized, labels[idx])
        grad_emb = _normalization_grad(grad_norm, normalized, norms)
        model.zero_grad()
        # Accumulate in the batch engine's slot order (stable size sort of
        # the packed list) so the rounding matches its in-place reduction.
        if full:
            rows = np.empty(len(idx), dtype=np.intp)
            rows[idx] = np.arange(len(idx))
        else:
            rows = np.arange(len(idx))
        for c in accumulation_order([g.num_nodes for g in base]):
            model.embed_graph(base[c])
            model.backward_graph(grad_emb[rows[c]])
        self.optimizer.step()
        return loss
