"""GraphSAGE encoder producing graph-level embeddings.

The hierarchical usage in CircuitMentor (paper §IV-A) treats each module as
a subgraph: module embeddings come from :meth:`GraphSAGE.embed_graph`, and
the design-level embedding is the mean of its module embeddings
(z_global = 1/N * sum h_i), which also covers the flattened/single-module
degenerate case.

Multi-graph embedding goes through the batched engine
(:mod:`repro.gnn.batch`) — one disjoint-union forward instead of a Python
loop, bit-exact with a loop of :meth:`GraphSAGE.embed_graph` calls — with
a per-graph, model-version-keyed embedding cache in front.
"""

from __future__ import annotations

import numpy as np

from .batch import batched_backward, batched_forward, embed_graphs_cached
from .graph import GraphData, mean_adjacency
from .layers import SAGELayer

__all__ = ["GraphSAGE"]


class GraphSAGE:
    """A stack of :class:`SAGELayer` with mean global pooling.

    Args:
        in_dim: node feature dimensionality.
        hidden_dims: output width of each successive layer; the final entry
            is the embedding dimension.
        activation: nonlinearity for all but the last layer (the last layer
            is linear so embeddings are unbounded before normalization).
        seed: RNG seed for weight init.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dims: tuple[int, ...] = (32, 32),
        activation: str = "relu",
        seed: int = 0,
    ) -> None:
        if not hidden_dims:
            raise ValueError("need at least one layer")
        rng = np.random.default_rng(seed)
        dims = [in_dim, *hidden_dims]
        self.layers = [
            SAGELayer(
                dims[i],
                dims[i + 1],
                activation=activation if i < len(hidden_dims) - 1 else "linear",
                rng=rng,
            )
            for i in range(len(hidden_dims))
        ]
        self._num_nodes: int | None = None
        self._version = 0

    @property
    def embedding_dim(self) -> int:
        return self.layers[-1].w_self.shape[1]

    @property
    def version(self) -> int:
        """Weight-state version; keys the embedding cache."""
        return self._version

    def bump_version(self) -> None:
        """Mark the weights as changed (invalidates cached embeddings).

        Called automatically by :meth:`load_state_dict` and by optimizers
        constructed with an ``on_step`` hook (as :class:`MetricTrainer`
        does).  Call it manually after mutating ``parameters`` in place.
        """
        self._version += 1

    @property
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # -- forward/backward --------------------------------------------------------

    def forward_nodes(self, graph: GraphData) -> np.ndarray:
        """Node-level embeddings for one graph."""
        adj = mean_adjacency(graph.num_nodes, graph.edges)
        h = np.asarray(graph.features, dtype=np.float64)
        for layer in self.layers:
            h = layer.forward(h, adj)
        self._num_nodes = graph.num_nodes
        return h

    def embed_graph(self, graph: GraphData) -> np.ndarray:
        """Graph-level embedding: mean-pool the node embeddings."""
        return self.forward_nodes(graph).mean(axis=0)

    def backward_graph(self, grad_embedding: np.ndarray) -> None:
        """Backprop a gradient w.r.t. the pooled graph embedding.

        Must follow the ``embed_graph`` call for the same graph (layer
        caches hold that graph's activations and are consumed here).
        """
        if self._num_nodes is None:
            raise RuntimeError("backward_graph called before embed_graph")
        grad_nodes = np.tile(grad_embedding / self._num_nodes, (self._num_nodes, 1))
        for layer in reversed(self.layers):
            grad_nodes = layer.backward(grad_nodes)

    # -- batched API -------------------------------------------------------------

    def forward_batch(self, batch):
        """Embed a :class:`~repro.gnn.batch.GraphBatch`.

        Returns ``(embeddings, state)``; hand ``state`` to
        :meth:`backward_batch`.  Re-entrant: does not disturb the
        single-graph layer caches.
        """
        return batched_forward(self, batch, keep_state=True)

    def backward_batch(self, state, grad_embeddings: np.ndarray, order=None) -> None:
        """Backprop per-graph embedding gradients through ``state``.

        ``order`` optionally fixes the parameter-gradient accumulation
        order (a permutation or subset of caller graph indices); see
        :func:`~repro.gnn.batch.batched_backward`.
        """
        batched_backward(self, state, grad_embeddings, order=order)

    # -- convenience ----------------------------------------------------------------

    def embed_graphs(self, graphs: list[GraphData]) -> np.ndarray:
        """Stack graph embeddings, shape (len(graphs), embedding_dim).

        Runs the batched engine behind the versioned embedding cache;
        results are bit-exact with a loop of :meth:`embed_graph` calls.
        """
        if type(graphs) is not list:
            graphs = list(graphs)
        return embed_graphs_cached(self, graphs)

    def state_dict(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        for param, saved in zip(self.parameters, state):
            param[:] = saved
        self.bump_version()
