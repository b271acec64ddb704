"""Numpy GNN framework: GraphSAGE layers, models, optimizers.

This is the repository's PyTorch-Geometric substitute: it implements the
paper's Eq. 3 message passing with mean aggregation, hierarchical mean
pooling for graph embeddings, and hand-derived backward passes so metric
learning (paper §IV-A) can train end to end without autograd.
"""

from .batch import (
    GraphBatch,
    accumulation_order,
    embed_graph_groups,
    embedding_cache,
    pack_graphs,
    release_state,
)
from .graph import GraphData, mean_adjacency
from .layers import LayerCache, SAGELayer
from .model import GraphSAGE
from .optim import SGD, Adam

__all__ = [
    "GraphData",
    "mean_adjacency",
    "SAGELayer",
    "LayerCache",
    "GraphSAGE",
    "GraphBatch",
    "accumulation_order",
    "embed_graph_groups",
    "pack_graphs",
    "release_state",
    "embedding_cache",
    "SGD",
    "Adam",
]
