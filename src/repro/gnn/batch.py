"""Batched GNN execution engine.

The scalar :class:`~repro.gnn.model.GraphSAGE` path embeds one graph at a
time: every ``embed_graph`` call rebuilds the mean adjacency with a Python
edge loop and issues a handful of small matmuls, and metric-learning
epochs re-run forwards just to repopulate layer caches before backward.
This module packs a list of :class:`~repro.gnn.graph.GraphData` into one
disjoint-union batch and runs forward *and* the hand-derived backward over
the whole batch:

* **Packing** (:class:`GraphBatch`) — graphs are stored size-sorted so
  that same-size graphs occupy contiguous node rows; node features are
  concatenated into one ``(total_nodes, feat_dim)`` matrix with
  node-offset bookkeeping (``offsets``/``segment_ids``), and each size
  group keeps its dense mean-adjacency blocks in one ``(G, n, n)`` stack.
  The block-diagonal adjacency is also exposed in CSR-style arrays
  (``indptr``/``indices``/``weights``) for stats and export.  Dense
  blocks are memoized per ``GraphData`` (weakref-evicted), so training
  epochs that re-batch the same graphs never rebuild adjacency.
* **Forward** — per layer, every per-graph matmul of the scalar path
  (aggregation ``adj @ H``, the weight transforms ``H @ W_self`` and
  ``AGG @ W_neigh``) becomes one *stacked* 3-D ``np.matmul`` per size
  group; activations and bias adds run batch-wide.  Readout is a stacked
  segment mean per group.  All intermediate buffers live in a
  :class:`_Workspace` drawn from a global pool keyed by (layer
  signature, batch layout) — workspaces hold no batch data, so any
  same-shaped batch reuses warm, zero-initialised buffers and the steady
  state allocates nothing per call.  Each forward returns an independent
  :class:`BatchState`, keeping the engine re-entrant.
* **Backward** — pooled-gradient scatter, stacked per-group reductions,
  and parameter-gradient accumulation in a caller-chosen graph order:
  the caller's order by default, an explicit permutation/subset via
  ``order=``, or the batch's internal slot order via ``order="slots"``
  (fastest — the per-graph gradient stacks reduce in place with no
  gather; a scalar loop matches it by iterating in
  :func:`accumulation_order`).  Layer 0's input gradient is never
  consumed, so its matmuls are skipped.

Parity contract
---------------

Batched results are *bit-exact* against the scalar path, by construction:

* adjacency blocks run the same expressions as
  :func:`~repro.gnn.graph.mean_adjacency`, only with vectorized index
  assignment (set semantics are identical, so duplicate edges collapse
  the same way);
* every matrix product is issued as a stacked 3-D ``np.matmul`` whose
  2-D slices have exactly the scalar path's operand shapes — numpy
  dispatches each slice to the same GEMM kernel, so slice ``i`` is
  bitwise ``A[i] @ B[i]`` (this holds for transposed stride views and
  for one-node graphs too, and is enforced empirically by the parity
  suite);
* segment means/sums reduce each ``(n, d)`` slice exactly like the
  scalar ``mean(axis=0)``/``sum(axis=0)`` calls, and parameter-gradient
  stacks are reduced with ``np.add.reduce`` over the graph axis, which
  sums sequentially in the chosen accumulation order — the same order
  (and therefore the same rounding) as a scalar loop's ``+=``
  accumulation over those graphs from zeroed gradients.

``tests/gnn/test_batch_parity.py`` enforces the contract with hypothesis
over random graphs and over the seven OpenCores designs.

On top of the engine sits a **model-version-keyed embedding cache**:
``GraphSAGE.embed_graphs`` memoizes pooled graph embeddings keyed by
``(model, model.version, graph)``.  ``load_state_dict`` and optimizer
steps bump the version, so stale embeddings can never be served; hit/miss
counters are exported to :mod:`repro.perf` under the ``gnn_embed`` stats
provider (they show up in the obs run report's ``caches`` section).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import perf
from .graph import GraphData
from .layers import LayerCache

__all__ = [
    "embed_cache_enabled",
    "accumulation_order",
    "GraphBatch",
    "pack_graphs",
    "BatchState",
    "batched_forward",
    "batched_backward",
    "release_state",
    "EmbeddingCache",
    "embedding_cache",
    "embed_graphs_cached",
]

_FALSY = ("0", "false", "no", "off")
_clock = time.perf_counter


def embed_cache_enabled() -> bool:
    """Whether the versioned embedding cache is active (``REPRO_GNN_EMBED_CACHE``)."""
    return os.environ.get("REPRO_GNN_EMBED_CACHE", "1").lower() not in _FALSY


# -- adjacency blocks ---------------------------------------------------------

#: id(graph) -> (num_nodes, num_edges, dense mean-adjacency block).
#: Entries are evicted by a weakref.finalize on the owning GraphData, and
#: revalidated against (num_nodes, num_edges) — mutating a graph's edge
#: list *in place* while keeping its length is not supported (build a new
#: GraphData instead, as every producer in this repo does).
_adj_blocks: dict[int, tuple[int, int, np.ndarray]] = {}
_adj_lock = threading.Lock()


def _dense_mean_block(graph: GraphData) -> np.ndarray:
    """Vectorized twin of :func:`~repro.gnn.graph.mean_adjacency`.

    Runs the same expressions with array index assignment instead of a
    Python edge loop; the result is bitwise identical (assignment of 1.0
    is idempotent under duplicates, and the normalization arithmetic is
    the same ops on the same operands).
    """
    n = graph.num_nodes
    adj = np.zeros((n, n), dtype=np.float64)
    if graph.edges:
        e = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2)
        adj[e[:, 1], e[:, 0]] = 1.0
        adj[e[:, 0], e[:, 1]] = 1.0
    isolated = adj.sum(axis=1) == 0
    adj[isolated, isolated] = 1.0
    degree = adj.sum(axis=1, keepdims=True)
    degree[degree == 0] = 1.0
    return adj / degree


def _adjacency_block(graph: GraphData) -> np.ndarray:
    key = id(graph)
    n, m = graph.num_nodes, len(graph.edges)
    with _adj_lock:
        hit = _adj_blocks.get(key)
        if hit is not None and hit[0] == n and hit[1] == m:
            perf.incr("gnn.adj_cache_hit")
            return hit[2]
    perf.incr("gnn.adj_cache_miss")
    block = _dense_mean_block(graph)
    try:
        weakref.finalize(graph, _adj_blocks.pop, key, None)
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        return block
    with _adj_lock:
        _adj_blocks[key] = (n, m, block)
    return block


def _adjacency_blocks(graphs: list[GraphData]) -> list[np.ndarray]:
    """Memoized blocks for many graphs with one lock round-trip."""
    out: list[np.ndarray | None] = [None] * len(graphs)
    missing: list[int] = []
    hits = 0
    with _adj_lock:
        for pos, graph in enumerate(graphs):
            hit = _adj_blocks.get(id(graph))
            if (
                hit is not None
                and hit[0] == graph.num_nodes
                and hit[1] == len(graph.edges)
            ):
                out[pos] = hit[2]
                hits += 1
            else:
                missing.append(pos)
    if hits:
        perf.incr("gnn.adj_cache_hit", hits)
    for pos in missing:
        out[pos] = _adjacency_block(graphs[pos])
    return out


# -- batch packing ------------------------------------------------------------


class SizeGroup:
    """A run of same-size graphs inside a :class:`GraphBatch`.

    ``blocks`` stacks the dense adjacency blocks as ``(size, n, n)`` so
    kernels can issue one 3-D matmul per group; ``orig`` maps group slots
    back to the caller's graph indices.
    """

    __slots__ = (
        "n", "size", "start", "end", "gstart", "gend", "orig",
        "blocks", "blocks_t",
    )

    def __init__(self, n, size, start, end, gstart, gend, orig, blocks) -> None:
        self.n = n          # nodes per graph
        self.size = size    # graphs in the group
        self.start = start  # first node row in the batch
        self.end = end      # one past the last node row
        self.gstart = gstart  # first graph slot (internal sorted order)
        self.gend = gend      # one past the last graph slot
        self.orig = orig    # original graph indices, shape (size,)
        self.blocks = blocks  # stacked adjacency, shape (size, n, n)
        self.blocks_t = blocks.transpose(0, 2, 1)  # view, for backward


def accumulation_order(sizes) -> np.ndarray:
    """Internal slot order for graphs of the given node counts.

    This is the one definition of the batch layout's graph order (stable
    sort by size): :class:`GraphBatch` packs with it, and a scalar loop
    that iterates graphs in this order accumulates parameter gradients
    bit-identically to ``batched_backward(..., order="slots")``.
    """
    return np.argsort(np.asarray(sizes), kind="stable")


class GraphBatch:
    """Disjoint union of graphs: one feature matrix + block-diagonal adjacency.

    Graphs are stored **size-sorted** (stable, so equal sizes keep the
    caller's relative order): same-size graphs then occupy contiguous node
    rows, and a zero-copy reshape turns each group's rows into the
    ``(G, n, d)`` stacks the kernels consume.  ``order[slot]`` is the
    caller's index of the graph stored at ``slot``; embeddings returned by
    :func:`batched_forward` are always in the caller's order.
    """

    __slots__ = (
        "graphs", "features", "offsets", "counts", "num_graphs",
        "total_nodes", "order", "inv", "groups", "_csr", "layout_key",
    )

    def __init__(self, graphs: list[GraphData]) -> None:
        self.graphs = list(graphs)
        feats = [np.asarray(g.features, dtype=np.float64) for g in self.graphs]
        dims = {f.shape[1] for f in feats}
        if len(dims) > 1:
            raise ValueError(f"inconsistent feature dims in batch: {sorted(dims)}")
        self.num_graphs = len(self.graphs)
        sizes = np.array([f.shape[0] for f in feats], dtype=np.intp)
        self.order = accumulation_order(sizes)
        self.inv = np.argsort(self.order)  # caller index -> internal slot
        self.counts = sizes[self.order]
        self.offsets = np.zeros(self.num_graphs + 1, dtype=np.intp)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.total_nodes = int(self.offsets[-1])
        feat_dim = dims.pop() if dims else 0
        self.features = (
            np.concatenate([feats[i] for i in self.order], axis=0)
            if feats
            else np.empty((0, feat_dim), dtype=np.float64)
        )
        blocks = _adjacency_blocks(self.graphs)
        self.groups: list[SizeGroup] = []
        bounds = np.flatnonzero(np.diff(self.counts)) + 1
        for a, b in zip(
            np.concatenate(([0], bounds)),
            np.concatenate((bounds, [self.num_graphs])),
        ):
            if a == b:
                continue
            orig = self.order[a:b]
            self.groups.append(
                SizeGroup(
                    n=int(self.counts[a]),
                    size=int(b - a),
                    start=int(self.offsets[a]),
                    end=int(self.offsets[b]),
                    gstart=int(a),
                    gend=int(b),
                    orig=orig,
                    blocks=np.stack([blocks[i] for i in orig]),
                )
            )
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Buffer layout is fully determined by the sorted node counts (plus
        # the model's layer shapes); batches over different graphs — or the
        # same graphs in a different order — share pooled workspaces when
        # their layouts match.
        self.layout_key = tuple(map(int, self.counts))

    @property
    def segment_ids(self) -> np.ndarray:
        """Caller's graph index of each node row (internal layout)."""
        return np.repeat(self.order, self.counts)

    def iter_blocks(self):
        """Yield ``(caller_graph_index, start, end, dense_adjacency_block)``
        in the batch's internal (size-sorted) storage order."""
        for group in self.groups:
            for pos in range(group.size):
                start = group.start + pos * group.n
                yield int(group.orig[pos]), start, start + group.n, group.blocks[pos]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block-diagonal adjacency as ``(indptr, indices, weights)``.

        Rows follow the internal (size-sorted) node layout, matching
        ``iter_blocks``.  Built lazily: the compute kernels consume the
        dense stacks (which preserve bit-parity with the scalar dense
        matmuls), while the CSR view is the compact canonical form for
        stats and export.
        """
        if self._csr is None:
            indices, weights = [], []
            row_counts = np.zeros(self.total_nodes, dtype=np.intp)
            for _, start, _end, block in self.iter_blocks():
                rows, cols = np.nonzero(block)
                indices.append(cols + start)
                weights.append(block[rows, cols])
                row_counts[start:start + block.shape[0]] = np.bincount(
                    rows, minlength=block.shape[0]
                )
            indptr = np.zeros(self.total_nodes + 1, dtype=np.intp)
            np.cumsum(row_counts, out=indptr[1:])
            self._csr = (
                indptr,
                np.concatenate(indices) if indices else np.empty(0, dtype=np.intp),
                np.concatenate(weights) if weights else np.empty(0),
            )
        return self._csr

    @property
    def nnz(self) -> int:
        return int(self.csr[0][-1])


#: Memoized batches for recurring graph lists, keyed by the identity of
#: every graph in order.  Entries hold strong references to their graphs
#: (via ``GraphBatch.graphs``), so a key's ids cannot be recycled while
#: its entry is alive; the per-graph (num_nodes, num_edges) signature
#: additionally guards against in-place edge mutation, like ``_adj_blocks``.
_batch_memo: OrderedDict[tuple, tuple[tuple, GraphBatch]] = OrderedDict()
_batch_memo_lock = threading.Lock()
# Sized for contrastive training, which cycles through O(pairs^2) distinct
# two-graph lists per corpus — far more keys than the handful of full-corpus
# lists the other callers produce.
_BATCH_MEMO_CAPACITY = 256


def pack_graphs(graphs: list[GraphData]) -> GraphBatch:
    """A (memoized) :class:`GraphBatch` for ``graphs``.

    Training epochs and repeated ``embed_graphs`` calls re-batch the same
    graph lists; the memo makes re-packing a dictionary hit, and with it
    the batch's adjacency stacks are reused too.
    """
    # Identity and shape fused into one key: a graph mutated in place gets
    # a different key and simply misses (the stale entry ages out via LRU).
    key = tuple((id(g), g.num_nodes, len(g.edges)) for g in graphs)
    with _batch_memo_lock:
        hit = _batch_memo.get(key)
        if hit is not None:
            _batch_memo.move_to_end(key)
            perf.incr("gnn.batch_memo_hit")
            return hit
    perf.incr("gnn.batch_memo_miss")
    batch = GraphBatch(graphs)
    with _batch_memo_lock:
        _batch_memo[key] = batch
        while len(_batch_memo) > _BATCH_MEMO_CAPACITY:
            _batch_memo.popitem(last=False)
    return batch


class _LayerWS:
    """Per-layer buffers and prebuilt group views of one :class:`_Workspace`.

    ``h_in`` aliases the previous layer's ``out`` (activations chain
    through shared buffers); ``pw_self``/``pw_neigh``/``pbias`` stack the
    per-graph parameter-gradient contributions in internal slot order so
    the caller-order reduction is a fancy-index away.
    """

    __slots__ = (
        "act", "h_in", "agg", "pre", "xn", "out",
        "gout", "gp", "ga", "pw_self", "pw_neigh", "pbias",
        "gb", "pw_scratch", "pb_scratch", "gw_scratch", "gb_scratch",
        "fviews", "bviews",
    )


class _Workspace:
    """Preallocated arrays + prebuilt views for one ``(model-shape, layout)``.

    Building the slice/reshape views once (instead of per call) is what
    lets :func:`batched_forward`/:func:`batched_backward` run as a flat
    sequence of ``out=`` kernels with no per-call allocation.  Workspaces
    reference *no* batch data — packed features are copied into ``h0`` at
    each forward and adjacency stacks come from the batch's groups at call
    time — so one workspace serves every batch with the same node-count
    layout (training epochs re-batch shuffled permutations of the same
    graphs endlessly).  Buffers are zero-initialized: matmul timings must
    not depend on leftover bit patterns (denormals in uninitialized pages
    are dramatically slower).
    """

    __slots__ = ("h0", "layers", "gin", "emb_int", "emb_views", "rep")

    def __init__(self, batch: GraphBatch, key: tuple) -> None:
        total, ng = batch.total_nodes, batch.num_graphs
        # Layer 0's input: a per-forward copy of the packed features —
        # same values, same layout, so the GEMMs it feeds are bit-identical.
        h = np.zeros((total, key[0][0])) if key else batch.features
        self.h0 = h if key else None
        self.layers: list[_LayerWS] = []
        # Gradient w.r.t. the input of the layer being processed; for
        # layer 0 this is d(loss)/d(features), computed then discarded.
        gprev = np.zeros((total, key[0][0])) if key else None
        self.gin = gprev
        for in_dim, out_dim, act in key:
            L = _LayerWS()
            L.act = act
            L.h_in = h
            L.agg = np.zeros((total, in_dim))
            L.pre = np.zeros((total, out_dim))
            L.xn = np.zeros((total, out_dim))    # agg @ w_neigh partial
            # identity activation writes nothing: out aliases pre
            L.out = L.pre if act == "linear" else np.zeros((total, out_dim))
            L.gout = np.zeros((total, out_dim))
            L.gp = L.gout if act == "linear" else np.zeros((total, out_dim))
            L.ga = np.zeros((total, in_dim))     # grad_agg, then grad_h
            L.pw_self = np.zeros((ng, in_dim, out_dim))
            L.pw_neigh = np.zeros((ng, in_dim, out_dim))
            L.pbias = np.zeros((ng, out_dim))
            # Scratch for allocation-free reduction: caller-order ``take``
            # target, reduce targets, and the relu-mask buffer.
            L.gb = np.zeros((total, out_dim))
            L.pw_scratch = np.zeros((ng, in_dim, out_dim))
            L.pb_scratch = np.zeros((ng, out_dim))
            L.gw_scratch = np.zeros((in_dim, out_dim))
            L.gb_scratch = np.zeros(out_dim)
            L.fviews = []
            L.bviews = []
            for grp in batch.groups:
                s, e, g, n = grp.start, grp.end, grp.size, grp.n
                a, b = grp.gstart, grp.gend
                hv = h[s:e].reshape(g, n, in_dim)
                aggv = L.agg[s:e].reshape(g, n, in_dim)
                gpv = L.gp[s:e].reshape(g, n, out_dim)
                L.fviews.append((
                    hv,
                    aggv,
                    L.pre[s:e].reshape(g, n, out_dim),   # x_self target
                    L.xn[s:e].reshape(g, n, out_dim),
                ))
                L.bviews.append((
                    hv.transpose(0, 2, 1),
                    aggv.transpose(0, 2, 1),
                    gpv,
                    L.ga[s:e].reshape(g, n, in_dim),
                    gprev[s:e].reshape(g, n, in_dim),
                    L.pw_self[a:b],
                    L.pw_neigh[a:b],
                    L.pbias[a:b],
                ))
            self.layers.append(L)
            h = L.out
            gprev = L.gout
        emb_dim = key[-1][1] if key else 0
        # Graph embeddings in *internal* slot order; ``emb_int[batch.inv]``
        # is the fresh caller-order copy handed back to the caller.
        self.emb_int = np.zeros((ng, emb_dim))
        self.emb_views = [
            (h[grp.start:grp.end].reshape(grp.size, grp.n, emb_dim),
             self.emb_int[grp.gstart:grp.gend],
             grp.n)
            for grp in batch.groups
        ]
        # Internal graph slot of every node row, for the pooled-gradient
        # scatter (layout-determined, like everything else here).
        self.rep = np.repeat(np.arange(ng), batch.counts)


#: Pooled workspaces keyed by ``(model layer signature, batch layout)``.
#: An in-flight workspace is owned exclusively by its caller (it is *out*
#: of the pool), so concurrent batched calls and two retained
#: :class:`BatchState` objects never share buffers; LRU-bounded so odd
#: one-off layouts age out.
_ws_pool: OrderedDict[tuple, list[_Workspace]] = OrderedDict()
_ws_pool_lock = threading.Lock()
_WS_POOL_CAPACITY = 96  # total pooled workspaces across all layouts


def _ws_acquire(batch: GraphBatch, model) -> tuple[tuple, _Workspace]:
    """Check a forward/backward workspace out of the pool (or build one)."""
    key = tuple(
        (l.w_self.shape[0], l.w_self.shape[1], l.activation)
        for l in model.layers
    )
    ck = (key, batch.layout_key)
    with _ws_pool_lock:
        stack = _ws_pool.get(ck)
        if stack:
            ws = stack.pop()
            if stack:
                _ws_pool.move_to_end(ck)
            else:
                del _ws_pool[ck]
            return ck, ws
    return ck, _Workspace(batch, key)


def _ws_release(ck: tuple, ws: _Workspace) -> None:
    if ws.h0 is None:  # degenerate zero-layer model: not reusable
        return
    with _ws_pool_lock:
        _ws_pool.setdefault(ck, []).append(ws)
        _ws_pool.move_to_end(ck)
        total = sum(len(stack) for stack in _ws_pool.values())
        while total > _WS_POOL_CAPACITY:
            oldest = next(iter(_ws_pool))
            stack = _ws_pool[oldest]
            stack.pop()
            if not stack:
                del _ws_pool[oldest]
            total -= 1


@dataclass
class BatchState:
    """Per-call forward state: what ``batched_backward`` needs.

    Owning the activations here (instead of on the layers) is what makes
    the layers re-entrant: two in-flight batches never clobber each other.
    The state exclusively owns a workspace until its backward consumes it
    (a second backward on the same state raises ``RuntimeError``, like
    the scalar layers' consumed-cache discipline).
    """

    batch: GraphBatch
    caches: list[LayerCache]
    ws: "_Workspace | None" = None
    ws_key: tuple | None = None


# -- kernels ------------------------------------------------------------------


def batched_forward(
    model, batch: GraphBatch, keep_state: bool = True
) -> tuple[np.ndarray, BatchState | None]:
    """Embed every graph in ``batch``; returns ``(embeddings, state)``.

    ``embeddings`` has shape ``(num_graphs, embedding_dim)`` in the
    caller's graph order and is bit-exact with per-graph
    ``model.embed_graph`` calls.  With ``keep_state`` the returned
    :class:`BatchState` feeds :func:`batched_backward`; pass ``False``
    for inference so the workspace returns to the pool immediately.
    """
    perf.incr("gnn.batch_forward")
    perf.incr("gnn.batch_graphs", batch.num_graphs)
    start = _clock()  # direct timing: contextmanager overhead is visible here
    try:
        ck, ws = _ws_acquire(batch, model)
        if ws.h0 is not None:
            # Same values, same layout as the packed features, so the
            # GEMMs below are bit-identical to consuming them directly.
            np.copyto(ws.h0, batch.features)
        mm = np.matmul
        for layer, L in zip(model.layers, ws.layers):
            w_self, w_neigh = layer.w_self, layer.w_neigh
            for grp, (hv, aggv, xsv, xnv) in zip(batch.groups, L.fviews):
                mm(grp.blocks, hv, out=aggv)
                mm(hv, w_self, out=xsv)
                mm(aggv, w_neigh, out=xnv)
            # pre = (x_self + x_neigh) + bias, in the scalar association.
            np.add(L.pre, L.xn, out=L.pre)
            np.add(L.pre, layer.bias, out=L.pre)
            # Same ufunc as layer._act, written into the out buffer (for
            # "linear", act is the identity and L.out aliases L.pre).
            if L.act == "relu":
                np.maximum(L.pre, 0.0, out=L.out)
            elif L.act == "tanh":
                np.tanh(L.pre, out=L.out)
            elif L.out is not L.pre:  # pragma: no cover - defensive
                np.copyto(L.out, L.pre)
        # Readout: np.mean is sum-then-true_divide; issuing those two
        # ufuncs directly skips the wrapper (bit-identical result).
        for hv, ev, n in ws.emb_views:
            np.add.reduce(hv, axis=1, out=ev)
            np.true_divide(ev, n, out=ev)
        embeddings = ws.emb_int[batch.inv]
    finally:
        perf.add_time("gnn.batch_forward", _clock() - start)
    if keep_state:
        caches = [
            LayerCache(h_in=L.h_in, agg=L.agg, pre=L.pre) for L in ws.layers
        ]
        return embeddings, BatchState(batch=batch, caches=caches, ws=ws, ws_key=ck)
    _ws_release(ck, ws)
    return embeddings, None


def batched_backward(
    model, state: BatchState, grad_embeddings: np.ndarray, order=None
) -> None:
    """Backprop pooled-embedding gradients through a batched forward.

    ``grad_embeddings`` rows are in the caller's graph order.  Parameter
    gradients accumulate exactly like the scalar loop
    ``for g: embed_graph(g); backward_graph(grad[g])`` run from zeroed
    gradients — per-graph contributions are stacked per layer and reduced
    sequentially in the caller's graph order, so the sums are
    bit-identical.  Consumes the state (its workspace returns to the
    shared pool); a second backward on the same state raises.

    ``order``, if given, is a permutation (or subset) of caller graph
    indices fixing the accumulation sequence instead: parameter gradients
    sum the listed graphs' contributions in exactly that order, matching
    a scalar loop over ``order``.  ``grad_embeddings`` still covers every
    graph in the batch; graphs outside ``order`` contribute nothing.
    This lets a trainer reuse one memoized batch across shuffled
    minibatch epochs — the shuffle moves into the reduction order.

    ``order="slots"`` accumulates in the batch's *internal* slot order
    (:func:`accumulation_order` of the graph sizes) — the fastest mode,
    since the per-graph gradient stacks reduce in place with no gather.
    A scalar loop matches it by iterating graphs in that same order.
    """
    batch = state.batch
    grad_embeddings = np.asarray(grad_embeddings, dtype=np.float64)
    if grad_embeddings.shape[0] != batch.num_graphs:
        raise ValueError(
            f"expected {batch.num_graphs} embedding gradients, "
            f"got {grad_embeddings.shape[0]}"
        )
    ws = state.ws
    if ws is None:
        raise RuntimeError(
            "BatchState already consumed by a backward pass (or produced "
            "with keep_state=False)"
        )
    state.ws = None
    perf.incr("gnn.batch_backward")
    start = _clock()
    try:
        mm = np.matmul
        # Internal slot of each graph whose contribution is accumulated,
        # in accumulation order; None means internal slot order itself.
        if isinstance(order, str):
            if order != "slots":
                raise ValueError(f"unknown accumulation order {order!r}")
            inv = None
        else:
            inv = batch.inv if order is None else batch.inv[np.asarray(order)]
        # Scalar path: np.tile(grad_embedding / n, (n, 1)) — divide first,
        # then replicate; gathering the divided rows through ``rep`` is
        # the same row-repeat, written straight into the gout buffer.
        scaled = grad_embeddings[batch.order] / batch.counts[:, None]
        np.take(scaled, ws.rep, axis=0, out=ws.layers[-1].gout)
        first = ws.layers[0]
        for layer, L in zip(reversed(model.layers), reversed(ws.layers)):
            if L.act == "relu":
                # relu' is (pre > 0) as 1.0/0.0; greater() with a float
                # out-buffer produces exactly that without allocating.
                np.greater(L.pre, 0.0, out=L.gb)
                np.multiply(L.gout, L.gb, out=L.gp)
            elif L.act != "linear":
                np.multiply(L.gout, layer._act_grad(L.pre), out=L.gp)
            # else: act' == 1 exactly and L.gp aliases L.gout.
            # Transpose *views* of the weights, matching the scalar ``w.T``.
            w_self_t = layer.w_self.T
            w_neigh_t = layer.w_neigh.T
            # Layer 0's input gradient is d(loss)/d(features): nothing
            # consumes it, so its three matmuls per group are skipped.
            need_gin = L is not first
            for grp, (hv_t, aggv_t, gpv, gav, gnv, pwsv, pwnv, pbv) in zip(
                batch.groups, L.bviews
            ):
                mm(hv_t, gpv, out=pwsv)            # h.T @ grad_pre
                mm(aggv_t, gpv, out=pwnv)          # agg.T @ grad_pre
                np.add.reduce(gpv, axis=1, out=pbv)
                if need_gin:
                    mm(gpv, w_neigh_t, out=gav)    # grad_agg
                    mm(grp.blocks_t, gav, out=gnv)  # adj.T @ grad_agg
                    mm(gpv, w_self_t, out=gav)     # grad_h
                    # Same-rounding add in either order: a+b == b+a bitwise.
                    gnv += gav
            # np.add.reduce sums axis 0 sequentially; gathering the stacks
            # through ``inv`` puts them in accumulation order, so the sum
            # has the scalar loop's rounding.  (Accumulating onto
            # *nonzero* existing gradients would fold the old value in at
            # a different point than the scalar loop; both trainers
            # zero_grad before each backward.)
            if inv is None:
                # Slot order: the stacks are already in accumulation
                # order, so they reduce in place with no gather at all.
                np.add.reduce(L.pw_self, axis=0, out=L.gw_scratch)
                np.add(layer.grad_w_self, L.gw_scratch, out=layer.grad_w_self)
                np.add.reduce(L.pw_neigh, axis=0, out=L.gw_scratch)
                np.add(layer.grad_w_neigh, L.gw_scratch, out=layer.grad_w_neigh)
                np.add.reduce(L.pbias, axis=0, out=L.gb_scratch)
                np.add(layer.grad_bias, L.gb_scratch, out=layer.grad_bias)
            elif len(inv) == batch.num_graphs:
                # allocation-free: gather into scratch, reduce, accumulate
                np.take(L.pw_self, inv, axis=0, out=L.pw_scratch)
                np.add.reduce(L.pw_scratch, axis=0, out=L.gw_scratch)
                np.add(layer.grad_w_self, L.gw_scratch, out=layer.grad_w_self)
                np.take(L.pw_neigh, inv, axis=0, out=L.pw_scratch)
                np.add.reduce(L.pw_scratch, axis=0, out=L.gw_scratch)
                np.add(layer.grad_w_neigh, L.gw_scratch, out=layer.grad_w_neigh)
                np.take(L.pbias, inv, axis=0, out=L.pb_scratch)
                np.add.reduce(L.pb_scratch, axis=0, out=L.gb_scratch)
                np.add(layer.grad_bias, L.gb_scratch, out=layer.grad_bias)
            else:  # subset accumulation order: scratch shapes don't fit
                layer.grad_w_self += np.add.reduce(L.pw_self[inv], axis=0)
                layer.grad_w_neigh += np.add.reduce(L.pw_neigh[inv], axis=0)
                layer.grad_bias += np.add.reduce(L.pbias[inv], axis=0)
    finally:
        perf.add_time("gnn.batch_backward", _clock() - start)
    _ws_release(state.ws_key, ws)


def release_state(state: BatchState) -> None:
    """Return an unconsumed forward state's workspace to the shared pool.

    For callers that retain a state but decide not to backprop it (e.g. a
    zero-loss contrastive step, where running the backward would be
    wasted work).  Idempotent; a released state can no longer feed
    :func:`batched_backward`.
    """
    ws = state.ws
    if ws is not None:
        state.ws = None
        _ws_release(state.ws_key, ws)


# -- versioned embedding cache ------------------------------------------------


class EmbeddingCache:
    """LRU cache of pooled graph embeddings keyed by model version.

    Keys are ``(id(model), model.version, id(graph))`` with weakref
    finalizers evicting all of a model's or graph's entries when it is
    collected.  Because the version is part of the key, ``load_state_dict``
    and optimizer steps (which bump it) invalidate implicitly — stale
    entries simply never match and age out of the LRU.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
        self._tracked: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _track(self, obj) -> None:
        if id(obj) not in self._tracked:
            self._tracked.add(id(obj))
            try:
                weakref.finalize(obj, self._drop_owner, id(obj))
            except TypeError:  # pragma: no cover - non-weakref-able object
                pass

    def _drop_owner(self, owner_id: int) -> None:
        with self._lock:
            self._tracked.discard(owner_id)
            dead = [k for k in self._entries if owner_id in (k[0], k[2])]
            for k in dead:
                del self._entries[k]

    def get(self, model, graph) -> np.ndarray | None:
        key = (id(model), model.version, id(graph))
        with self._lock:
            emb = self._entries.get(key)
            if emb is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return emb

    def put(self, model, graph, embedding: np.ndarray) -> None:
        self._track(model)
        self._track(graph)
        key = (id(model), model.version, id(graph))
        stored = np.array(embedding, dtype=np.float64, copy=True)
        stored.setflags(write=False)
        with self._lock:
            self._entries[key] = stored
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "enabled": embed_cache_enabled(),
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": round(self.hits / lookups, 6) if lookups else 0.0,
                "evictions": self.evictions,
            }


#: Process-wide cache used by ``GraphSAGE.embed_graphs``.
embedding_cache = EmbeddingCache()

perf.register_stats_provider("gnn_embed", embedding_cache.stats)


def embed_graphs_cached(model, graphs: list[GraphData]) -> np.ndarray:
    """Embed ``graphs`` through the cache and the batched engine.

    Rows are bit-identical to ``model.embed_graph`` per graph (the
    parity contract above).
    """
    if not graphs:
        return np.empty((0, model.embedding_dim))
    use_cache = embed_cache_enabled()
    if not use_cache:
        # No cache to consult or fill: embed the list directly.  Duplicate
        # objects just occupy two batch slots and come out bit-identical
        # (each graph's slice is computed independently).
        fresh, _ = batched_forward(model, pack_graphs(graphs), keep_state=False)
        return fresh
    out = np.empty((len(graphs), model.embedding_dim))
    missing: list[int] = []
    duplicates: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for pos, graph in enumerate(graphs):
        cached = embedding_cache.get(model, graph)
        if cached is not None:
            out[pos] = cached
        elif id(graph) in seen:  # duplicate object in one call
            duplicates.append((pos, seen[id(graph)]))
        else:
            seen[id(graph)] = pos
            missing.append(pos)
    if missing:
        todo = [graphs[pos] for pos in missing]
        fresh, _ = batched_forward(model, pack_graphs(todo), keep_state=False)
        out[missing] = fresh
        for row, pos in enumerate(missing):
            embedding_cache.put(model, graphs[pos], fresh[row])
    for pos, src in duplicates:
        out[pos] = out[src]
    return out


def embed_graph_groups(model, groups: list[list[GraphData]]) -> list[np.ndarray]:
    """Embed several graph *groups* in one batched forward.

    This is the heterogeneous-arrival entry the serving layer coalesces
    on: each group is one logical unit (e.g. the module graphs of one
    design under analysis), and all groups' graphs are concatenated into
    a single :func:`embed_graphs_cached` call — one packed batch, one
    cache sweep — then sliced back per group.  The parity contract makes
    the grouping immaterial: each returned row is bit-exact with what a
    per-group (or per-graph) call would produce.
    """
    flat: list[GraphData] = [graph for group in groups for graph in group]
    perf.incr("gnn.group_embeds", len(groups))
    embeddings = embed_graphs_cached(model, flat)
    out: list[np.ndarray] = []
    offset = 0
    for group in groups:
        out.append(embeddings[offset:offset + len(group)])
        offset += len(group)
    return out
