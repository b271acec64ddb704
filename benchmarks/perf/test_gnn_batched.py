"""Batched GNN engine vs the scalar per-graph path.

Acceptance (ISSUE 4): on the Fig-4 corpus (7 Chipyard designs, one per
family) the batched ``embed_graphs`` must beat the per-graph loop by
>= 3x, one vectorized multi-similarity epoch must beat the scalar epoch
by >= 3x, and both must stay bit-exact.  Fig-4 (contrastive) training
wall-clock is recorded on both paths; it is what keeps contrastive
training per-graph in ``MetricTrainer``.  The other path of each loss
is ``tests/oracles/gnn.ReferenceTrainer``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.designs.chipyard import generate_corpus
from repro.gnn import GraphBatch, GraphSAGE
from repro.gnn.batch import batched_forward
from repro.mentor.circuit_graph import build_circuit_graph
from repro.mentor.embeddings import CircuitEncoder
from repro.mentor.metric_learning import MetricTrainer, multi_similarity_loss
from tests.oracles.gnn import ReferenceTrainer, multi_similarity_loss_loop

# Single-core CI runners are noisy; min-over-many-repeats is the only
# stable statistic.  Embed calls are ~150us so they get a large budget.
REPEATS = 7
EMBED_REPEATS = 30
EPOCH_REPEATS = 20


def _corpus_graphs():
    """Module dataflow graphs + family labels for the Fig-4 corpus."""
    corpus = generate_corpus(1)
    families = sorted({d.family for d in corpus})
    label_of = {f: i for i, f in enumerate(families)}
    graphs, labels = [], []
    for design in corpus:
        circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
        for graph in circuit.module_graphs.values():
            graphs.append(graph)
            labels.append(label_of[design.family])
    return graphs, labels


def _best(fn, repeats=REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_batched_embed_speedup_and_parity(bench_results, monkeypatch):
    monkeypatch.setenv("REPRO_GNN_EMBED_CACHE", "0")
    graphs, _ = _corpus_graphs()
    model = GraphSAGE(in_dim=graphs[0].features.shape[1], hidden_dims=(48, 32), seed=0)

    batch = GraphBatch(graphs)  # warm the adjacency-block memo
    model.embed_graphs(graphs)  # warm the pack memo + workspace pool

    # Alternate blocks of repeats so a load burst on a shared runner hits
    # both variants instead of inflating whichever happened to run under
    # it; the min over all blocks is the steady-state time.
    batched_s = scalar_s = float("inf")
    batched_emb = scalar_emb = None
    for _ in range(6):
        t, batched_emb = _best(lambda: model.embed_graphs(graphs), EMBED_REPEATS)
        batched_s = min(batched_s, t)
        t, scalar_emb = _best(
            lambda: np.vstack([model.embed_graph(g) for g in graphs]), EMBED_REPEATS
        )
        scalar_s = min(scalar_s, t)
    np.testing.assert_array_equal(batched_emb, scalar_emb)

    speedup = scalar_s / batched_s
    bench_results.setdefault("gnn_batched", {})["embed_graphs"] = {
        "graphs": len(graphs),
        "total_nodes": batch.total_nodes,
        "repeats": 6 * EMBED_REPEATS,
        "scalar_s": round(scalar_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 3.0, f"batched embed speedup {speedup:.2f}x < 3x"


def test_vectorized_ms_epoch_speedup(bench_results, monkeypatch):
    """Vectorized multi-similarity epoch vs the pre-engine epoch.

    The baseline reproduces what the seed shipped: per-graph embeds, the
    O(n^2)-Python loss loop, a per-row normalization-gradient loop, and
    re-forward backwards.  The vectorized epoch (batched engine + matrix
    loss) must beat it by >= 3x; the per-graph reference epoch (which
    shares the vectorized loss) is recorded too, and its loss trajectory
    must stay bit-exact with the batched one.
    """
    monkeypatch.setenv("REPRO_GNN_EMBED_CACHE", "0")
    graphs, labels = _corpus_graphs()
    labels_arr = np.asarray(labels)
    warmup = 3

    # Epochs run back-to-back in one mode (as real training does) so each
    # variant is measured in its own contiguous block; min over many
    # repeats is the only statistic stable on a noisy single-core runner.
    def steady_epochs(trainer_cls):
        """Min steady-state epoch time + the full loss trajectory."""
        encoder = CircuitEncoder(seed=0)
        trainer = trainer_cls(encoder, loss="multi_similarity", seed=0)
        losses, times = [], []
        for _ in range(warmup + EPOCH_REPEATS):
            start = time.perf_counter()
            losses.append(trainer._ms_epoch(graphs, labels_arr, batch_size=32))
            times.append(time.perf_counter() - start)
        return min(times[warmup:]), losses

    def seed_epochs():
        """The epoch exactly as the seed ran it (scalar + loop loss)."""
        encoder = CircuitEncoder(seed=0)
        trainer = MetricTrainer(encoder, loss="multi_similarity", seed=0)
        model = encoder.model
        times = []
        for _ in range(warmup + EPOCH_REPEATS):
            start = time.perf_counter()
            idx = trainer.rng.choice(
                len(graphs), size=min(32, len(graphs)), replace=False
            )
            embeddings = np.vstack([model.embed_graph(graphs[i]) for i in idx])
            norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            normalized = embeddings / norms
            _loss, grad_norm = multi_similarity_loss_loop(
                normalized, labels_arr[idx]
            )
            model.zero_grad()
            for row, i in enumerate(idx):
                norm = norms[row, 0]
                g = grad_norm[row] / norm - (
                    normalized[row] * (grad_norm[row] @ normalized[row]) / norm
                )
                model.embed_graph(graphs[i])
                model.backward_graph(g)
            trainer.optimizer.step()
            times.append(time.perf_counter() - start)
        return min(times[warmup:])

    batched_s, batched_losses = steady_epochs(MetricTrainer)
    scalar_s, scalar_losses = steady_epochs(ReferenceTrainer)
    assert batched_losses == scalar_losses  # bit-exact across modes
    baseline_s = seed_epochs()

    # Sub-measurement: the vectorized loss kernel alone vs the O(n^2) loop.
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(64, 32))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    loss_labels = rng.integers(0, 7, size=64)
    vec_s, vec_out = _best(lambda: multi_similarity_loss(emb, loss_labels), 20)
    loop_s, loop_out = _best(lambda: multi_similarity_loss_loop(emb, loss_labels), 20)
    np.testing.assert_allclose(vec_out[0], loop_out[0], rtol=1e-12)

    speedup = baseline_s / batched_s
    bench_results.setdefault("gnn_batched", {})["ms_epoch"] = {
        "batch_size": 32,
        "repeats": EPOCH_REPEATS,
        "baseline_s": round(baseline_s, 6),
        "scalar_s": round(scalar_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 2),
        "scalar_fallback_speedup": round(baseline_s / scalar_s, 2),
        "loss_kernel": {
            "n": 64,
            "loop_s": round(loop_s, 6),
            "vectorized_s": round(vec_s, 6),
            "speedup": round(loop_s / vec_s, 2),
        },
    }
    assert speedup >= 3.0, f"vectorized MS epoch speedup {speedup:.2f}x < 3x"


def test_fig4_training_wallclock(bench_results, monkeypatch):
    monkeypatch.setenv("REPRO_GNN_EMBED_CACHE", "0")
    graphs, labels = _corpus_graphs()

    def run(trainer_cls):
        encoder = CircuitEncoder(seed=0)
        trainer = trainer_cls(encoder, loss="contrastive", seed=0)
        start = time.perf_counter()
        stats = trainer.train(graphs, labels, epochs=3)
        return time.perf_counter() - start, stats.losses

    # MetricTrainer trains contrastive pairs per graph; the two-graph
    # batch path is the reference trainer's.
    scalar_s, scalar_losses = run(MetricTrainer)
    batched_s, batched_losses = run(ReferenceTrainer)
    assert batched_losses == scalar_losses  # training is path-invariant

    bench_results.setdefault("gnn_batched", {})["fig4_train"] = {
        "epochs": 3,
        "loss": "contrastive",
        "scalar_s": round(scalar_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(scalar_s / batched_s, 2),
    }
