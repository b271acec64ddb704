"""Cross-index parity: randomized recall, exactness, errors, persistence.

Satellite suite for the ANN work: FlatIndex is ground truth, and every
other index must either match it exactly (exhaustive settings) or clear
a recall floor (ANN settings), raise the same errors for the same bad
inputs, and survive mmap persistence — including into a fresh process.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vectorstore import FlatIndex, HNSWIndex

ALL_INDEX_TYPES = [FlatIndex, HNSWIndex]


def _corpus(seed: int, n: int, dim: int, clusters: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(clusters, dim))
    per = int(np.ceil(n / clusters))
    rows = np.vstack(
        [c + rng.normal(scale=0.5, size=(per, dim)) for c in centers]
    )
    return rows[:n]


class TestRandomizedRecall:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        metric=st.sampled_from(["cosine", "l2"]),
    )
    def test_hnsw_recall_at_default_ef(self, seed, metric):
        """recall@10 >= 0.95 vs flat ground truth at default ef_search."""
        data = _corpus(seed, n=400, dim=16)
        flat = FlatIndex(dim=16, metric=metric)
        hnsw = HNSWIndex(dim=16, metric=metric, seed=seed % 17)
        flat.add_batch(range(len(data)), data)
        hnsw.add_batch(range(len(data)), data)
        rng = np.random.default_rng(seed + 1)
        queries = data[rng.integers(0, len(data), size=20)] + rng.normal(
            scale=0.05, size=(20, 16)
        )
        hits = total = 0
        for query in queries:
            truth = {r.key for r in flat.search(query, k=10)}
            approx = {r.key for r in hnsw.search(query, k=10)}
            hits += len(truth & approx)
            total += len(truth)
        assert hits / total >= 0.95

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        metric=st.sampled_from(["cosine", "ip", "l2"]),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_hnsw_exact_at_exhaustive_ef(self, seed, metric, k):
        """ef_search >= n is brute force: keys AND scores match flat."""
        data = _corpus(seed, n=120, dim=8)
        flat = FlatIndex(dim=8, metric=metric)
        hnsw = HNSWIndex(
            dim=8, metric=metric, ef_search=len(data), dtype=np.float64
        )
        flat.add_batch(range(len(data)), data)
        hnsw.add_batch(range(len(data)), data)
        query = _corpus(seed + 5, n=1, dim=8)[0]
        want = [(r.key, r.score) for r in flat.search(query, k=k)]
        got = [(r.key, r.score) for r in hnsw.search(query, k=k)]
        assert got == want
        got_batch = [
            (r.key, r.score) for r in hnsw.search_batch(query.reshape(1, -1), k=k)[0]
        ]
        batch_want = [
            (r.key, r.score) for r in flat.search_batch(query.reshape(1, -1), k=k)[0]
        ]
        assert got_batch == batch_want


class TestErrorParity:
    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_duplicate_key(self, index_type):
        idx = index_type(dim=3)
        idx.add("k", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="duplicate"):
            idx.add("k", [4.0, 5.0, 6.0])
        assert len(idx) == 1

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_add_dim_mismatch(self, index_type):
        idx = index_type(dim=3)
        with pytest.raises(ValueError, match="dim"):
            idx.add("k", [1.0, 2.0])
        assert len(idx) == 0

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_search_dim_mismatch(self, index_type):
        idx = index_type(dim=3)
        idx.add("k", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="dim"):
            idx.search([1.0, 2.0])

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_unknown_metric(self, index_type):
        with pytest.raises(ValueError, match="metric"):
            index_type(dim=3, metric="manhattan")

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_empty_search_returns_empty(self, index_type):
        assert index_type(dim=3).search([1.0, 2.0, 3.0]) == []

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_contains_protocol(self, index_type):
        idx = index_type(dim=2)
        idx.add("present", [1.0, 0.0])
        assert "present" in idx
        assert "absent" not in idx


class TestBatchParity:
    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_add_batch_then_search(self, index_type):
        data = _corpus(3, n=60, dim=6)
        idx = index_type(dim=6)
        idx.add_batch([f"v{i}" for i in range(len(data))], data)
        assert len(idx) == len(data)
        hits = idx.search(data[7], k=3)
        assert hits and hits[0].key == "v7"

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_search_batch_shape(self, index_type):
        data = _corpus(4, n=40, dim=5)
        idx = index_type(dim=5)
        idx.add_batch(range(len(data)), data)
        out = idx.search_batch(data[:6], k=4)
        assert len(out) == 6
        assert all(len(row) == 4 for row in out)
        assert out[2][0].key == 2


class TestPersistenceParity:
    def test_flat_save_load(self, tmp_path):
        data = _corpus(7, n=50, dim=6)
        idx = FlatIndex(dim=6)
        idx.add_batch(range(len(data)), data, payloads=[{"i": i} for i in range(len(data))])
        idx.save(tmp_path / "flat")
        loaded = FlatIndex.load(tmp_path / "flat", mmap=True)
        query = data[11] + 0.01
        assert [(r.key, r.score, r.payload) for r in loaded.search(query, k=5)] == [
            (r.key, r.score, r.payload) for r in idx.search(query, k=5)
        ]

    def test_mmap_round_trip_across_process(self, tmp_path):
        """A saved index must reopen (mmapped) in a fresh interpreter."""
        data = _corpus(8, n=150, dim=10)
        idx = HNSWIndex(dim=10, metric="cosine", M=8, seed=1)
        idx.add_batch(range(len(data)), data)
        idx.save(tmp_path / "xproc")
        query = data[33] + 0.01
        want = [r.key for r in idx.search(query, k=5)]

        import pathlib

        import repro

        src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, numpy as np\n"
            f"sys.path.insert(0, {src_root!r})\n"
            "from repro.vectorstore import HNSWIndex\n"
            f"idx = HNSWIndex.load({str(tmp_path / 'xproc')!r}, mmap=True)\n"
            "assert idx._store.mmapped\n"
            f"query = np.asarray({query.tolist()!r})\n"
            "print(','.join(str(r.key) for r in idx.search(query, k=5)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        got = [int(s) for s in proc.stdout.strip().split(",")]
        assert got == want
