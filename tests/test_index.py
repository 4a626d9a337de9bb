"""Unit + property tests for the FAISS-style L2 indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.retrieval.index import FlatL2Index, IVFFlatIndex


def brute_force_knn(data: np.ndarray, q: np.ndarray, k: int):
    d2 = ((data - q) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")[:k]
    return d2[order], order


class TestFlatL2:
    def test_empty_index_returns_padding(self):
        index = FlatL2Index(dim=4)
        d, i = index.search(np.zeros(4, dtype=np.float32), 3)
        assert np.all(np.isinf(d))
        assert np.all(i == -1)

    def test_exact_nearest_neighbour(self):
        index = FlatL2Index(dim=2)
        index.add(np.array([[0, 0], [1, 0], [5, 5]], dtype=np.float32))
        d, i = index.search(np.array([[0.9, 0.1]], dtype=np.float32), 1)
        assert i[0, 0] == 1

    def test_padding_when_k_exceeds_ntotal(self):
        index = FlatL2Index(dim=2)
        index.add(np.array([[0, 0]], dtype=np.float32))
        d, i = index.search(np.zeros((1, 2), dtype=np.float32), 5)
        assert i[0, 0] == 0
        assert list(i[0, 1:]) == [-1] * 4
        assert np.all(np.isinf(d[0, 1:]))

    def test_shape_validation(self):
        index = FlatL2Index(dim=4)
        with pytest.raises(ValueError, match="shape"):
            index.add(np.zeros((2, 3), dtype=np.float32))

    def test_rejects_bad_k(self):
        index = FlatL2Index(dim=2)
        with pytest.raises(ValueError):
            index.search(np.zeros((1, 2), dtype=np.float32), 0)

    @settings(deadline=None, max_examples=30)
    @given(
        arrays(np.float32, (12, 8),
               elements=st.floats(-5, 5, width=32)),
        arrays(np.float32, (2, 8),
               elements=st.floats(-5, 5, width=32)),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_brute_force(self, data, queries, k):
        index = FlatL2Index(dim=8)
        index.add(data)
        d, i = index.search(queries, k)
        for row in range(queries.shape[0]):
            ref_d, _ = brute_force_knn(data, queries[row], k)
            # Compare distances (indices may tie-break differently).
            assert np.allclose(np.sort(d[row]), np.sort(ref_d), atol=1e-3)


class TestCachedNorms:
    """Searches reuse the indexed vectors' (and centroids') squared
    norms; an ``add`` or ``train`` must not leave them stale."""

    def _data(self, n, seed):
        return np.random.default_rng(seed).normal(
            size=(n, 8)).astype(np.float32)

    def _same(self, a, b):
        q = self._data(6, seed=9)
        for got, want in zip(a.search(q, 5), b.search(q, 5)):
            assert got.tobytes() == want.tobytes()

    def test_flat_add_after_search(self):
        index = FlatL2Index(dim=8)
        index.add(self._data(30, seed=0))
        index.search(self._data(2, seed=1), 3)
        index.add(self._data(30, seed=2))
        fresh = FlatL2Index(dim=8)
        fresh.add(np.vstack([self._data(30, seed=0), self._data(30, seed=2)]))
        self._same(index, fresh)

    def test_ivf_add_after_search(self):
        index = IVFFlatIndex(dim=8, nlist=4, nprobe=2)
        index.train(self._data(40, seed=0))
        index.add(self._data(40, seed=0))
        index.search(self._data(2, seed=1), 3)
        index.add(self._data(20, seed=2))
        fresh = IVFFlatIndex(dim=8, nlist=4, nprobe=2)
        fresh.train(self._data(40, seed=0))
        fresh.add(np.vstack([self._data(40, seed=0), self._data(20, seed=2)]))
        self._same(index, fresh)

    def test_ivf_retrain(self):
        """The first centroids are far apart with very different norms,
        so norms left from them would reorder the second ones' cells."""
        index = IVFFlatIndex(dim=8, nlist=4, nprobe=1)
        index.train(20.0 * self._data(40, seed=0))
        index.train(self._data(40, seed=3))
        index.add(self._data(40, seed=3))
        fresh = IVFFlatIndex(dim=8, nlist=4, nprobe=1)
        fresh.train(self._data(40, seed=3))
        fresh.add(self._data(40, seed=3))
        self._same(index, fresh)


class TestIVFFlat:
    def _data(self, n=200, dim=8, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, dim)).astype(np.float32)

    def test_requires_training(self):
        index = IVFFlatIndex(dim=8)
        with pytest.raises(RuntimeError, match="trained"):
            index.add(self._data(20))
        with pytest.raises(RuntimeError, match="trained"):
            index.search(np.zeros((1, 8), dtype=np.float32), 1)

    def test_train_refused_once_populated(self):
        index = IVFFlatIndex(dim=8, nlist=4, nprobe=2)
        index.train(self._data(40))
        index.add(self._data(40))
        with pytest.raises(RuntimeError, match="holds 40 vectors"):
            index.train(self._data(40, seed=3))
        # The refused call leaves every held vector findable.
        d, i = index.search(self._data(2, seed=1), 3)
        assert (i >= 0).all() and np.isfinite(d).all()

    def test_train_needs_enough_vectors(self):
        index = IVFFlatIndex(dim=8, nlist=16)
        with pytest.raises(ValueError, match="nlist"):
            index.train(self._data(8))

    def test_recall_against_exact(self):
        data = self._data(300)
        ivf = IVFFlatIndex(dim=8, nlist=8, nprobe=4)
        ivf.train(data)
        ivf.add(data)
        flat = FlatL2Index(dim=8)
        flat.add(data)
        queries = self._data(20, seed=1)
        _, exact = flat.search(queries, 5)
        _, approx = ivf.search(queries, 5)
        recall = np.mean([
            len(set(exact[r]) & set(approx[r])) / 5
            for r in range(queries.shape[0])
        ])
        assert recall >= 0.6  # nprobe=4 of 8 cells

    def test_full_probe_is_exact(self):
        data = self._data(100)
        ivf = IVFFlatIndex(dim=8, nlist=4, nprobe=4)
        ivf.train(data)
        ivf.add(data)
        flat = FlatL2Index(dim=8)
        flat.add(data)
        q = self._data(5, seed=2)
        d_ivf, i_ivf = ivf.search(q, 3)
        d_flat, i_flat = flat.search(q, 3)
        assert np.allclose(np.sort(d_ivf), np.sort(d_flat), atol=1e-3)

    def test_nprobe_validation(self):
        with pytest.raises(ValueError):
            IVFFlatIndex(dim=8, nlist=4, nprobe=5)
