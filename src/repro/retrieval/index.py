"""Exact and inverted-file L2 vector indexes (FAISS-compatible API).

:class:`FlatL2Index` mirrors FAISS ``IndexFlatL2``: ``add(vectors)``
then ``search(queries, k) -> (distances, indices)``, brute-force exact.
:class:`IVFFlatIndex` mirrors ``IndexIVFFlat``: k-means coarse
quantiser, probes the ``nprobe`` nearest cells — approximate but much
faster on large corpora.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AutoTrainedIVFIndex",
    "FlatL2Index",
    "INDEX_FACTORIES",
    "INDEX_NAMES",
    "IVFFlatIndex",
]


def _as_matrix(vectors: np.ndarray, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float32)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name} must have shape (n, {dim}), got {arr.shape}")
    return arr


def _sq_norms(arr: np.ndarray) -> np.ndarray:
    """Each row's squared L2 norm."""
    return np.einsum("ij,ij->i", arr, arr)


class FlatL2Index:
    """Brute-force exact L2 index (the paper uses FAISS IndexFlatL2)."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._vectors = np.zeros((0, dim), dtype=np.float32)
        # Per-vector ||x||^2, rebuilt lazily after add().
        self._sq_norms: np.ndarray | None = None

    @property
    def ntotal(self) -> int:
        """Number of indexed vectors (FAISS naming)."""
        return self._vectors.shape[0]

    def add(self, vectors: np.ndarray) -> None:
        """Append vectors to the index."""
        arr = _as_matrix(vectors, self.dim, "vectors")
        self._vectors = np.vstack([self._vectors, arr])
        self._sq_norms = None

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-nearest-neighbour search by squared L2 distance.

        Returns ``(distances, indices)`` of shape ``(nq, k)``; when the
        index holds fewer than ``k`` vectors, missing slots are padded
        with distance ``inf`` and index ``-1`` (FAISS convention).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        q = _as_matrix(queries, self.dim, "queries")
        nq = q.shape[0]
        if self.ntotal == 0:
            return (
                np.full((nq, k), np.inf, dtype=np.float32),
                np.full((nq, k), -1, dtype=np.int64),
            )
        # ||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2, computed blockwise.
        x = self._vectors
        if self._sq_norms is None:
            self._sq_norms = _sq_norms(x)
        sq_q = _sq_norms(q)
        d2 = sq_q[:, None] - 2.0 * (q @ x.T) + self._sq_norms[None, :]
        np.maximum(d2, 0.0, out=d2)

        k_eff = min(k, self.ntotal)
        part = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
        rows = np.arange(nq)[:, None]
        order = np.argsort(d2[rows, part], axis=1, kind="stable")
        idx_sorted = part[rows, order]
        dist_sorted = d2[rows, idx_sorted]

        if k_eff < k:
            pad_d = np.full((nq, k - k_eff), np.inf, dtype=np.float32)
            pad_i = np.full((nq, k - k_eff), -1, dtype=np.int64)
            return (
                np.hstack([dist_sorted.astype(np.float32), pad_d]),
                np.hstack([idx_sorted.astype(np.int64), pad_i]),
            )
        return dist_sorted.astype(np.float32), idx_sorted.astype(np.int64)


class IVFFlatIndex:
    """Inverted-file index: k-means cells, probe the nearest ``nprobe``.

    Requires :meth:`train` before :meth:`add` (FAISS semantics).
    """

    def __init__(self, dim: int, nlist: int = 16, nprobe: int = 4,
                 seed: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if nlist <= 0:
            raise ValueError(f"nlist must be positive, got {nlist}")
        if not 1 <= nprobe <= nlist:
            raise ValueError(f"nprobe must be in [1, {nlist}], got {nprobe}")
        self.dim = dim
        self.nlist = nlist
        self.nprobe = nprobe
        self._seed = seed
        self._centroids: np.ndarray | None = None
        self._centroid_sq: np.ndarray | None = None  # ||c||^2 per cell
        self._cells: list[list[int]] = []
        self._vectors = np.zeros((0, dim), dtype=np.float32)
        # Search-time caches, rebuilt lazily after add()/train():
        # per-cell candidate index arrays and per-vector ||x||^2.
        self._cell_arrays: list[np.ndarray] | None = None
        self._sq_norms: np.ndarray | None = None

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def ntotal(self) -> int:
        return self._vectors.shape[0]

    def train(self, vectors: np.ndarray, n_iters: int = 10) -> None:
        """Fit the coarse quantiser with Lloyd's k-means.

        Refused once the index holds vectors: they are filed in the
        old centroids' cells, which new centroids would strand.
        """
        if self.ntotal:
            raise RuntimeError(
                f"IVFFlatIndex already holds {self.ntotal} vectors; "
                "train() before add(), not after"
            )
        arr = _as_matrix(vectors, self.dim, "vectors")
        if arr.shape[0] < self.nlist:
            raise ValueError(
                f"need at least nlist={self.nlist} training vectors, "
                f"got {arr.shape[0]}"
            )
        rng = np.random.default_rng(self._seed)
        centroids = arr[rng.choice(arr.shape[0], self.nlist, replace=False)].copy()
        for _ in range(n_iters):
            assign = self._centroid_d2(
                arr, centroids, _sq_norms(centroids)).argmin(axis=1)
            for c in range(self.nlist):
                members = arr[assign == c]
                if members.shape[0] > 0:
                    centroids[c] = members.mean(axis=0)
        self._centroids = centroids
        self._centroid_sq = _sq_norms(centroids)
        self._cells = [[] for _ in range(self.nlist)]
        self._cell_arrays = None
        self._sq_norms = None

    @staticmethod
    def _centroid_d2(arr: np.ndarray, centroids: np.ndarray,
                     sq_c: np.ndarray) -> np.ndarray:
        """Squared L2 distances to every centroid, blockwise, given the
        centroids' squared norms ``sq_c``.

        ``||a - c||^2 = ||a||^2 - 2 a.c + ||c||^2`` — two matmuls and a
        broadcast instead of an ``(n, nlist, dim)`` intermediate.
        """
        sq_a = _sq_norms(arr)
        d2 = sq_a[:, None] - 2.0 * (arr @ centroids.T) + sq_c[None, :]
        np.maximum(d2, 0.0, out=d2)
        return d2

    def add(self, vectors: np.ndarray) -> None:
        if not self.is_trained:
            raise RuntimeError("IVFFlatIndex must be trained before add()")
        arr = _as_matrix(vectors, self.dim, "vectors")
        start = self.ntotal
        assign = self._centroid_d2(
            arr, self._centroids, self._centroid_sq).argmin(axis=1)
        for offset, cell in enumerate(assign):
            self._cells[int(cell)].append(start + offset)
        self._vectors = np.vstack([self._vectors, arr])
        self._cell_arrays = None
        self._sq_norms = None

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate kNN: exact search within the ``nprobe`` nearest cells."""
        if not self.is_trained:
            raise RuntimeError("IVFFlatIndex must be trained before search()")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        q = _as_matrix(queries, self.dim, "queries")
        nq = q.shape[0]
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        if self.ntotal == 0:
            return out_d, out_i
        if self._cell_arrays is None:
            self._cell_arrays = [
                np.asarray(cell, dtype=np.int64) for cell in self._cells
            ]
            self._sq_norms = _sq_norms(self._vectors)
        cd2 = self._centroid_d2(q, self._centroids, self._centroid_sq)
        probe_cells = np.argsort(cd2, axis=1)[:, : self.nprobe]
        sq_q = _sq_norms(q)
        for row in range(nq):
            cand = np.concatenate(
                [self._cell_arrays[int(cell)] for cell in probe_cells[row]]
            )
            if cand.size == 0:
                continue
            # Same blockwise identity as FlatL2Index, restricted to the
            # probed cells' candidates.
            d2 = (
                self._sq_norms[cand]
                - 2.0 * (self._vectors[cand] @ q[row])
                + sq_q[row]
            )
            np.maximum(d2, 0.0, out=d2)
            order = np.argsort(d2, kind="stable")[:k]
            n = len(order)
            out_d[row, :n] = d2[order]
            out_i[row, :n] = cand[order]
        return out_d, out_i


class AutoTrainedIVFIndex(IVFFlatIndex):
    """IVF index that trains its coarse quantiser on the first ``add``.

    FAISS requires an explicit ``train`` before ``add``; a store shard
    receives its vectors in whatever batches placement produces, so
    this variant trains itself on the first batch, clamping ``nlist``
    (and ``nprobe``) to the batch size when the shard is small. Later
    batches reuse the fitted quantiser, exactly as in FAISS.
    """

    def add(self, vectors: np.ndarray) -> None:
        if not self.is_trained:
            arr = _as_matrix(vectors, self.dim, "vectors")
            self.nlist = max(1, min(self.nlist, arr.shape[0]))
            self.nprobe = max(1, min(self.nprobe, self.nlist))
            self.train(arr)
            super().add(arr)
            return
        super().add(vectors)


#: Named per-shard index constructors (``dim -> index``) selectable via
#: the CLI ``--index`` flag and ``ShardedVectorStore(index_factory=...)``.
INDEX_FACTORIES = {
    "flat": FlatL2Index,
    "ivf": AutoTrainedIVFIndex,
}
INDEX_NAMES = tuple(sorted(INDEX_FACTORIES))
