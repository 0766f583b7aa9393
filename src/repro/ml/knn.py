"""k-nearest neighbours (Table 2's 'kNN' row).

Over binary vectors the natural metric is Hamming distance, computed
for a whole query block at once via dot products:

    hamming(a, b) = sum(a) + sum(b) - 2 * a.b

Prediction is the malicious fraction among the k nearest training
samples (distance-tie handling follows index order, making results
deterministic).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy


class KNearestNeighbors(Classifier):
    """kNN with Hamming distance over one-hot features.

    Args:
        k: neighbourhood size.
        chunk_size: query rows scored per matmul block (memory bound).
    """

    name = "knn"
    _fitted_attr = "_X"

    def __init__(self, k: int = 5, chunk_size: int = 512):
        if k < 1:
            raise ValueError("k must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.k = k
        self.chunk_size = chunk_size
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._row_sums: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNearestNeighbors":
        X, y = check_Xy(X, y)
        self._X = X
        self._y = y.astype(np.float64)
        self._row_sums = X.sum(axis=1)
        return self

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """Malicious fraction among the k nearest rows, chunked.

        Batch-size invariant even though the dot products run through
        BLAS: the operands hold 0/1 values, so every product and sum is
        an integer computed exactly in floating point regardless of the
        accumulation order; argpartition and the k-neighbour mean are
        strictly per-row.
        """
        if X.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"expected {self._X.shape[1]} features, got {X.shape[1]}"
            )
        Xf = X.astype(np.float32, copy=False)
        k = min(self.k, self._X.shape[0])
        out = np.empty(Xf.shape[0])
        for start in range(0, Xf.shape[0], self.chunk_size):
            block = Xf[start : start + self.chunk_size]
            # Hamming distances of the whole block against all training
            # rows in one matrix product.
            dots = block @ self._X.T
            dists = block.sum(axis=1, keepdims=True) + self._row_sums - 2 * dots
            nearest = np.argpartition(dists, kth=k - 1, axis=1)[:, :k]
            out[start : start + block.shape[0]] = self._y[nearest].mean(axis=1)
        return out
