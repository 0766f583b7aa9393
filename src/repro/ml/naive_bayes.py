"""Bernoulli naive Bayes (Table 2's 'Naive Bayes' row).

The natural generative model for one-hot feature vectors: per-class
Bernoulli likelihood per feature, with Laplace smoothing.  Fast to train
and, exactly as the paper observes, much less accurate than the
discriminative alternatives because API co-occurrence violates the
independence assumption badly.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy, row_stable_matvec


class BernoulliNaiveBayes(Classifier):
    """Naive Bayes over binary features with Laplace smoothing."""

    name = "nb"
    _fitted_attr = "_log_p"

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._log_prior: np.ndarray | None = None
        self._log_p: np.ndarray | None = None   # log P(x=1 | class)
        self._log_q: np.ndarray | None = None   # log P(x=0 | class)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BernoulliNaiveBayes":
        X, y = check_Xy(X, y)
        counts = np.array([(y == 0).sum(), (y == 1).sum()], dtype=np.float64)
        if (counts == 0).any():
            raise ValueError("both classes must be present in y")
        self._log_prior = np.log(counts / counts.sum())
        p = np.vstack(
            [
                (X[y == 0].sum(axis=0) + self.alpha)
                / (counts[0] + 2 * self.alpha),
                (X[y == 1].sum(axis=0) + self.alpha)
                / (counts[1] + 2 * self.alpha),
            ]
        )
        self._log_p = np.log(p)
        self._log_q = np.log1p(-p)
        return self

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """P(malware | x) per row via row-stable log-joint scores.

        ``x·log p + (1-x)·log q`` is folded into one matvec per class,
        ``x·(log p - log q) + sum(log q)``, so the per-row reduction is
        a single row-stable kernel call and results are batch-size
        invariant.
        """
        if X.shape[1] != self._log_p.shape[1]:
            raise ValueError(
                f"expected {self._log_p.shape[1]} features, got {X.shape[1]}"
            )
        Xf = X.astype(np.float32, copy=False)
        joint = np.empty((Xf.shape[0], 2), dtype=np.float64)
        for c in (0, 1):
            joint[:, c] = (
                row_stable_matvec(Xf, self._log_p[c] - self._log_q[c])
                + self._log_q[c].sum()
                + self._log_prior[c]
            )
        # Normalize in log space for numerical stability.
        m = joint.max(axis=1, keepdims=True)
        probs = np.exp(joint - m)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs[:, 1]
