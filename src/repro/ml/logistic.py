"""L2-regularized logistic regression (Table 2's 'LR' row).

Trained full-batch with Adam; class imbalance (~7.7% malware) is
handled with inverse-frequency sample weights so the minority class is
not drowned out.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy, row_stable_matvec


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class LogisticRegression(Classifier):
    """Binary logistic regression with Adam and L2 penalty.

    Args:
        l2: ridge strength.
        lr: Adam step size.
        epochs: full-batch passes.
        balanced: reweight classes inversely to frequency.
        seed: rng seed for initialization.
        tol: early-stop tolerance on gradient norm.
    """

    name = "lr"
    _fitted_attr = "coef_"

    def __init__(
        self,
        l2: float = 1e-4,
        lr: float = 0.05,
        epochs: int = 300,
        balanced: bool = True,
        seed: int = 0,
        tol: float = 1e-6,
    ):
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.l2 = l2
        self.lr = lr
        self.epochs = epochs
        self.balanced = balanced
        self.seed = seed
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y = check_Xy(X, y)
        n, d = X.shape
        yf = y.astype(np.float64)
        if self.balanced:
            pos = max(yf.mean(), 1e-9)
            weights = np.where(yf == 1, 0.5 / pos, 0.5 / (1 - pos))
        else:
            weights = np.ones(n)
        weights = weights / weights.sum()

        rng = np.random.default_rng(self.seed)
        w = rng.normal(0, 0.01, size=d)
        b = 0.0
        m_w = np.zeros(d)
        v_w = np.zeros(d)
        m_b = v_b = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.epochs + 1):
            p = _sigmoid(X @ w + b)
            err = (p - yf) * weights
            grad_w = X.T @ err + self.l2 * w
            grad_b = float(err.sum())
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w**2
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b**2
            mw_hat = m_w / (1 - beta1**t)
            vw_hat = v_w / (1 - beta2**t)
            mb_hat = m_b / (1 - beta1**t)
            vb_hat = v_b / (1 - beta2**t)
            w -= self.lr * mw_hat / (np.sqrt(vw_hat) + eps)
            b -= self.lr * mb_hat / (np.sqrt(vb_hat) + eps)
            if np.linalg.norm(grad_w) < self.tol:
                break
        self.coef_ = w
        self.intercept_ = float(b)
        return self

    def _proba(self, X: np.ndarray) -> np.ndarray:
        # Row-stable matvec, not BLAS: scoring must be batch-invariant.
        Xf = X.astype(np.float32, copy=False)
        return _sigmoid(row_stable_matvec(Xf, self.coef_) + self.intercept_)
